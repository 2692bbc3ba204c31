"""Fleet-scale overcommit simulation (racks of hosts, sharded per host).

The paper measures paratick on one host and never overcommits; this
package extends the reproduction to the datacenter regime — many hosts,
each packing guests at 2-16x consolidation with bursty arrivals — while
keeping every result deterministic and content-addressed:

* :mod:`repro.fleet.spec` — fleet topology + burst profiles; compiles
  each host to one ``fleet.host`` :class:`~repro.experiments.parallel.RunSpec`;
* :mod:`repro.fleet.hostsim` — the per-host multi-VM simulation (the
  shard the parallel engine executes);
* :mod:`repro.fleet.aggregate` — integer-exact, order-invariant merge of
  per-host results into fleet percentiles;
* :mod:`repro.fleet.run` — grid execution + the byte-identity gate;
* :mod:`repro.fleet.report` — rack-level summary tables.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    aggregate="FleetAggregate aggregate_hosts fleet_bytes percentile_ns",
    hostsim="execute_fleet_spec run_host",
    report="failed_lines format_run_summary",
    run="fleet_identity_problems group_host_cells identity_problems_for_groups run_fleet",
    spec="BURSTS FLEET_HOST FleetSpec arrival_schedule fleet_params host_run_spec "
         "host_sim_seed",
)

__all__ = [
    "BURSTS",
    "FLEET_HOST",
    "FleetAggregate",
    "FleetSpec",
    "aggregate_hosts",
    "arrival_schedule",
    "execute_fleet_spec",
    "failed_lines",
    "fleet_bytes",
    "format_run_summary",
    "fleet_identity_problems",
    "fleet_params",
    "group_host_cells",
    "host_run_spec",
    "host_sim_seed",
    "identity_problems_for_groups",
    "percentile_ns",
    "run_fleet",
    "run_host",
]
