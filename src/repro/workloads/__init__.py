"""Workload models.

* :mod:`repro.workloads.parsec` — the 13 PARSEC benchmarks as synthetic
  models parameterized by their published synchronization behaviour
  (§6.1/§6.2's workloads);
* :mod:`repro.workloads.fio` — fio-style storage jobs (§6.3);
* :mod:`repro.workloads.micro` — the W1–W4 hypothetical workloads of
  §3.3 plus targeted microbenchmarks;
* :mod:`repro.workloads.netserve` — RPC-style network service (§8
  future work).
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__, base="Workload", fio="fio", micro="micro", netserve="netserve", parsec="parsec")

__all__ = ["Workload", "parsec", "fio", "micro", "netserve"]
