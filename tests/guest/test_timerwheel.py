"""Unit and property tests for the hierarchical timer wheel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestError
from repro.guest.timerwheel import TimerWheel


class TestBasics:
    def test_empty(self):
        w = TimerWheel()
        assert len(w) == 0
        assert w.next_expiry() is None
        assert w.advance_to(1000) == []

    def test_fire_at_expiry(self):
        w = TimerWheel()
        fired = []
        w.add(5, lambda: fired.append(5))
        out = w.advance_to(10)
        assert [t.expires_jiffies for t in out] == [5]
        for t in out:
            t.callback()
        assert fired == [5]
        assert len(w) == 0

    def test_past_expiry_fires_next_jiffy(self):
        w = TimerWheel(start_jiffies=100)
        t = w.add(50, lambda: None)  # already past
        assert t.expires_jiffies == 101
        assert [x.expires_jiffies for x in w.advance_to(101)] == [101]

    def test_cannot_run_backwards(self):
        w = TimerWheel(start_jiffies=10)
        with pytest.raises(GuestError):
            w.advance_to(5)

    def test_cancel(self):
        w = TimerWheel()
        t = w.add(10, lambda: None)
        assert w.cancel(t) is True
        assert w.cancel(t) is False
        assert w.cancel(None) is False
        assert w.advance_to(20) == []
        assert len(w) == 0

    def test_next_expiry_scans_levels(self):
        w = TimerWheel()
        w.add(100_000, lambda: None)  # deep level
        w.add(3, lambda: None)
        assert w.next_expiry() == 3

    def test_fire_order_across_levels(self):
        w = TimerWheel()
        expiries = [1, 63, 64, 65, 4096, 5000, 262144]
        for e in expiries:
            w.add(e, lambda: None)
        out = w.advance_to(300_000)
        assert [t.expires_jiffies for t in out] == sorted(expiries)

    def test_long_range_timer_cascades_correctly(self):
        """A timer far in the future fires exactly at its jiffy."""
        w = TimerWheel()
        w.add(1_000_000, lambda: None, name="far")
        assert w.advance_to(999_999) == []
        out = w.advance_to(1_000_000)
        assert len(out) == 1 and out[0].expires_jiffies == 1_000_000


class TestProperties:
    @given(deltas=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_every_timer_fires_exactly_at_expiry(self, deltas):
        """The wheel never fires early and, with per-jiffy stepping,
        never later than the expiry jiffy."""
        w = TimerWheel()
        fired: dict[int, int] = {}

        def make_cb(idx):
            return lambda: None

        expiries = []
        for i, d in enumerate(deltas):
            t = w.add(d, make_cb(i), name=str(i))
            expiries.append(t.expires_jiffies)
        horizon = max(expiries)
        seen = []
        for t in w.advance_to(horizon):
            assert t.expires_jiffies <= w.current_jiffies
            seen.append(t.expires_jiffies)
        assert sorted(seen) == sorted(expiries)
        assert len(w) == 0

    @given(
        start=st.integers(min_value=0, max_value=10**6),
        deltas=st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_firing_time_equals_expiry_even_with_offset_start(self, start, deltas):
        w = TimerWheel(start_jiffies=start)
        handles = [w.add(start + d, lambda: None) for d in deltas]
        by_expiry: dict[int, int] = {}
        cur = start
        horizon = max(t.expires_jiffies for t in handles)
        while cur < horizon:
            cur = min(cur + 1, horizon)
            for t in w.advance_to(cur):
                by_expiry.setdefault(t.expires_jiffies, cur)
        for t in handles:
            assert by_expiry[t.expires_jiffies] == t.expires_jiffies

    @given(deltas=st.lists(st.integers(min_value=1, max_value=50_000), min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_cancel_half_fires_other_half(self, deltas):
        w = TimerWheel()
        handles = [w.add(d, lambda: None) for d in deltas]
        for h in handles[::2]:
            w.cancel(h)
        expected = sorted(h.expires_jiffies for h in handles[1::2])
        out = w.advance_to(max(deltas) + 1)
        assert sorted(t.expires_jiffies for t in out) == expected


class _ReferenceWheel:
    """The wheel before cached expiry and lazy buckets: 8 x 64 eager
    buckets and a full scan per ``next_expiry``. Only the tie order of
    fired timers is not obvious from a brute-force model, and this is
    the code that defined it."""

    BITS, SIZE, LEVELS = 6, 64, 8

    def __init__(self) -> None:
        self.buckets = [[[] for _ in range(self.SIZE)] for _ in range(self.LEVELS)]
        self.current = 0
        self.count = 0

    def _place(self, t) -> None:
        delta = max(t.expires_jiffies - self.current, 0)
        level, span = 0, self.SIZE
        while delta >= span and level < self.LEVELS - 1:
            level += 1
            span <<= self.BITS
        self.buckets[level][(t.expires_jiffies >> (level * self.BITS)) & (self.SIZE - 1)].append(t)

    def add(self, expires: int, name: str):
        from repro.guest.timerwheel import WheelTimer

        t = WheelTimer(max(expires, self.current + 1), lambda: None, name)
        self._place(t)
        self.count += 1
        return t

    def cancel(self, t) -> bool:
        if not t._active:
            return False
        t._active = False
        self.count -= 1
        return True

    def advance_to(self, jiffies: int) -> list:
        fired: list = []
        while self.current < jiffies:
            self.current += 1
            cur = self.current
            self._drain(self.buckets[0][cur & (self.SIZE - 1)], fired)
            for level in range(1, self.LEVELS):
                bits = level * self.BITS
                if cur & ((1 << bits) - 1):
                    break
                self._drain(self.buckets[level][(cur >> bits) & (self.SIZE - 1)], fired)
        fired.sort(key=lambda t: t.expires_jiffies)
        return fired

    def _drain(self, bucket: list, fired: list) -> None:
        pending = [t for t in bucket if t._active]
        bucket.clear()
        for t in pending:
            if t.expires_jiffies <= self.current:
                t._active = False
                self.count -= 1
                fired.append(t)
            else:
                self._place(t)


#: Offsets from the current jiffy reaching every level (level 7 starts
#: at 64**7 = 2**42), including past expiries that the wheel clamps.
_DELTAS = st.one_of(
    st.integers(-3, 70),
    st.integers(64, 5_000),
    st.integers(4_096, 300_000),
    st.integers(1 << 18, 1 << 36),
    st.integers(1 << 36, 1 << 50),
)
_WHEEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _DELTAS),
        st.tuples(st.just("cancel"), st.integers(0, 1_000)),
        st.tuples(st.just("advance"), st.one_of(st.integers(0, 80), st.integers(64, 4_200))),
    ),
    max_size=50,
)


class TestAgainstReference:
    """Random add/cancel/advance interleavings against a reference wheel
    and a brute-force model of the live timers."""

    @pytest.mark.parametrize("query_every_step", [True, False])
    @given(ops=_WHEEL_OPS, queries=st.lists(st.booleans(), min_size=50, max_size=50))
    @settings(max_examples=120, deadline=None)
    def test_interleavings_match(self, query_every_step, ops, queries):
        w, ref = TimerWheel(), _ReferenceWheel()
        mine: list = []
        theirs: list = []
        for step, (kind, arg) in enumerate(ops):
            if kind == "add":
                expires = w.current_jiffies + arg
                mine.append(w.add(expires, lambda: None, name=str(len(mine))))
                theirs.append(ref.add(expires, name=str(len(theirs))))
                assert mine[-1].expires_jiffies == theirs[-1].expires_jiffies
            elif kind == "cancel" and mine:
                i = arg % len(mine)
                assert w.cancel(mine[i]) == ref.cancel(theirs[i])
            elif kind == "advance":
                target = w.current_jiffies + arg
                due = {t.name for t in mine if t.active and t.expires_jiffies <= target}
                got = [t.name for t in w.advance_to(target)]
                assert got == [t.name for t in ref.advance_to(target)]
                assert set(got) == due and len(got) == len(due)
            live = [t.expires_jiffies for t in mine if t.active]
            assert len(w) == ref.count == len(live)
            if query_every_step or queries[step]:
                assert w.next_expiry() == (min(live) if live else None)
        live = [t.expires_jiffies for t in mine if t.active]
        assert w.next_expiry() == (min(live) if live else None)

    def test_cached_expiry_survives_cascade_and_is_refreshed_after_fire(self):
        w = TimerWheel()
        a = w.add(70, lambda: None)  # level 1, cascades to level 0 at 64
        w.add(5_000, lambda: None)
        assert w.next_expiry() == 70
        assert w.advance_to(64) == []
        assert w.next_expiry() == 70
        assert w.advance_to(70) == [a]
        assert w.next_expiry() == 5_000
        w.add(100, lambda: None)
        assert w.next_expiry() == 100

    def test_cancel_of_earliest_rescans(self):
        w = TimerWheel()
        first = w.add(10, lambda: None)
        w.add(10, lambda: None, name="twin")
        w.add(400, lambda: None)
        assert w.next_expiry() == 10
        w.cancel(first)
        assert w.next_expiry() == 10
        assert [t.name for t in w.advance_to(10)] == ["twin"]
        assert w.next_expiry() == 400
