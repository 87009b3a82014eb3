"""Time-series telemetry for switch experiments.

Collects the quantities the paper plots: input-buffer occupancy (Fig. 7
center), working-memory occupancy (Fig. 7 right), queue lengths (Fig. 5),
per-HPU utilization, and wire counters (bytes in/out, for Fig. 14's
extra-traffic panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Counter:
    """Monotonic counter with a helper for rate computation."""

    value: float = 0.0

    def add(self, amount: float) -> None:
        self.value += amount


class GaugeSeries:
    """A sampled gauge: records (time, value) transitions, tracks peak.

    Stores transitions rather than fixed-interval samples, so peak and
    time-weighted mean are exact regardless of event spacing.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[tuple[float, float]] = []
        self.peak: float = 0.0
        self._weighted = 0.0
        self._last_t = 0.0
        self._last_v = 0.0

    def record(self, time: float, value: float) -> None:
        if time < self._last_t:
            raise ValueError(f"{self.name}: time went backwards ({time} < {self._last_t})")
        self._weighted += self._last_v * (time - self._last_t)
        self._last_t, self._last_v = time, value
        self.peak = max(self.peak, value)
        self.samples.append((time, value))

    def bulk_record_arrays(self, times, values) -> None:
        """Append a pre-sorted run of samples in one vectorized pass
        (the packet-train fast path commits its reconstructed series
        this way): peak and the time-weighted integral are computed
        with array ops, equivalent to per-sample :meth:`record` calls."""
        n = len(times)
        if n == 0:
            return
        t0 = float(times[0])
        if t0 < self._last_t:
            raise ValueError(
                f"{self.name}: time went backwards ({t0} < {self._last_t})"
            )
        self._weighted += self._last_v * (t0 - self._last_t)
        if n > 1:
            self._weighted += float(np.dot(values[:-1], np.diff(times)))
        self._last_t = float(times[-1])
        self._last_v = float(values[-1])
        self.peak = max(self.peak, float(values.max()))
        self.samples.extend(zip(times.tolist(), values.tolist()))

    def mean(self, until: float | None = None) -> float:
        """Time-weighted mean up to ``until`` (default: last sample)."""
        end = self._last_t if until is None else until
        if end <= 0:
            return 0.0
        extra = self._last_v * max(0.0, end - self._last_t)
        return (self._weighted + extra) / end

    @property
    def current(self) -> float:
        return self._last_v


class DeltaGauge:
    """A gauge fed by (time, delta) events that may arrive out of order.

    Handlers are evaluated eagerly at dispatch time but release working
    memory at *future* timestamps; this gauge therefore accumulates
    deltas and reconstructs the exact time profile (peak, time-weighted
    mean) lazily by sorting.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.events: list[tuple[float, float]] = []
        self._cache_len = -1
        self._cache: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def add(self, time: float, delta: float) -> None:
        self.events.append((time, delta))

    def _profile(self) -> tuple[float, float, float]:
        """Returns (peak, time_weighted_mean, final_value).

        Events are taken in stable time order.  ``np.cumsum`` adds
        strictly left to right, so the running value and the
        time-weighted integral are bitwise those of a sequential loop
        (``np.sum``/``np.dot`` would sum pairwise and drift).
        """
        if self._cache_len == len(self.events):
            return self._cache
        n = len(self.events)
        if n == 0:
            self._cache = (0.0, 0.0, 0.0)
        else:
            events = np.array(self.events, dtype=np.float64)
            order = np.argsort(events[:, 0], kind="stable")
            times = events[order, 0]
            values = np.cumsum(events[order, 1])
            before = np.empty(n)
            before[0] = 0.0
            before[1:] = values[:-1]
            weighted = float(np.cumsum(before * np.diff(times, prepend=0.0))[-1])
            last_t = float(times[-1])
            peak = max(0.0, float(values.max()))
            mean = weighted / last_t if last_t > 0 else 0.0
            self._cache = (peak, mean, float(values[-1]))
        self._cache_len = n
        return self._cache

    @property
    def peak(self) -> float:
        return self._profile()[0]

    def mean(self) -> float:
        return self._profile()[1]

    @property
    def current(self) -> float:
        return self._profile()[2]


@dataclass
class Telemetry:
    """Bundle of counters/gauges one switch run produces."""

    input_buffer_bytes: GaugeSeries = field(default_factory=lambda: GaugeSeries("input_buffer_bytes"))
    working_memory_bytes: DeltaGauge = field(default_factory=lambda: DeltaGauge("working_memory_bytes"))
    queued_packets: GaugeSeries = field(default_factory=lambda: GaugeSeries("queued_packets"))
    bytes_in: Counter = field(default_factory=Counter)
    bytes_out: Counter = field(default_factory=Counter)
    packets_in: Counter = field(default_factory=Counter)
    packets_out: Counter = field(default_factory=Counter)
    handler_invocations: Counter = field(default_factory=Counter)
    busy_cycles: Counter = field(default_factory=Counter)
    contention_wait_cycles: Counter = field(default_factory=Counter)
    icache_fills: Counter = field(default_factory=Counter)
    dropped_packets: Counter = field(default_factory=Counter)
    deferred_arrivals: Counter = field(default_factory=Counter)
    stalled_admissions: Counter = field(default_factory=Counter)

    def utilization(self, n_cores: int, makespan_cycles: float) -> float:
        """Fraction of core-cycles spent in handlers over the run."""
        if makespan_cycles <= 0:
            return 0.0
        return self.busy_cycles.value / (n_cores * makespan_cycles)

    def achieved_tbps(self, makespan_cycles: float, clock_ghz: float = 1.0) -> float:
        """Goodput over the run: ingress bytes / makespan, in Tbps."""
        if makespan_cycles <= 0:
            return 0.0
        seconds = makespan_cycles / (clock_ghz * 1e9)
        return self.bytes_in.value * 8.0 / seconds / 1e12
