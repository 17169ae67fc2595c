"""Rate-adaptive time-decay sampling — an extension.

:mod:`repro.core.timestamped` keeps wall-clock decay but inherits a
count-based memory-pressure floor: a burst of ``k >> n`` arrivals evicts
``~k`` residents because insertion is deterministic. The fix is the same
one Algorithm 3.1 applies to space constraints — *gate insertion* — with
the gate adapted to the arrival rate:

* maintain an online estimate ``rho_hat`` of the arrival rate (EWMA of
  interarrival gaps);
* insert each arrival with probability ``p_in = min(1, n * lam_time /
  rho_hat)`` — during a 100x burst only ~1/100 of points enter, so the
  burst contributes (in expectation) the same *mass per unit time* as
  quiet traffic;
* on insertion, run the usual ``F(t)``-gated uniform ejection. The
  per-unit-time ejection hazard is then ``rho * p_in / n ~ lam_time``
  regardless of the rate, so retention decays as ``exp(-lam_time *
  elapsed)`` — pure wall-clock decay.

Because ``rho_hat`` moves, the insertion probability varies over time; the
sampler therefore records each resident's *actual* insertion probability
and exposes the exact per-resident inclusion model

    p(x) = p_in(s_x) * exp(-lam_time * (now - s_x))

so Horvitz-Thompson estimation stays exact even across rate changes (the
same bookkeeping trick that makes variable reservoir sampling estimable).

Trade-off vs the hybrid sampler: during a burst this design *rejects* most
burst points (keeping the time-decay contract), whereas the hybrid design
keeps them all (trading away old points). Which is right depends on
whether the application's horizon is in seconds or in arrivals — the
``ablation_timestamped`` benchmark measures both.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike

__all__ = ["TimeDecayReservoir"]


class TimeDecayReservoir(ReservoirSampler):
    """Pure wall-clock-decay reservoir with rate-adaptive insertion.

    Parameters
    ----------
    lam_time:
        Decay rate per unit time.
    capacity:
        Reservoir size ``n``; also the target steady-state sample size
        when the arrival rate satisfies ``rho >= n * lam_time``.
    rate_memory:
        EWMA factor (0, 1] for the interarrival-gap estimate; smaller
        adapts slower. Default 0.05 (~20-gap memory).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        lam_time: float,
        capacity: int,
        rate_memory: float = 0.05,
        rng: RngLike = None,
    ) -> None:
        super().__init__(capacity, rng)
        lam_time = float(lam_time)
        if lam_time <= 0.0:
            raise ValueError(f"lam_time must be > 0, got {lam_time}")
        if not 0.0 < rate_memory <= 1.0:
            raise ValueError(
                f"rate_memory must lie in (0, 1], got {rate_memory}"
            )
        self.lam_time = lam_time
        self.rate_memory = float(rate_memory)
        self.now: float = 0.0
        self._mean_gap: Optional[float] = None  # EWMA of interarrival gaps
        self._timestamps: List[float] = []
        self._insert_probs: List[float] = []

    def _extra_state(self) -> dict:
        return {
            "lam_time": self.lam_time,
            "rate_memory": self.rate_memory,
            "now": self.now,
            "mean_gap": self._mean_gap,
            "timestamps": [float(s) for s in self._timestamps],
            "insert_probs": [float(p) for p in self._insert_probs],
        }

    def _restore_extra(self, state: dict) -> None:
        self.now = float(state["now"])
        gap = state["mean_gap"]
        self._mean_gap = None if gap is None else float(gap)
        self._timestamps = [float(s) for s in state["timestamps"]]
        self._insert_probs = [float(p) for p in state["insert_probs"]]

    @classmethod
    def _construct_from_state(cls, state: dict) -> "TimeDecayReservoir":
        return cls(
            lam_time=state["lam_time"],
            capacity=state["capacity"],
            rate_memory=state["rate_memory"],
        )

    # ------------------------------------------------------------------ #
    # Rate estimation
    # ------------------------------------------------------------------ #

    @property
    def estimated_rate(self) -> float:
        """Current arrival-rate estimate (inf before two arrivals)."""
        if self._mean_gap is None or self._mean_gap <= 0.0:
            return math.inf
        return 1.0 / self._mean_gap

    def current_insertion_probability(self) -> float:
        """``min(1, n * lam_time / rho_hat)`` with the current estimate."""
        rate = self.estimated_rate
        if not math.isfinite(rate) or rate <= 0.0:
            return 1.0
        return min(1.0, self.capacity * self.lam_time / rate)

    def _update_rate(self, gap: float) -> None:
        if self._mean_gap is None:
            self._mean_gap = gap if gap > 0 else None
        else:
            self._mean_gap += self.rate_memory * (gap - self._mean_gap)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def _run_decay(self, delta: float) -> None:
        """Time-decay ejections for the elapsed gap (as in the hybrid
        sampler): K ~ Poisson(lam * delta * n) F-gated rounds."""
        mean = self.lam_time * delta * self.capacity
        if mean <= 0.0:
            return
        for _ in range(int(self.rng.poisson(mean))):
            size = len(self._payloads)
            if size == 0:
                break
            if self.rng.random() < size / self.capacity:
                victim = int(self.rng.integers(size))
                self._payloads[victim] = self._payloads[-1]
                self._arrivals[victim] = self._arrivals[-1]
                self._timestamps[victim] = self._timestamps[-1]
                self._insert_probs[victim] = self._insert_probs[-1]
                self._payloads.pop()
                self._arrivals.pop()
                self._timestamps.pop()
                self._insert_probs.pop()
                self.ejections += 1
                self._drop_columns()

    def offer_at(self, payload: Any, timestamp: float) -> bool:
        """Process an arrival stamped ``timestamp`` (non-decreasing)."""
        timestamp = float(timestamp)
        if timestamp < self.now:
            raise ValueError(
                f"timestamps must be non-decreasing: {timestamp} < {self.now}"
            )
        delta = timestamp - self.now
        if self.t > 0:
            self._update_rate(delta)
        self.now = timestamp
        self.t += 1
        self.offers += 1
        self._run_decay(delta)
        p_in = self.current_insertion_probability()
        if self.rng.random() >= p_in:
            return False
        if self.is_full:
            victim = int(self.rng.integers(len(self._payloads)))
            self._replace_at(victim, payload)
            self._timestamps[victim] = timestamp
            self._insert_probs[victim] = p_in
        else:
            self._append(payload)
            self._timestamps.append(timestamp)
            self._insert_probs.append(p_in)
        return True

    def offer(self, payload: Any) -> bool:
        """Unit-spaced arrivals."""
        return self.offer_at(payload, self.now + 1.0)

    # ------------------------------------------------------------------ #
    # Views / models
    # ------------------------------------------------------------------ #

    def timestamps(self) -> np.ndarray:
        """Wall-clock timestamps of the residents."""
        return np.asarray(self._timestamps, dtype=np.float64)

    def time_ages(self) -> np.ndarray:
        """Per-resident elapsed time ``now - timestamp``."""
        return self.now - self.timestamps()

    def resident_weights(self) -> np.ndarray:
        """Exact per-resident HT weights ``1 / p(x)`` with
        ``p(x) = p_in(s_x) * exp(-lam_time * (now - s_x))``.

        The insertion probability of *this very resident* was recorded at
        insertion time, so the weights are exact across rate changes."""
        probs = np.asarray(self._insert_probs, dtype=np.float64)
        decay = np.exp(-self.lam_time * self.time_ages())
        return 1.0 / (probs * decay)

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Arrival-index models do not apply; use :meth:`resident_weights`
        (per-resident, exact) for estimation."""
        raise NotImplementedError(
            "TimeDecayReservoir records exact per-resident inclusion "
            "probabilities; use resident_weights()"
        )
