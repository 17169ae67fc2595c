"""Variable reservoir sampling — fast fill under space constraints.

Algorithm 3.1 with a small ``p_in`` takes ``O(n log n / p_in)`` arrivals to
fill (Theorem 3.2): for the paper's Figure 1 parameters the reservoir is
still not full after the *entire* half-million-point stream. Variable
reservoir sampling fixes the startup without changing the sampled
distribution:

* Start with ``p_in = 1`` and a *fictitious* reservoir of size
  ``p_in / lambda`` (only ``n_max`` slots physically exist). The ejection
  coin ``F(t)`` is evaluated against the fictitious size, so early on almost
  every arrival simply appends and the true reservoir fills after roughly
  ``n_max`` points.
* Whenever the physical limit ``n_max`` is reached (and ``p_in`` is still
  above the target ``n_max * lambda``), multiply ``p_in`` by a factor ``q``
  and eject a uniformly random ``(1 - q)`` fraction of residents.
  Theorem 3.3 guarantees the mixed population still satisfies the bias
  proportionality ``p(r, t) ∝ p_in * exp(-lambda (t - r))``.
* The recommended schedule ``q = 1 - 1/n_max`` ejects exactly one point per
  phase, keeping the reservoir within one point of full at all times.

Why the distribution is preserved: in every phase the per-resident ejection
hazard per arrival is ``p_in * F(t) / size = p_in / (p_in/lambda) =
lambda`` — *independent of the phase* — and each phase transition is a
uniform thinning that rescales every resident's inclusion probability by the
same ``q``. Hence retention always decays at rate ``lambda`` and the
proportionality constant tracks the current ``p_in``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.bias import ExponentialBias
from repro.core.biased import ExponentialDesign
from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike

__all__ = ["VariableReservoir"]


class VariableReservoir(ExponentialDesign, ReservoirSampler):
    """Theorem 3.3 variable-``p_in`` biased sampler.

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``.
    capacity:
        True (physical) reservoir size ``n_max``; must not exceed the
        natural size ``1/lambda`` (otherwise use
        :class:`~repro.core.biased.ExponentialReservoir`).
    q:
        Per-phase ``p_in`` reduction factor in ``(0, 1)``. Defaults to the
        paper's recommendation ``1 - 1/n_max`` (eject exactly one point per
        phase).
    rng:
        Seed or generator.

    Attributes
    ----------
    p_in:
        Current insertion probability; decays from 1.0 to the target
        ``n_max * lambda`` over the startup phases, then stays fixed.
    phase_history:
        ``(t, p_in)`` pairs recorded at each phase transition, for
        diagnostics and the Figure 1 experiment.

    Notes
    -----
    The inclusion law (:class:`~repro.core.biased.ExponentialDesign`)
    uses the *current* ``p_in`` as its proportionality constant, so it is
    valid for estimation at the current stream position; a past ``t``
    during the startup phases would need the ``p_in`` in force then,
    which :meth:`p_in_at` recovers from :attr:`phase_history`.
    """

    exponential_design = True

    def __init__(
        self,
        lam: float,
        capacity: int,
        q: Optional[float] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(capacity, rng)
        lam = float(lam)
        if lam <= 0.0:
            raise ValueError(f"lambda must be > 0, got {lam}")
        target = self.capacity * lam
        if target > 1.0 + 1e-12:
            raise ValueError(
                f"capacity {self.capacity} exceeds the natural size "
                f"1/lambda = {1.0 / lam:.6g}; space is not constrained"
            )
        if q is None:
            # Paper default: eject exactly one point per phase. Degenerate
            # at capacity 1 (q would be 0), where halving is the only
            # sensible schedule.
            q = 1.0 - 1.0 / self.capacity if self.capacity > 1 else 0.5
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {q}")
        self.lam = lam
        self.q = float(q)
        self.target_p_in = min(1.0, target)
        self.p_in = 1.0
        self.bias = ExponentialBias(lam)
        self.phase_history: List[Tuple[int, float]] = [(0, 1.0)]

    @property
    def fictitious_capacity(self) -> float:
        """Size of the pretend reservoir, ``p_in / lambda``."""
        return self.p_in / self.lam

    @property
    def fictitious_fill_fraction(self) -> float:
        """``F(t)`` evaluated against the fictitious capacity."""
        return min(1.0, self.size / self.fictitious_capacity)

    def offer(self, payload: Any) -> bool:
        """One arrival: Algorithm 3.1 step against the fictitious reservoir,
        then a phase transition if the physical limit was hit."""
        fill = self.fictitious_fill_fraction  # F(t) before this arrival
        self.t += 1
        self.offers += 1
        accepted = self.rng.random() < self.p_in
        if accepted:
            if self.is_full or self.rng.random() < fill:
                self._replace_random(payload)
            else:
                self._append(payload)
        if self.is_full and self.p_in > self.target_p_in:
            self._reduce_phase()
        return accepted

    def _reduce_phase(self) -> None:
        """Shrink ``p_in`` by ``q`` (clamped at the target) and thin the
        residents by the same fraction, per Theorem 3.3."""
        new_p = max(self.target_p_in, self.q * self.p_in)
        fraction_out = 1.0 - new_p / self.p_in
        self._eject_random(round(self.size * fraction_out))
        self.p_in = new_p
        self.phase_history.append((self.t, self.p_in))

    def _extra_state(self) -> dict:
        return {
            "lam": self.lam,
            "q": self.q,
            "p_in": self.p_in,
            "phase_history": [list(pair) for pair in self.phase_history],
        }

    def _restore_extra(self, state: dict) -> None:
        self.p_in = float(state["p_in"])
        self.phase_history = [
            (int(when), float(value)) for when, value in state["phase_history"]
        ]

    @classmethod
    def _construct_from_state(cls, state: dict) -> "VariableReservoir":
        return cls(lam=state["lam"], capacity=state["capacity"], q=state["q"])

    def p_in_at(self, t: int) -> float:
        """Insertion probability that was in force at stream position ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        current = 1.0
        for when, value in self.phase_history:
            if when > t:
                break
            current = value
        return current
