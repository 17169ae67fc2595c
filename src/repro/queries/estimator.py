"""Sample-based query estimation (Section 4 of the paper).

Given a reservoir and the analytical inclusion probabilities ``p(r, t)`` of
its maintenance policy, any linear query ``G(t) = sum_r c_r h(X_r)`` is
estimated by the Horvitz-Thompson statistic over the residents,

    H(t) = sum_{r in sample} c_r h(X_r) / p(r, t)         (Equation 18)

which is unbiased: ``E[H(t)] = G(t)`` (Observation 4.1), with variance
``Var[H(t)] = sum_r c_r^2 h(X_r)^2 (1/p(r, t) - 1)`` (Lemma 4.1).

For *normalized* queries (averages, fractions — what the experiments
actually plot) we use the self-normalized (Hajek) ratio of two HT
estimates. It is only asymptotically unbiased but dramatically better
behaved: fraction estimates stay in ``[0, 1]`` and the unknown
proportionality constant of the inclusion model cancels, which is what
makes estimation with :class:`~repro.core.variable.VariableReservoir`
(whose constant is the current ``p_in``) robust.

The reservoir must store :class:`~repro.streams.point.StreamPoint` payloads
(arrival indices come from the reservoir's own bookkeeping).

Evaluation is columnar: estimates run over the sampler's cached
struct-of-arrays resident view and the queries' vectorized
``values_batch`` kernels, so a checkpoint that evaluates many queries
pays one payload materialization and zero Python-per-resident work. The
per-point path survives as the generic fallback for custom queries (and
as the reference the columnar path is tested against, bit for bit).

Every builder query's coefficient is the horizon indicator, so what an
estimate needs from the sample apart from ``h`` — the residents inside
the horizon, their arrival indices, feature rows and labels, and their
inclusion probabilities — depends only on the stored residents, the
stream position and the horizon. :func:`horizon_design` derives that
once per ``(t, horizon)`` and memoizes it on the resident view, so the
queries of a checkpoint round (and the numerator and denominator of a
ratio query, the group-by estimator and the histogram estimators) share
one design, and fresh estimators over the same sampler share it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.columns import ResidentColumns
from repro.core.reservoir import ReservoirSampler
from repro.queries.spec import LinearQuery, RatioQuery

__all__ = ["QueryEstimator", "EstimateResult", "HorizonDesign", "horizon_design"]

#: Memo key of the horizon designs on a resident view.
_DESIGNS = "queries.horizon_designs"


@dataclass(frozen=True)
class HorizonDesign:
    """The Horvitz–Thompson design of one horizon at one stream position.

    Attributes
    ----------
    support:
        Storage positions of the residents inside the horizon, ascending.
    arrivals, values, labels:
        Those residents' arrival indices, feature rows and labels.
    coeffs:
        Their query coefficients ``c(r, t)``: the horizon indicator, so
        all ones.
    probs:
        Their inclusion probabilities ``p(r, t)`` under the sampler's
        model.

    Every array is read-only: one design is shared by every estimate
    made in its storage epoch.
    """

    support: np.ndarray
    arrivals: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    coeffs: np.ndarray
    probs: np.ndarray

    @property
    def size(self) -> int:
        """Number of residents inside the horizon."""
        return int(self.support.shape[0])


def horizon_design(
    sampler: ReservoirSampler,
    columns: ResidentColumns,
    t: int,
    horizon: Optional[int],
) -> HorizonDesign:
    """The design of the residents inside ``horizon`` at stream position
    ``t`` (``horizon=None``: every resident).

    ``columns`` must be ``sampler.resident_columns()``. The design is
    memoized on that view, so it is built once per storage epoch and
    ``(t, horizon)``, and the sampler's ``1 <= r <= t`` check runs once
    per design. The memo is also keyed on ``sampler.t``: an offer can
    change the inclusion model without changing storage (a
    :class:`~repro.core.variable.VariableReservoir` phase change that
    ejects nobody). It keeps one stream position's designs at a time, so
    a long-lived view read at many positions stays small.
    """
    designs = columns.derived(_DESIGNS, dict)
    key = (sampler.t, t, horizon)
    design = designs.get(key)
    if design is None:
        if designs and next(iter(designs))[:2] != key[:2]:
            designs.clear()
        design = designs[key] = _build_design(sampler, columns, t, horizon)
    return design


def _build_design(
    sampler: ReservoirSampler,
    columns: ResidentColumns,
    t: int,
    horizon: Optional[int],
) -> HorizonDesign:
    """Gather one :class:`HorizonDesign` from the resident view."""
    if horizon is None:
        support = np.arange(columns.size)
    else:
        support = np.flatnonzero((t - columns.arrivals) < horizon)
    arrivals = columns.arrivals[support]
    probs = (
        sampler.inclusion_probabilities(arrivals, t)
        if support.size
        else np.empty(0)
    )
    parts = (
        support,
        arrivals,
        columns.values[support],
        columns.labels[support],
        np.ones(support.size),
        np.asarray(probs, dtype=np.float64),
    )
    for array in parts:
        array.setflags(write=False)
    return HorizonDesign(*parts)


@dataclass(frozen=True)
class EstimateResult:
    """An estimate plus its design-based uncertainty.

    Attributes
    ----------
    estimate:
        The HT (linear query) or Hajek (ratio query) estimate vector.
    variance:
        HT variance estimate per component (Lemma 4.1, estimated from the
        sample); ``None`` for ratio queries, whose design variance has no
        closed form at this level.
    sample_support:
        Number of residents with non-zero coefficient — the "relevant
        sample size" whose shrinkage for small horizons is the paper's
        core complaint about unbiased sampling.
    """

    estimate: np.ndarray
    variance: Optional[np.ndarray]
    sample_support: int

    @property
    def std_error(self) -> Optional[np.ndarray]:
        """Componentwise standard error, when variance is available."""
        if self.variance is None:
            return None
        return np.sqrt(np.maximum(self.variance, 0.0))


class QueryEstimator:
    """Evaluates queries against a reservoir sample.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.reservoir.ReservoirSampler` (or the
        sharded facade) whose payloads are :class:`StreamPoint` objects.
    columnar:
        When ``True`` (the default) estimates run over the sampler's
        cached struct-of-arrays resident view
        (:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`)
        with the queries' vectorized ``values_batch`` kernels — no
        Python-per-resident work for the builder queries. ``False`` forces
        the per-point reference path (one ``query.value`` call per
        resident); both paths produce bitwise-identical estimates and
        exist separately so equivalence tests and benchmarks can compare
        them.
    """

    def __init__(self, sampler: ReservoirSampler, columnar: bool = True) -> None:
        self.sampler = sampler
        self.columnar = bool(columnar)

    def _sample_parts(self, query: LinearQuery, t: int):
        """Common plumbing: per-resident (c, h, p) restricted to support."""
        if not self.columnar:
            return self._sample_parts_reference(query, t)
        try:
            columns = self.sampler.resident_columns()
        except AttributeError:
            # Non-StreamPoint payloads (e.g. the conformance specs drive
            # count queries over raw ints). The columnar view cannot
            # materialize, but value-agnostic queries still evaluate
            # through the per-point path — and value-touching ones raise
            # the same AttributeError there, as before.
            return self._sample_parts_reference(query, t)
        design = horizon_design(self.sampler, columns, t, query.horizon)
        if design.size == 0:
            return None
        values = query.values_matrix(
            design.values, design.labels, design.arrivals
        )
        return design.coeffs, values, design.probs

    def _sample_parts_reference(self, query: LinearQuery, t: int):
        """Per-point reference path: one ``query.value`` call per resident.

        Kept as the generic fallback and the ground truth the columnar
        path is regression-tested against.
        """
        arrivals = self.sampler.arrival_indices()
        if arrivals.size == 0:
            return None
        coeffs = query.coefficients(arrivals, t)
        support = coeffs != 0.0
        if not np.any(support):
            return None
        arrivals = arrivals[support]
        coeffs = coeffs[support]
        payloads = [
            p for p, keep in zip(self.sampler.payloads(), support) if keep
        ]
        values = np.vstack([query.value(point) for point in payloads])
        probs = self.sampler.inclusion_probabilities(arrivals, t)
        return coeffs, values, probs

    def estimate(
        self,
        query: Union[LinearQuery, RatioQuery],
        t: Optional[int] = None,
    ) -> EstimateResult:
        """Estimate ``query`` from the current reservoir contents.

        ``t`` defaults to the sampler's current stream position. Empty
        support (no resident inside the horizon) yields a zero estimate
        for linear queries and ``nan`` for ratio queries — the latter is
        the "null result" failure mode the paper attributes to unbiased
        samples at short horizons.
        """
        t = self.sampler.t if t is None else int(t)
        if t < self.sampler.t:
            # The reservoir holds its *current* state; its residents and
            # inclusion model cannot reconstruct a past sample.
            raise ValueError(
                f"cannot estimate as of t={t}: the reservoir has advanced "
                f"to t={self.sampler.t}. Evaluate at checkpoints while "
                "streaming instead."
            )
        if isinstance(query, RatioQuery):
            return self._estimate_ratio(query, t)
        parts = self._sample_parts(query, t)
        if parts is None:
            return EstimateResult(
                np.zeros(query.output_dim), np.zeros(query.output_dim), 0
            )
        coeffs, values, probs = parts
        weights = coeffs / probs
        estimate = weights @ values
        # HT variance estimator: sum (c h)^2 (1 - p) / p^2 over the sample.
        # Dividing the population term (c h)^2 (1 - p) / p by each sampled
        # point's own inclusion probability makes the sample sum unbiased
        # for Lemma 4.1's design variance.
        var_terms = (coeffs[:, None] * values) ** 2 * (
            (1.0 - probs) / probs**2
        )[:, None]
        variance = var_terms.sum(axis=0)
        return EstimateResult(estimate, variance, int(coeffs.size))

    def _estimate_ratio(self, query: RatioQuery, t: int) -> EstimateResult:
        """Self-normalized (Hajek) estimate of a ratio query."""
        num_parts = self._sample_parts(query.numerator, t)
        den_parts = self._sample_parts(query.denominator, t)
        if num_parts is None or den_parts is None:
            return EstimateResult(
                np.full(query.numerator.output_dim, np.nan), None, 0
            )
        n_coeffs, n_values, n_probs = num_parts
        d_coeffs, d_values, d_probs = den_parts
        numerator = (n_coeffs / n_probs) @ n_values
        denominator = (d_coeffs / d_probs) @ d_values
        support = int(d_coeffs.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = np.where(
                denominator != 0.0, numerator / denominator, np.nan
            )
        return EstimateResult(estimate, None, support)

    def relevant_sample_size(self, horizon: int, t: Optional[int] = None) -> int:
        """Residents inside the last-``horizon`` window.

        For an unbiased reservoir this is ~``n * horizon / t`` and shrinks
        as the stream grows; for the exponential reservoir it stays at
        ~``n (1 - e^{-lambda h})`` forever — the quantitative heart of the
        paper's argument.
        """
        t = self.sampler.t if t is None else int(t)
        ages = t - self.sampler.arrival_indices()
        return int(np.sum((ages >= 0) & (ages < horizon)))
