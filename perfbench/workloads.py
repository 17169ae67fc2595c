"""The four benchmark workloads: the paper's pipelines on ``StreamPoint`` data.

Each workload is a closed loop in one process. A *pass* is one fresh
pipeline over a fixed number of stream points (the workload's input size):

* :meth:`Workload.setup` builds the pass's inputs and objects from a
  ``numpy.random.SeedSequence`` (timed as ``setup_s``);
* :meth:`Workload.run` is the timed pipeline. Through a :class:`PassRecord`
  it times each user-facing call and marks the end of each segment (a
  block and its query round, a stretch of points), and it records spans
  through a :class:`~spans.Tracer` (a disabled tracer installs no hooks);
* :meth:`Workload.check` verifies the pass's outputs, outside the timing,
  and returns the pass's counters;
* :meth:`Workload.layer_metrics` turns the traced spans and the per-pass
  counters into per-layer metrics.

The layers are the program's modules (``streams``, ``core``, ``shard``,
``persist``, ``queries``, ``mining``); a span's name starts with the layer
it is charged to.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import (
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
)
from repro.mining import ReservoirKnnClassifier
from repro.persist import DurableReservoir
from repro.queries import (
    QueryEstimator,
    StreamHistory,
    average_query,
    class_count_query,
    count_query,
    range_count_query,
    range_selectivity_query,
    sum_query,
)
from repro.shard import ShardedReservoir
from repro.streams import (
    EvolvingClusterStream,
    IntrusionStream,
    chunked,
    load_stream_csv,
    save_stream_csv,
)

from spans import Tracer

__all__ = ["WORKLOADS", "Checks", "PassRecord", "Workload", "probe_ns"]

#: The paper's query/mining configuration: Algorithm 3.1 at n=1000,
#: lambda=1e-4 (so p_in = 0.1), against an unbiased reservoir of equal size.
QUERY_CAPACITY = 1000
QUERY_LAMBDA = 1e-4
#: Algorithm 2.1 at the paper's natural size n = 1/lambda = 10k.
ALG21_CAPACITY = 10_000
SYNTH_DIMS = 10
SYNTH_CLASSES = 4
#: Points per timing segment inside long stream reads and writes.
LAP_POINTS = 1024


def six_queries(horizon: int) -> list:
    """The six query types of Figures 2-6 at one horizon."""
    dims = range(SYNTH_DIMS)
    box = ((0, 1), (0.0, 0.0), (1.0, 1.0))
    return [
        count_query(horizon),
        sum_query(horizon, dims),
        range_count_query(horizon, *box),
        class_count_query(horizon, SYNTH_CLASSES),
        average_query(horizon, dims),
        range_selectivity_query(horizon, *box),
    ]


class Checks:
    """Correctness-check tally: ``failed`` / ``attempted`` is the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


#: Time the calibration kernel takes when the machine runs at reference speed.
PROBE_REF_NS = 180_000
#: Least time between two calibration probes inside a pass.
PROBE_EVERY_NS = 10_000_000
_PROBE_ARRAY = np.arange(512.0)
#: 8 MiB, more than a core's L2, so gathers from it time the shared cache.
_PROBE_TABLE = np.random.default_rng(0).random(1 << 20)
_PROBE_INDEX = np.random.default_rng(1).integers(0, 1 << 20, 16384)


def probe_ns() -> int:
    """Time one run of a fixed calibration kernel (~0.2 ms).

    The kernel does Python + numpy arithmetic and random gathers from an
    8 MiB table, never changes, and runs none of the program, so its time
    tracks only the machine's speed, which on shared cores swings by up to
    1.7x within seconds.
    """
    start = perf_counter_ns()
    values, total = _PROBE_ARRAY, 0.0
    for i in range(300):
        total += float(values[i & 511])
        if i % 16 == 0:
            values = values * 1.0000001 + 1.0
    total += float(_PROBE_TABLE[_PROBE_INDEX].sum())
    return perf_counter_ns() - start


class PassRecord:
    """Timings of one pass: one latency per user-facing call, one lap per
    segment of the pipeline (both in ns, in call order), and calibration
    probes taken between segments at least ``PROBE_EVERY_NS`` apart (their
    time falls in no lap)."""

    def __init__(self) -> None:
        self.latencies: List[int] = []
        self.laps: List[int] = []
        #: Lap each latency sample fell in.
        self.latency_laps: List[int] = []
        #: ``(laps closed before the probe, probe time in ns)``.
        self.probes: List[Tuple[int, int]] = []
        self._lap_start = self._last_probe = perf_counter_ns()

    def timed(self, func: Callable, *args: Any) -> Any:
        """Call ``func(*args)`` and record its latency."""
        start = perf_counter_ns()
        result = func(*args)
        self.latencies.append(perf_counter_ns() - start)
        self.latency_laps.append(len(self.laps))
        return result

    def lap(self) -> None:
        """Close the current segment and start the next."""
        now = perf_counter_ns()
        self.laps.append(now - self._lap_start)
        if now - self._last_probe >= PROBE_EVERY_NS:
            self.probes.append((len(self.laps), probe_ns()))
            now = self._last_probe = perf_counter_ns()
        self._lap_start = now

    def every(self, iterable: Iterable, n: int) -> Iterator:
        """Pass ``iterable`` through, closing a segment every ``n`` items."""
        for i, item in enumerate(iterable, start=1):
            yield item
            if i % n == 0:
                self.lap()

    def slowdowns(self) -> np.ndarray:
        """Each lap's machine slowdown: the mean of the probes taken just
        before and just after it, against ``PROBE_REF_NS``."""
        if not self.probes:
            self.probes.append((len(self.laps), probe_ns()))
        at = np.array([p[0] for p in self.probes])
        ns = np.array([p[1] for p in self.probes], dtype=np.float64)
        lap = np.arange(len(self.laps))
        first_after = np.searchsorted(at, lap + 1)
        after = first_after.clip(0, len(at) - 1)
        before = (first_after - 1).clip(0, len(at) - 1)
        before = np.where(at[before] <= lap, before, after)
        return (ns[before] + ns[after]) / 2 / PROBE_REF_NS

    def scaled(self) -> Tuple[float, np.ndarray]:
        """Pass time (s) and latencies (us), each divided by its lap's slowdown."""
        factor = self.slowdowns()
        lat_laps = np.asarray(self.latency_laps, dtype=np.intp)
        lat_factor = factor[np.minimum(lat_laps, len(factor) - 1)]
        return (
            float(np.sum(np.array(self.laps) / factor)) / 1e9,
            np.array(self.latencies) / lat_factor / 1e3,
        )


class ColumnsProbe:
    """Traces ``obj.resident_columns`` and counts rebuilds.

    A call is a rebuild when the returned columns object differs in
    identity from the one the previous call returned.
    """

    def __init__(self, tracer: Tracer, obj: Any, name: str) -> None:
        self.rebuilds = 0
        self.rebuild_ns = 0
        self._last = None
        if tracer.enabled:
            inner = obj.resident_columns

            def probed():
                tracer.begin(name)
                start = perf_counter_ns()
                try:
                    columns = inner()
                finally:
                    tracer.end()
                if columns is not self._last:
                    self.rebuilds += 1
                    self.rebuild_ns += perf_counter_ns() - start
                    self._last = columns
                return columns

            obj.resident_columns = probed


def _self_us(summary: Dict[str, Dict[str, int]], name: str) -> float:
    return summary.get(name, {}).get("self_ns", 0) / 1e3


def _per_call_us(summary: Dict[str, Dict[str, int]], name: str) -> float:
    row = summary.get(name)
    if not row or not row["calls"]:
        return 0.0
    return row["self_ns"] / row["calls"] / 1e3


def _calls(summary: Dict[str, Dict[str, int]], name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def _dir_bytes(directory: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in directory.glob(pattern))


class Workload:
    """One paper pipeline; subclasses fill in the four hooks."""

    name = ""
    why = ""
    #: Stream points per pass (the stated input size).
    points = 0
    #: The user-facing call each latency sample times.
    latency_op = ""

    def __init__(self, points: Optional[int] = None) -> None:
        if points is not None:
            self.points = int(points)

    def config(self) -> Dict[str, Any]:
        """The workload's fixed configuration, recorded with every result."""
        raise NotImplementedError

    def setup(self, seq: np.random.SeedSequence, passdir: Path) -> Dict[str, Any]:
        """Build one pass's inputs and objects; ``passdir`` is empty scratch."""
        raise NotImplementedError

    def run(self, st: Dict[str, Any], tracer: Tracer, rec: PassRecord,
            checks: Checks) -> None:
        """The timed pipeline over one pass's inputs."""
        raise NotImplementedError

    def check(self, st: Dict[str, Any], checks: Checks) -> Dict[str, float]:
        """Verify one pass's outputs; return its per-pass counters."""
        raise NotImplementedError

    def layer_metrics(self, summary: Dict[str, Dict[str, int]], points: int,
                      passes: int, stats: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics from the traced spans of ``passes`` passes
        (``points`` stream points in all) and the median per-pass counters."""
        raise NotImplementedError


def _observe_block(history: StreamHistory, block: list) -> None:
    for point in block:
        history.observe(point)


class FigQuery(Workload):
    """Figures 2-6: Algorithm 3.1 vs unbiased, query rounds after each block."""

    name = "fig_query"
    latency_op = "QueryEstimator.estimate, including any column rebuild"
    why = (
        "Figures 2-6 pipeline: Alg 3.1 and unbiased ingest plus a 36-estimate "
        "query round per 1024-pt block; the only load on queries and "
        "resident_columns"
    )
    points = 100_000
    block = 1024
    horizons = (1_000, 10_000, 100_000)

    def config(self) -> Dict[str, Any]:
        return {
            "stream": "EvolvingClusterStream",
            "dimensions": SYNTH_DIMS,
            "samplers": {
                "biased": f"SpaceConstrainedReservoir(capacity={QUERY_CAPACITY}, "
                f"lam={QUERY_LAMBDA})",
                "unbiased": f"UnbiasedReservoir({QUERY_CAPACITY})",
            },
            "block": self.block,
            "horizons": list(self.horizons),
            "queries_per_round": 6 * len(self.horizons),
            "estimates_per_round": 12 * len(self.horizons),
        }

    def setup(self, seq, passdir):
        s_gen, s_b, s_u = seq.spawn(3)
        samplers = {
            "biased": SpaceConstrainedReservoir(
                lam=QUERY_LAMBDA, capacity=QUERY_CAPACITY, rng=s_b
            ),
            "unbiased": UnbiasedReservoir(QUERY_CAPACITY, rng=s_u),
        }
        return {
            "stream": EvolvingClusterStream(
                length=self.points, dimensions=SYNTH_DIMS, rng=s_gen
            ),
            "history": StreamHistory(SYNTH_DIMS),
            "samplers": samplers,
            "estimators": {k: QueryEstimator(s) for k, s in samplers.items()},
            "queries": [q for h in self.horizons for q in six_queries(h)],
        }

    def run(self, st, tracer, rec, checks):
        history, samplers = st["history"], st["samplers"]
        probes = [
            ColumnsProbe(tracer, s, "core.resident_columns")
            for s in samplers.values()
        ]
        for est in st["estimators"].values():
            tracer.method(est, "estimate", "queries.estimate")
        observe = tracer.fn(_observe_block, "queries.oracle_observe")
        truth = tracer.fn(history.evaluate, "queries.truth")
        offer_biased = tracer.fn(
            samplers["biased"].offer_many, "core.alg31.offer_many"
        )
        offer_unbiased = tracer.fn(
            samplers["unbiased"].offer_many, "core.unbiased.offer_many"
        )
        estimators = list(st["estimators"].values())
        queries = st["queries"]
        last_round: list = []
        for block in tracer.iterate(chunked(st["stream"], self.block),
                                    "streams.generate"):
            observe(history, block)
            offer_biased(block)
            offer_unbiased(block)
            rec.lap()
            last_round = []
            for query in queries:
                truth(query)
                for est in estimators:
                    result = rec.timed(est.estimate, query)
                    if result.sample_support:
                        checks.check(
                            bool(np.all(np.isfinite(result.estimate))),
                            f"{self.name}: non-finite {query.name} estimate",
                        )
                    last_round.append(result)
            rec.lap()
        st["last_round"] = last_round
        st["rebuilds"] = sum(p.rebuilds for p in probes)
        st["rebuild_ns"] = sum(p.rebuild_ns for p in probes)

    def check(self, st, checks):
        samplers = st["samplers"]
        for key, sampler in samplers.items():
            checks.check(sampler.t == self.points,
                         f"{self.name}: {key} t={sampler.t} != {self.points}")
            checks.check(sampler.size <= sampler.capacity,
                         f"{self.name}: {key} size over capacity")
        # The last round's columnar estimates equal the per-point
        # reference path bit for bit.
        reference = [
            QueryEstimator(sampler, columnar=False)
            for sampler in samplers.values()
        ]
        results = iter(st["last_round"])
        for query in st["queries"]:
            for ref in reference:
                got, want = next(results), ref.estimate(query)
                checks.check(
                    got.estimate.tobytes() == want.estimate.tobytes()
                    and got.sample_support == want.sample_support,
                    f"{self.name}: columnar {query.name} differs from reference",
                )
        biased = samplers["biased"]
        return {
            "insert_ratio": biased.insertions / max(biased.offers, 1),
            "rebuilds": st["rebuilds"],
            "rebuild_us": st["rebuild_ns"] / max(st["rebuilds"], 1) / 1e3,
        }

    def layer_metrics(self, summary, points, passes, stats):
        return {
            "streams.generate_us_per_pt": _self_us(summary, "streams.generate")
            / points,
            "core.alg31.offer_many_us_per_pt": _self_us(
                summary, "core.alg31.offer_many") / points,
            "core.unbiased.offer_many_us_per_pt": _self_us(
                summary, "core.unbiased.offer_many") / points,
            "core.insert_ratio": stats["insert_ratio"],
            "core.resident_columns_us": stats["rebuild_us"],
            "core.columns_rebuilds": stats["rebuilds"],
            "queries.estimate_self_us": _per_call_us(summary, "queries.estimate"),
            "queries.oracle_observe_us_per_pt": _self_us(
                summary, "queries.oracle_observe") / points,
            "queries.truth_us": _per_call_us(summary, "queries.truth"),
        }


class SampleDurable(Workload):
    """``repro sample --checkpoint-dir``: CSV in, durable Alg 2.1, crash, recover."""

    name = "sample_durable"
    latency_op = "DurableReservoir.offer_many of one 8192-point block"
    why = (
        "repro sample --checkpoint-dir path: CSV load, WAL+checkpoint ingest "
        "into Alg 2.1 at n=10k, crash, recover, CSV save; persist and "
        "streams.io dominate"
    )
    #: 13 WAL records per pass: one auto-checkpoint after record 8 leaves
    #: 5 records for recovery to replay.
    points = 100_000
    block = 8192
    checkpoint_every = 8

    def config(self) -> Dict[str, Any]:
        return {
            "stream": "EvolvingClusterStream (CSV)",
            "dimensions": SYNTH_DIMS,
            "sampler": f"ExponentialReservoir(capacity={ALG21_CAPACITY})",
            "block": self.block,
            "wal_sync": "batch",
            "checkpoint_every_records": self.checkpoint_every,
            "crash": "close(final_checkpoint=False) after the last block",
        }

    def setup(self, seq, passdir):
        s_gen, s_sampler = seq.spawn(2)
        csv_in = passdir / "stream.csv"
        save_stream_csv(
            EvolvingClusterStream(
                length=self.points, dimensions=SYNTH_DIMS, rng=s_gen
            ),
            csv_in,
        )
        return {
            "csv_in": csv_in,
            "csv_out": passdir / "sample.csv",
            "journal": passdir / "journal",
            "sampler": ExponentialReservoir(capacity=ALG21_CAPACITY, rng=s_sampler),
        }

    def run(self, st, tracer, rec, checks):
        sampler = st["sampler"]
        tracer.method(sampler, "offer_many", "core.alg21.offer_many")
        open_durable = tracer.fn(DurableReservoir, "persist.open")
        durable = open_durable(
            sampler,
            st["journal"],
            wal_sync="batch",
            checkpoint_every_records=self.checkpoint_every,
        )
        tracer.method(durable, "checkpoint", "persist.checkpoint")
        tracer.method(durable, "offer_many", "persist.offer_many")
        tracer.method(durable, "close", "persist.close")
        rows = rec.every(load_stream_csv(st["csv_in"]), LAP_POINTS)
        blocks = tracer.iterate(chunked(rows, self.block), "streams.csv_load")
        for block in blocks:
            rec.lap()  # opening the journal, then each block's CSV load
            rec.timed(durable.offer_many, block)
            rec.lap()
        # Crash: no final checkpoint, so recovery replays the WAL tail.
        durable.close(final_checkpoint=False)
        st["wal_bytes"] = _dir_bytes(st["journal"], "wal-*.log")
        st["ckpt_bytes"] = _dir_bytes(st["journal"], "ckpt-*.ckpt")
        rec.lap()
        recovered = tracer.fn(DurableReservoir.recover, "persist.recover")(
            st["journal"],
            wal_sync="batch",
            checkpoint_every_records=self.checkpoint_every,
        )
        rec.lap()
        st["recover_ns"] = rec.laps[-1]
        save = tracer.fn(save_stream_csv, "streams.csv_save")
        st["written"] = save(rec.every(recovered.payloads(), LAP_POINTS),
                             st["csv_out"])
        recovered.close(final_checkpoint=False)
        rec.lap()
        st["live"], st["recovered"] = durable, recovered

    def check(self, st, checks):
        live = st["live"].sampler.state_dict()
        got = st["recovered"].sampler.state_dict()
        checks.check(set(live) == set(got), f"{self.name}: state keys differ")
        for key in live:
            if key == "payloads":
                continue
            checks.check(live[key] == got.get(key),
                         f"{self.name}: recovered {key} differs")
        # Field by field: live payloads are views into shared chunk buffers,
        # so pickling the list would differ even when every field matches.
        same = len(live["payloads"]) == len(got["payloads"]) and all(
            a.index == b.index and a.label == b.label
            and a.values.tobytes() == b.values.tobytes()
            for a, b in zip(live["payloads"], got["payloads"])
        )
        checks.check(same, f"{self.name}: recovered payloads differ")
        checks.check(live["t"] == self.points,
                     f"{self.name}: t={live['t']} != {self.points}")
        with open(st["csv_out"]) as handle:
            rows = sum(1 for _ in handle) - 1
        checks.check(st["written"] == rows == st["recovered"].size,
                     f"{self.name}: wrote {rows} rows for "
                     f"{st['recovered'].size} residents")
        return {
            "insert_ratio": live["insertions"] / max(live["offers"], 1),
            "wal_bytes": st["wal_bytes"],
            "ckpt_bytes": st["ckpt_bytes"],
            "records_replayed": st["recovered"].last_recovery.records_replayed,
            "recover_s": st["recover_ns"] / 1e9,
        }

    def layer_metrics(self, summary, points, passes, stats):
        durable_self = _self_us(summary, "persist.offer_many")
        return {
            "streams.csv_load_us_per_pt": _self_us(summary, "streams.csv_load")
            / points,
            "streams.csv_save_ms": _per_call_us(summary, "streams.csv_save") / 1e3,
            "core.alg21.offer_many_us_per_pt": _self_us(
                summary, "core.alg21.offer_many") / points,
            "core.insert_ratio": stats["insert_ratio"],
            "persist.offer_many_self_us_per_pt": durable_self / points,
            "persist.checkpoint_ms": _per_call_us(summary, "persist.checkpoint")
            / 1e3,
            "persist.checkpoints": _calls(summary, "persist.checkpoint") / passes,
            "persist.wal_bytes": stats["wal_bytes"],
            "persist.ckpt_bytes": stats["ckpt_bytes"],
            "persist.records_replayed": stats["records_replayed"],
            "persist.recover_s": stats["recover_s"],
            "persist.journal_bytes_per_point": (
                stats["wal_bytes"] + stats["ckpt_bytes"]
            ) / self.points,
        }


class PrequentialKnn(Workload):
    """Figures 7/8: predict-then-observe 1-NN on Alg 3.1 and unbiased samples."""

    name = "prequential_knn"
    latency_op = "ReservoirKnnClassifier.predict_then_observe"
    why = (
        "Figures 7/8 pipeline: per-point predict_then_observe on two 1-NN "
        "classifiers (Alg 3.1 and unbiased, n=1000); mining predict and "
        "per-item offer, no batch kernels"
    )
    points = 20_000

    def config(self) -> Dict[str, Any]:
        return {
            "stream": "IntrusionStream",
            "dimensions": 34,
            "classes": 14,
            "classifiers": {
                "biased": f"ReservoirKnnClassifier(SpaceConstrainedReservoir("
                f"capacity={QUERY_CAPACITY}, lam={QUERY_LAMBDA}), k=1)",
                "unbiased": f"ReservoirKnnClassifier(UnbiasedReservoir("
                f"{QUERY_CAPACITY}), k=1)",
            },
        }

    def setup(self, seq, passdir):
        s_gen, s_b, s_u = seq.spawn(3)
        return {
            "stream": IntrusionStream(length=self.points, rng=s_gen),
            "classifiers": [
                ReservoirKnnClassifier(
                    SpaceConstrainedReservoir(
                        lam=QUERY_LAMBDA, capacity=QUERY_CAPACITY, rng=s_b
                    ),
                    k=1,
                ),
                ReservoirKnnClassifier(UnbiasedReservoir(QUERY_CAPACITY, rng=s_u), k=1),
            ],
        }

    def run(self, st, tracer, rec, checks):
        classifiers = st["classifiers"]
        for clf in classifiers:
            tracer.method(clf, "predict_then_observe", "mining.step")
            tracer.method(clf, "predict", "mining.predict")
            tracer.method(clf, "observe", "mining.observe")
            tracer.method(clf.sampler, "offer", "core.offer")
        expected = [0] * len(classifiers)
        made = [0] * len(classifiers)
        correct = [0] * len(classifiers)
        points = rec.every(tracer.iterate(st["stream"], "streams.generate"), 50)
        for point in points:
            for i, clf in enumerate(classifiers):
                if clf.sampler.size:
                    expected[i] += 1
                prediction = rec.timed(clf.predict_then_observe, point)
                if prediction is not None:
                    made[i] += 1
                    correct[i] += prediction == point.label
        st["expected"], st["made"], st["correct"] = expected, made, correct

    def check(self, st, checks):
        for i, clf in enumerate(st["classifiers"]):
            checks.check(st["made"][i] == st["expected"][i],
                         f"{self.name}: {st['made'][i]} predictions for "
                         f"{st['expected'][i]} labeled points with a resident")
            accuracy = st["correct"][i] / max(st["made"][i], 1)
            checks.check(0.0 <= accuracy <= 1.0,
                         f"{self.name}: accuracy {accuracy} outside [0, 1]")
            checks.check(clf.sampler.t == self.points,
                         f"{self.name}: sampler t={clf.sampler.t}")
        biased = st["classifiers"][0].sampler
        return {"insert_ratio": biased.insertions / max(biased.offers, 1)}

    def layer_metrics(self, summary, points, passes, stats):
        return {
            "streams.generate_us_per_pt": _self_us(summary, "streams.generate")
            / points,
            "core.offer_us": _per_call_us(summary, "core.offer"),
            "core.insert_ratio": stats["insert_ratio"],
            "mining.predict_us": _per_call_us(summary, "mining.predict"),
            "mining.observe_self_us": _per_call_us(summary, "mining.observe"),
        }


class ShardedIngest(Workload):
    """``repro sample --workers 2``: sharded Alg 2.1 with union query rounds."""

    name = "sharded_ingest"
    latency_op = "QueryEstimator.estimate on the sharded facade"
    why = (
        "repro sample --workers 2 path: inline 2-shard Alg 2.1 at n=10k in "
        "8192-pt blocks, a union query round every 2 blocks, one fold; no persist"
    )
    points = 196_608  # 24 blocks of 8192
    block = 8192
    workers = 2
    query_every = 2
    horizon = 10_000

    def config(self) -> Dict[str, Any]:
        return {
            "stream": "EvolvingClusterStream",
            "dimensions": SYNTH_DIMS,
            "sampler": f"ShardedReservoir(capacity={ALG21_CAPACITY}, "
            f"workers={self.workers}, family='exponential', backend='inline')",
            "partitioner": "round-robin",
            "block": self.block,
            "query_every_blocks": self.query_every,
            "horizon": self.horizon,
            "queries_per_round": 6,
        }

    def setup(self, seq, passdir):
        s_gen, s_facade = seq.spawn(2)
        facade = ShardedReservoir(
            capacity=ALG21_CAPACITY,
            workers=self.workers,
            family="exponential",
            rng=s_facade,
        )
        return {
            "stream": EvolvingClusterStream(
                length=self.points, dimensions=SYNTH_DIMS, rng=s_gen
            ),
            "facade": facade,
            "estimator": QueryEstimator(facade),
            "queries": six_queries(self.horizon),
        }

    def run(self, st, tracer, rec, checks):
        facade, estimator = st["facade"], st["estimator"]
        probe = ColumnsProbe(tracer, facade, "shard.resident_columns")
        tracer.method(facade, "offer_many", "shard.offer_many")
        tracer.method(facade.partitioner, "assign_block", "shard.partition")
        tracer.method(estimator, "estimate", "queries.estimate")
        points = rec.every(st["stream"], LAP_POINTS)
        blocks = tracer.iterate(chunked(points, self.block), "streams.generate")
        for i, block in enumerate(blocks, start=1):
            facade.offer_many(block)
            if i % self.query_every == 0:
                for query in st["queries"]:
                    result = rec.timed(estimator.estimate, query)
                    if result.sample_support:
                        checks.check(
                            bool(np.all(np.isfinite(result.estimate))),
                            f"{self.name}: non-finite {query.name} estimate",
                        )
            rec.lap()
        st["folded"] = tracer.fn(facade.fold, "shard.fold")()
        st["rebuilds"], st["rebuild_ns"] = probe.rebuilds, probe.rebuild_ns

    def check(self, st, checks):
        facade = st["facade"]
        checks.check(facade.t == self.points,
                     f"{self.name}: facade t={facade.t} != {self.points}")
        checks.check(st["folded"].size <= facade.capacity,
                     f"{self.name}: fold size {st['folded'].size} over capacity")
        states = [w["sampler"] for w in facade.worker_states()]
        offers = sum(s["offers"] for s in states)
        checks.check(offers == self.points,
                     f"{self.name}: shards saw {offers} offers")
        return {
            "insert_ratio": sum(s["insertions"] for s in states) / max(offers, 1),
            "rebuild_us": st["rebuild_ns"] / max(st["rebuilds"], 1) / 1e3,
        }

    def layer_metrics(self, summary, points, passes, stats):
        return {
            "streams.generate_us_per_pt": _self_us(summary, "streams.generate")
            / points,
            "core.insert_ratio": stats["insert_ratio"],
            "queries.estimate_self_us": _per_call_us(summary, "queries.estimate"),
            "shard.partition_us_per_pt": _self_us(summary, "shard.partition")
            / points,
            "shard.offer_many_self_us_per_pt": _self_us(summary, "shard.offer_many")
            / points,
            "shard.resident_columns_us": stats["rebuild_us"],
            "shard.fold_ms": _per_call_us(summary, "shard.fold") / 1e3,
        }


WORKLOADS = {
    w.name: w for w in (FigQuery, SampleDurable, PrequentialKnn, ShardedIngest)
}
