"""The workloads: inputs from the seed, the timed loop, the oracle.

Each workload object goes through ``setup()`` (everything before the
first timed operation), ``measure(seconds, tracer)``, ``check()`` (the
oracle, outside the timed region), and then reports its end-to-end
``metrics()`` or, after a traced run, its ``layer_metrics()``.  Both
return ``{name: (value, unit)}``.  See ``README.md`` for why each
workload exists and which layers it leaves alone.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from concurrent.futures import wait
from contextlib import nullcontext

import numpy as np

from . import calib

#: Closed loops run at least this many operations whatever ``seconds``.
MIN_OPS = 5
#: Reference work after each untraced closed-loop op, as a share of
#: that op's time (at least REFERENCE_MIN_REPS calls).
REFERENCE_SHARE = 0.5
REFERENCE_MIN_REPS = 4

#: Layer -> metric prefix for the self-time table.  The self time of
#: every other span (the benchmark's own "op" span, the memoised JIT
#: lookups) is summed into ``trace.unattributed_ms``.
LAYER_KEYS = {
    "encoding": "encoding.w2b", "wavefront": "wavefront", "b2w": "b2w",
    "filter": "filter", "shard": "shard", "swa.traceback": "survivor_align",
    "resilience": "resilience", "index": "index",
    "index.minimizer": "index.minimizer", "index.store": "index.store",
    "serve.engine": "serve.engine",
}


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """Value at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    q = 100.0 * (1.0 - 10.0 / n) if n > 20 else 50.0
    return float(np.percentile(values, q))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_table(tracer, spans, units: int, busy_s: float,
                calib_ops_per_s: float) -> dict:
    """Self time per layer (ms per unit of work, and share of
    ``busy_s``), W2B bytes and wavefront word-ops per unit."""
    selfs = tracer.layer_self(spans)
    out = {}
    other = 0.0
    for layer, secs in selfs.items():
        key = LAYER_KEYS.get(layer)
        if key is None:
            other += secs
        elif key == "encoding.w2b":
            out["encoding.w2b_ms"] = (secs / units * 1e3, "ms")
            out["encoding.share"] = (secs / busy_s, "fraction")
        else:
            out[f"{key}.ms"] = (secs / units * 1e3, "ms")
            out[f"{key}.share"] = (secs / busy_s, "fraction")
    out["trace.unattributed_ms"] = (other / units * 1e3, "ms")
    enc = [s.info["bytes"] for s in spans if s.layer == "encoding"]
    if enc:
        out["encoding.bytes"] = (sum(enc) / units, "bytes")
    ops = [s.info["word_ops"] for s in spans if s.layer == "wavefront"]
    if ops:
        rate = sum(ops) / selfs["wavefront"]
        out["wavefront.word_ops"] = (sum(ops) / units, "count")
        out["wavefront.gops_per_s"] = (rate / 1e9, "Gop/s")
        out["wavefront.calib_frac"] = (rate / calib_ops_per_s, "fraction")
    return out


class ClosedLoop:
    """One caller; the next operation starts when the previous returned.

    In a traced run every second operation is traced, so the tracing
    overhead is measured against untraced operations of the same run.
    """

    name = ""
    #: Cells (m * n * pairs) per operation, for GCUPS.
    cells = 0
    #: Items (pairs, queries, requests) per operation.
    items = 1

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.times: list[float] = []        # untraced op seconds
        self.work: list[int] = []           # cells of each untraced op
        self.traced: list[float] = []       # traced op seconds
        self.windows: list[tuple[float, float]] = []   # traced op spans
        self.roots: list[int] = []          # span ids of traced ops
        self.outputs: list = []             # traced-op outputs
        self.slowdowns: list[float] = []    # per untraced op, see below
        self.mismatched = 0
        self.reference = None
        self.rss = 0.0

    # subclasses: setup(), op(i) -> output, oracle(output) -> bool
    def prepare(self, i: int) -> None:
        """Untimed work before op ``i`` (e.g. generating its inputs)."""

    def op_cells(self, i: int) -> int:
        return self.cells

    def same(self, i: int, out) -> bool:
        """Whether op ``i``'s output equals the first op's."""
        return bool(np.array_equal(out, self.reference))

    def measure(self, seconds: float, tracer=None) -> None:
        """Run ops for ``seconds``.  Untimed, each untraced op is followed
        by a block of reference work; the op's slowdown is the mean
        reference time of the blocks on either side of it over the
        nominal time (see :meth:`throughput`)."""
        before = calib.slowdown(reference_reps(0.0))
        end = time.perf_counter() + seconds
        i = 0
        while i < MIN_OPS or time.perf_counter() < end:
            self.prepare(i)
            # Every op starts with no collectable garbage, so when the
            # program's own allocations trigger a full collection does
            # not differ from op to op.
            gc.collect()
            traced = tracer is not None and i % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            with (tracer.span("op", "op", req=i) if traced
                  else nullcontext()) as span:
                t0 = time.perf_counter()
                out = self.op(i)
                t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            if traced:
                self.traced.append(t1 - t0)
                self.windows.append((t0, t1))
                self.roots.append(span.sid)
                self.outputs.append(out)
            else:
                self.times.append(t1 - t0)
                self.work.append(self.op_cells(i))
                after = calib.slowdown(reference_reps(t1 - t0))
                self.slowdowns.append((before + after) / 2)
                before = after
            if self.reference is None:
                self.reference = out
            if not self.same(i, out):
                self.mismatched += 1
            i += 1
        self.rss = peak_rss_mib()

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.traced)

    def check(self) -> tuple[int, int]:
        """``(attempted, failed)``: an op fails when its output differs
        from the first op's, and every op fails when the first is wrong."""
        if not self.oracle(self.reference):
            return self.attempted, self.attempted
        return self.attempted, self.mismatched

    def throughput(self) -> float:
        """Cells per second over the untraced ops, at nominal machine
        speed.

        This machine's speed drifts by up to a half over minutes, while
        the ratio between any two pieces of scalar work stays within
        about 1%; each op's time is therefore divided by its slowdown,
        measured with benchmark-owned reference work run next to it.
        Total work over total time, not the median op time, because
        per-op times are bimodal and their median jumps between levels.
        """
        return sum(self.work) / sum(
            t / k for t, k in zip(self.times, self.slowdowns))

    def slowdown(self) -> float:
        return statistics.fmean(self.slowdowns)

    def metrics(self) -> dict:
        return {"peak_rss_mib": (self.rss, "MiB"),
                "gcups": (self.throughput() / 1e9, "GCUPS")}

    def raw_metrics(self) -> dict:
        """The same throughput before normalising, and the slowdown."""
        secs = sum(self.times)
        return {
            "raw.gcups": (sum(self.work) / secs / 1e9, "GCUPS"),
            "raw.items_per_s": (self.items * len(self.times) / secs, "1/s"),
            "raw.slowdown": (self.slowdown(), "ratio"),
        }

    def layer_metrics(self, tracer, calib_ops_per_s: float) -> dict:
        out = layer_table(tracer, tracer.under(self.roots),
                          len(self.roots), sum(self.traced),
                          calib_ops_per_s)
        out["call_ms_tail"] = (tail([t * 1e3 for t in self.times]), "ms")
        out["trace.overhead_ms"] = (
            (median(self.traced) - median(self.times)) * 1e3, "ms")
        out.update(self.raw_metrics())
        return out


def reference_reps(op_s: float) -> int:
    """Reference calls lasting about REFERENCE_SHARE of ``op_s``."""
    return max(REFERENCE_MIN_REPS,
               round(REFERENCE_SHARE * op_s / calib.REFERENCE_NOMINAL_S))


# ---------------------------------------------------------------------
class BulkDNA(ClosedLoop):
    """``bulk_max_scores`` over 2048 planted-homology DNA pairs,
    m=128, n=512, linear 2/1/1: the paper's shape, in process."""

    name = "bulk-dna"
    P, M, N = 2048, 128, 512
    cells, items = P * M * N, P
    ORACLE_SAMPLE = 64

    def setup(self) -> None:
        from repro.filter.screening import bulk_max_scores
        from repro.swa.scoring import ScoringScheme
        from repro.workloads.dna import homologous_pairs

        self.bulk = bulk_max_scores
        self.scheme = ScoringScheme(2, 1, 1)
        self.X, self.Y, _ = homologous_pairs(self.rng, self.P, self.M,
                                             self.N, related_fraction=0.5)
        # Compile the one cell this shape uses.
        bulk_max_scores(self.X[:64], self.Y[:64], self.scheme)

    def op(self, i: int):
        return self.bulk(self.X, self.Y, self.scheme)

    def oracle(self, scores) -> bool:
        """A random sample of pairs against the wordwise NumPy engine."""
        from repro.swa.numpy_batch import sw_batch_max_scores

        idx = self.rng.choice(self.P, self.ORACLE_SAMPLE, replace=False)
        want = sw_batch_max_scores(self.X[idx], self.Y[idx], self.scheme)
        return bool(np.array_equal(scores[idx], want))


# ---------------------------------------------------------------------
class ScreenProtein(ClosedLoop):
    """``screen_pairs(workers=2)``, BLOSUM62 affine 11/1, 1024 random
    protein pairs (m=128, n=256) of which exactly 1% carry a planted
    homolog; tau lets only those through to survivor alignment."""

    name = "screen-protein"
    P, M, N = 1024, 128, 256
    cells, items = P * M * N, P
    PLANTED = P // 100
    TAU = 150          # random 128x256 pairs score < 90; planted > 400
    SUB_RATE = 0.1

    def setup(self) -> None:
        from repro.core.matrices import BLOSUM62
        from repro.core.protein import ProteinScheme
        from repro.filter.screening import bulk_max_scores, screen_pairs

        self.screen = screen_pairs
        self.scheme = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)
        rng = self.rng
        self.X = rng.integers(0, 20, (self.P, self.M)).astype(np.uint8)
        self.Y = rng.integers(0, 20, (self.P, self.N)).astype(np.uint8)
        self.planted = np.sort(rng.choice(self.P, self.PLANTED,
                                          replace=False))
        for p in self.planted:
            copy = self.X[p].copy()
            hit = rng.random(self.M) < self.SUB_RATE
            copy[hit] = rng.integers(0, 20, int(hit.sum()))
            at = int(rng.integers(0, self.N - self.M + 1))
            self.Y[p, at:at + self.M] = copy
        # Compile the Gotoh cell in this process before the shard pool
        # forks from it, and run the sharded path once.
        bulk_max_scores(self.X[:64], self.Y[:64], self.scheme)
        screen_pairs(self.X[:64], self.Y[:64], self.TAU, self.scheme,
                     workers=2, align_survivors=False)

    def op(self, i: int):
        res = self.screen(self.X, self.Y, self.TAU, self.scheme, workers=2)
        return res.scores, [(h.pair_index, h.score) for h in res.hits]

    def same(self, i: int, out) -> bool:
        return (bool(np.array_equal(out[0], self.reference[0]))
                and out[1] == self.reference[1])

    def oracle(self, out) -> bool:
        """Every score against the wordwise NumPy Gotoh engine, and the
        survivors exactly the planted pairs."""
        from repro.core.protein import subst_gotoh_batch_max_scores

        scores, hits = out
        want = subst_gotoh_batch_max_scores(self.X, self.Y, self.scheme)
        survivors = np.flatnonzero(want > self.TAU)
        return (bool(np.array_equal(scores, want))
                and np.array_equal(survivors, self.planted)
                and hits == [(int(p), int(want[p])) for p in survivors])

    def layer_metrics(self, tracer, calib_ops_per_s: float) -> dict:
        out = super().layer_metrics(tracer, calib_ops_per_s)
        spans = tracer.under(self.roots)
        n = len(self.roots)
        survivors = len(self.reference[1])
        out["screen.survivors"] = (survivors, "count")
        out["screen.survivor_frac"] = (survivors / self.P, "fraction")
        runs = [s for s in spans if s.name == "ShardExecutor.run"]
        sharded = sum(s.dur for s in spans
                      if s.name == "shard_scores_with_recovery")
        cmax = sum(s.info["compute_max"] for s in runs)
        cmean = sum(s.info["compute_mean"] for s in runs)
        out["shard.shards"] = (sum(s.info["shards"] for s in runs) / n,
                               "count")
        out["shard.compute_ms_max"] = (cmax / n * 1e3, "ms")
        out["shard.overhead_ms"] = ((sharded - cmax) / n * 1e3, "ms")
        out["shard.imbalance"] = (cmax / cmean, "ratio")
        for kind in ("shm", "pickle", "fallback"):
            out[f"shard.transport.{kind}"] = (
                sum(s.info[kind] for s in runs) / n, "count")
        return out


# ---------------------------------------------------------------------
class SearchIndex(ClosedLoop):
    """``TieredSearch`` over a ~10^7-char DNA index built in setup;
    each operation searches 8 queries, half of them planted exact
    copies of a database window, half random.  Its GCUPS counts each
    query against the whole database (query length x database
    characters), as database-search GCUPS usually do."""

    name = "search-index"
    ENTRIES, ENTRY_CHARS = 2000, 5000
    QUERY_M = 64
    BATCHES, PER_BATCH = 4, 8
    K, W, MIN_SEEDS, TAU = 16, 8, 2, 40
    cells, items = PER_BATCH * QUERY_M * ENTRIES * ENTRY_CHARS, PER_BATCH

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.first: dict[int, list] = {}

    def setup(self) -> None:
        from repro.index.search import TieredSearch
        from repro.index.store import build_index
        from repro.swa.scoring import ScoringScheme

        rng = self.rng
        entries = rng.integers(0, 4, (self.ENTRIES, self.ENTRY_CHARS),
                               dtype=np.uint8)
        self.queries, self.planted = [], []
        for j in range(self.BATCHES * self.PER_BATCH):
            if j % 2 == 0:
                e = int(rng.integers(0, self.ENTRIES))
                at = int(rng.integers(0, self.ENTRY_CHARS - self.QUERY_M))
                self.queries.append(entries[e, at:at + self.QUERY_M].copy())
                self.planted.append(e)
            else:
                self.queries.append(
                    rng.integers(0, 4, self.QUERY_M, dtype=np.uint8))
                self.planted.append(None)
        index = build_index(((f"e{i}", row) for i, row in enumerate(entries)),
                            os.path.join(self.workdir, "index"),
                            k=self.K, w=self.W)
        self.search = TieredSearch(index, scheme=ScoringScheme(2, 1, 1),
                                   min_seeds=self.MIN_SEEDS,
                                   threshold=self.TAU)
        # Every window has the same length, so one search compiles the
        # only cell the timed loop uses.
        self.search.search(self.queries[:1], top_k=1)

    def batch(self, i: int) -> int:
        # Pairs of ops share a batch, so traced (odd) and untraced (even)
        # ops both cycle through every batch.
        return (i // 2) % self.BATCHES

    def op(self, i: int):
        b = self.batch(i)
        res = self.search.search(
            self.queries[b * self.PER_BATCH:(b + 1) * self.PER_BATCH],
            top_k=1)
        return [(h.query_index, h.db_index, h.score) for h in res.hits], \
            res.stats

    def same(self, i: int, out) -> bool:
        return out[0] == self.first.setdefault(self.batch(i), out[0])

    def oracle(self, out) -> bool:
        """Each planted query's top hit is its source entry at the exact
        self-alignment score, in every batch's first output."""
        want = 2 * self.QUERY_M
        for b, hits in self.first.items():
            top = {qi: (e, s) for qi, e, s in hits}
            for j in range(self.PER_BATCH):
                e = self.planted[b * self.PER_BATCH + j]
                if e is not None and top.get(j) != (e, want):
                    return False
        return True

    def layer_metrics(self, tracer, calib_ops_per_s: float) -> dict:
        out = super().layer_metrics(tracer, calib_ops_per_s)
        # Tier timings and pass counts are the index's own counters,
        # averaged over the traced ops (one batch of queries each).
        n = len(self.outputs)
        for k, key in enumerate(("tier0", "tier1", "tier2")):
            tiers = [stats.tiers[k] for _, stats in self.outputs]
            out[f"index.{key}_ms"] = (
                sum(t.elapsed_s for t in tiers) / n * 1e3, "ms")
            if key != "tier2":
                out[f"index.{key}_pass"] = (
                    sum(t.candidates_out for t in tiers) / n, "count")
        return out


# ---------------------------------------------------------------------
class ServeMixed(ClosedLoop):
    """Closed-loop batches into ``AlignmentService()`` (its defaults):
    each op submits BATCH requests at once and waits for all of them.
    80% DNA (m~100, n~200, each length minus up to 20), 20% BLOSUM62
    affine protein; about 20% of each batch repeats a pair of the batch
    before it, so the result cache answers those."""

    name = "serve-mixed"
    BATCH = 128
    items = BATCH
    DNA_M, DNA_N, JITTER = 100, 200, 20
    PROTEIN_FRAC = 0.2
    REPEAT_FRAC = 0.2
    RELATED_FRAC = 0.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pairs: list[tuple[np.ndarray, np.ndarray, str]] = []
        self.answers: list[tuple[int, object]] = []   # (pair id, score)
        self.ids: list[int] = []
        self.previous: list[int] = []

    def setup(self) -> None:
        from repro.core.matrices import BLOSUM62
        from repro.core.protein import ProteinScheme
        from repro.serve import AlignmentService
        from repro.swa.scoring import ScoringScheme

        self.schemes = {
            "dna": ScoringScheme(2, 1, 1),
            "protein": ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1),
        }
        self.service = AlignmentService().start()
        # One request per (scheme, cell) class the mix can produce, so
        # no cell compiles inside an op; these pairs are the first
        # batch's repeat pool.
        for kind, m, n in self.cell_classes():
            pid = self.fresh_pair(kind, m, n)
            q, s, _ = self.pairs[pid]
            self.service.align(q, s, scheme=self.schemes[kind],
                               result_timeout_s=120)
            self.previous.append(pid)

    def close(self) -> None:
        self.service.stop()

    def measure(self, seconds: float, tracer=None) -> None:
        before = self.service.stats.snapshot()
        super().measure(seconds, tracer)
        after = self.service.stats.snapshot()
        self.cache_hit_ratio = (
            (after["cache_hits"] - before["cache_hits"])
            / (after["requests_submitted"] - before["requests_submitted"]))

    def cell_classes(self):
        """One ``(kind, m, n)`` per distinct compiled cell the mix can
        reach: the cell depends on the scheme and its score width."""
        seen = {}
        for kind, scheme in self.schemes.items():
            for m in range(self.DNA_M - self.JITTER, self.DNA_M + 1):
                for n in range(self.DNA_N - self.JITTER, self.DNA_N + 1):
                    seen.setdefault((kind, scheme.score_bits(m, n)),
                                    (kind, m, n))
        return sorted(seen.values())

    def fresh_pair(self, kind: str, m: int, n: int) -> int:
        from repro.workloads.dna import MutationModel, plant_homology

        rng = self.rng
        related = bool(rng.random() < self.RELATED_FRAC)
        if kind == "protein":
            q = rng.integers(0, 20, m).astype(np.uint8)
            s = rng.integers(0, 20, n).astype(np.uint8)
            if related:
                at = int(rng.integers(0, n - m + 1))
                s[at:at + m] = q
        else:
            q = rng.integers(0, 4, m).astype(np.uint8)
            if related:
                s, _ = plant_homology(rng, q, n, MutationModel())
            else:
                s = rng.integers(0, 4, n)
            s = s.astype(np.uint8)
        self.pairs.append((q, s, kind))
        return len(self.pairs) - 1

    def prepare(self, i: int) -> None:
        rng = self.rng
        self.ids, fresh = [], []
        for _ in range(self.BATCH):
            if rng.random() < self.REPEAT_FRAC:
                self.ids.append(self.previous[
                    int(rng.integers(0, len(self.previous)))])
                continue
            kind = ("protein" if rng.random() < self.PROTEIN_FRAC
                    else "dna")
            m = self.DNA_M - int(rng.integers(0, self.JITTER + 1))
            n = self.DNA_N - int(rng.integers(0, self.JITTER + 1))
            fresh.append(self.fresh_pair(kind, m, n))
            self.ids.append(fresh[-1])
        self.previous = fresh

    def op_cells(self, i: int) -> int:
        return sum(len(self.pairs[p][0]) * len(self.pairs[p][1])
                   for p in self.ids)

    def op(self, i: int):
        """Submit the batch, wait for every answer.  A refusal
        (``QueueFullError``, ``AdmissionRejected``) or an engine error
        leaves that request's score ``None``."""
        from repro.serve.errors import ServeError

        futures = []
        for pid in self.ids:
            q, s, kind = self.pairs[pid]
            try:
                futures.append(self.service.submit(
                    q, s, scheme=self.schemes[kind]))
            except ServeError:
                futures.append(None)
        wait([f for f in futures if f is not None], timeout=120)
        out = []
        for pid, f in zip(self.ids, futures):
            ok = f is not None and f.done() and f.exception() is None
            out.append((pid, f.result().score if ok else None))
        return out

    def same(self, i: int, out) -> bool:
        """Ops differ by design; keep the answers for :meth:`check`."""
        self.answers.extend(out)
        return True

    @property
    def attempted(self) -> int:
        return len(self.answers)

    def check(self) -> tuple[int, int]:
        """Every answer against the oracle score of its pair."""
        want = self.oracle_scores()
        return self.attempted, sum(1 for pid, score in self.answers
                                   if score is None or score != want[pid])

    def oracle_scores(self) -> np.ndarray:
        """Exact score of every distinct pair from the wordwise NumPy
        references (suffix sentinel padding never raises a local score)."""
        from repro.core.protein import subst_gotoh_batch_max_scores
        from repro.serve.packer import scheme_pads
        from repro.swa.numpy_batch import sw_batch_max_scores

        want = np.empty(len(self.pairs), dtype=np.int64)
        for kind, scheme in self.schemes.items():
            idx = [i for i, p in enumerate(self.pairs) if p[2] == kind]
            qpad, spad, _ = scheme_pads(scheme)
            for c in range(0, len(idx), 512):
                chunk = idx[c:c + 512]
                X = np.full((len(chunk), self.DNA_M), qpad, dtype=np.uint8)
                Y = np.full((len(chunk), self.DNA_N), spad, dtype=np.uint8)
                for r, i in enumerate(chunk):
                    q, s, _ = self.pairs[i]
                    X[r, :len(q)] = q
                    Y[r, :len(s)] = s
                fn = (subst_gotoh_batch_max_scores if kind == "protein"
                      else sw_batch_max_scores)
                want[chunk] = fn(X, Y, scheme)
        return want

    def layer_metrics(self, tracer, calib_ops_per_s: float) -> dict:
        """Engine-thread layers per packed batch, as shares of engine
        time, plus the packer's and the cache's counts, over the traced
        ops."""
        out = super().layer_metrics(tracer, calib_ops_per_s)
        spans = [s for s in tracer.spans
                 if any(t0 <= s.t0 <= t1 for t0, t1 in self.windows)]
        engine = [s for s in spans if s.layer == "serve.engine"]
        pairs = sum(s.info["pairs"] for s in engine)
        slots = sum(64 * math.ceil(s.info["pairs"] / 64) for s in engine)
        waits = [w for s in spans if s.name == "pack_requests"
                 for w in s.info["waits"]]
        busy = sum(s.dur for s in engine)
        out.update(layer_table(tracer, tracer.under(s.sid for s in engine),
                               len(engine), busy, calib_ops_per_s))
        n = len(self.windows)
        out.update({
            "serve.lane_occupancy": (pairs / slots, "fraction"),
            "serve.batches": (len(engine) / n, "count"),
            "serve.batch_ms_p50": (median([s.dur * 1e3 for s in engine]),
                                   "ms"),
            "serve.queue_wait_ms_p50": (median(waits) * 1e3, "ms"),
            "serve.cache_hit_ratio": (self.cache_hit_ratio, "fraction"),
            "serve.engine_busy_frac": (
                busy / len({s.thread for s in engine}) / sum(self.traced),
                "fraction"),
        })
        return out


def make(name: str, seed: int, workdir: str):
    if name == "search-index":
        return SearchIndex(seed, workdir)
    return {"bulk-dna": BulkDNA, "screen-protein": ScreenProtein,
            "serve-mixed": ServeMixed}[name](seed)
