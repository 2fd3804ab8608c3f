"""The layer boundaries the traced run wraps, and the counts recorded
at each of them.

Every target is a public function or method of ``src/repro``, except
the serve engine, which is wrapped as the ``"bpbc"`` entry of the
``serve.engine_pool.ENGINES`` registry.  The hooks only read arguments
and results, so a traced call computes exactly what an untraced one
does.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

#: Modules imported before wrapping, so every binding gets replaced.
MODULES = (
    "repro.core.encoding", "repro.core.sw_bpbc", "repro.core.affine_bpbc",
    "repro.jit", "repro.jit.cells", "repro.jit.cbackend",
    "repro.filter.screening", "repro.resilience.recovery",
    "repro.resilience.fallback", "repro.shard.executor",
    "repro.swa.traceback", "repro.swa.sequential", "repro.serve.packer",
    "repro.serve.service", "repro.serve.engine_pool", "repro.index.search",
    "repro.index.minimizer", "repro.index.store",
)

_cell_ops: dict = {}


def cell_ops(kind: str, scheme, s: int, eps: int) -> int:
    """Gate count of the fused cell + running-max plan the C step
    evaluates per word-cell (the compiled plan's ``n_ops``)."""
    key = (kind, scheme, s, eps)
    if key not in _cell_ops:
        from repro.core import netlist as nl
        from repro.jit.compiler import plan_netlist

        get_wk = getattr(scheme, "weights_key", None)
        wk = get_wk() if callable(get_wk) else None
        if kind == "gotoh":
            c1, c2 = ((None, None) if wk is not None else
                      (scheme.match_score, scheme.mismatch_penalty))
            net = nl.build_gotoh_cell_best_netlist(
                s, scheme.gap_open, scheme.gap_extend, c1=c1, c2=c2,
                weights=wk, eps=eps)
        elif wk is not None:
            net = nl.build_subst_sw_cell_best_netlist(
                s, scheme.gap_penalty, wk, eps=eps)
        else:
            net = nl.build_sw_cell_best_netlist(
                s, scheme.gap_penalty, scheme.match_score,
                scheme.mismatch_penalty, eps=eps)
        _cell_ops[key] = plan_netlist(net).n_ops
    return _cell_ops[key]


def _encoding_hook(span, args, kwargs, out) -> None:
    outs = out if isinstance(out, tuple) else (out,)
    span.info["bytes"] = (np.asarray(args[0]).nbytes
                          + sum(o.nbytes for o in outs))


def _wavefront_hook(kind: str):
    def hook(span, args, kwargs, out) -> None:
        Xp, Yp, scheme = args[0], args[1], args[2]
        eps, m, lanes = np.shape(Xp)
        n = np.shape(Yp)[1]
        span.info["word_ops"] = (cell_ops(kind, scheme, out.s, eps)
                                 * m * n * lanes)
    return hook


def _shard_run_hook(span, args, kwargs, out) -> None:
    executor = args[0]
    elapsed = [t.elapsed_s for t in out.timings]
    span.info.update(
        shards=len(elapsed), compute_max=max(elapsed, default=0.0),
        compute_mean=(sum(elapsed) / len(elapsed)) if elapsed else 0.0,
        shm=executor.shm_runs, pickle=executor.pickle_runs,
        fallback=executor.shm_fallbacks)


def _engine_hook(span, args, kwargs, out) -> None:
    span.info["pairs"] = args[0].pairs


def _pack_hook(span, args, kwargs, out) -> None:
    # Queue wait: submission to the start of packing (monotonic clock,
    # the one the service stamps ``enqueued_at`` with).
    started = time.monotonic() - span.dur
    span.info["waits"] = [started - r.enqueued_at for r in args[0]]
    span.info["pairs"] = len(args[0])


def targets():
    """``(owner, attr, span name, layer, hook)`` for :meth:`Tracer.install`."""
    for mod in MODULES:
        importlib.import_module(mod)
    from repro.index.search import TieredSearch
    from repro.index.store import Shard
    from repro.resilience.fallback import EngineFallbackChain
    from repro.shard.executor import ShardExecutor

    return [
        ("repro.core.encoding", "encode_batch_bit_transposed",
         "w2b.bit_transposed", "encoding", _encoding_hook),
        ("repro.core.encoding", "encode_batch_char_planes",
         "w2b.char_planes", "encoding", _encoding_hook),
        ("repro.core.sw_bpbc", "bpbc_sw_wavefront_planes",
         "sw_wavefront", "wavefront", _wavefront_hook("sw")),
        ("repro.core.affine_bpbc", "bpbc_gotoh_wavefront_planes",
         "gotoh_wavefront", "wavefront", _wavefront_hook("gotoh")),
        ("repro.core.sw_bpbc", "reduce_max_rows", "b2w.reduce_max_rows",
         "b2w", None),
        ("repro.jit.cells", "sw_wavefront_step", "lower.sw", "jit", None),
        ("repro.jit.cells", "subst_wavefront_step", "lower.subst", "jit",
         None),
        ("repro.jit.cells", "gotoh_wavefront_step", "lower.gotoh", "jit",
         None),
        ("repro.jit.cbackend", "compile_step", "cc.compile_step", "jit",
         None),
        ("repro.filter.screening", "bulk_max_scores", "bulk_max_scores",
         "filter", None),
        ("repro.filter.screening", "screen_pairs", "screen_pairs",
         "filter", None),
        ("repro.resilience.recovery", "shard_scores_with_recovery",
         "shard_scores_with_recovery", "shard", None),
        (ShardExecutor, "run", "ShardExecutor.run", "shard",
         _shard_run_hook),
        (EngineFallbackChain, "score", "EngineFallbackChain.score",
         "resilience", None),
        ("repro.swa.traceback", "gotoh_align", "gotoh_align",
         "swa.traceback", None),
        ("repro.swa.traceback", "traceback", "traceback", "swa.traceback",
         None),
        ("repro.swa.sequential", "sw_matrix", "sw_matrix", "swa.traceback",
         None),
        ("repro.serve.packer", "pack_requests", "pack_requests",
         "serve", _pack_hook),
        # The "bpbc" entry of the serve engine registry: one packed batch.
        ("repro.serve.engine_pool", "_engine_bpbc", "engine.bpbc",
         "serve.engine", _engine_hook),
        (TieredSearch, "search", "TieredSearch.search", "index", None),
        ("repro.index.minimizer", "minimizers", "minimizers",
         "index.minimizer", None),
        (Shard, "lookup", "Shard.lookup", "index.store", None),
    ]
