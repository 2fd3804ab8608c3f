"""Two in-run measurements of the machine itself.

* :func:`peak_word_ops_per_s`: peak uint64 XOR/AND throughput.  A tiny
  C loop (compiled through the same ``repro.jit.cbackend`` path and
  flags as the wavefront step) applies a Feistel-style chain of XOR/AND
  word operations to an L1-resident array.  Its best rate is the
  roofline the wavefront's achieved word-ops/s is divided by.
* :func:`reference_seconds`: the time of a fixed piece of scalar work
  that belongs to the benchmark, not the program, so no change to the
  program can move it.  Its time tracks the machine's speed drift (see
  ``README.md``), and the closed loops divide that drift out of their
  throughput with it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

OPS_PER_WORD = 8      # four (AND, XOR) pairs per word per iteration
LANES = 512           # 2 x 4 KiB arrays: stays in L1
PEAK_REPEATS = 5      # timed calls; the best one counts
PEAK_TARGET_S = 0.02  # length of one timed call

SOURCE = """#include <stdint.h>
typedef uint64_t W;
void perfbench_calib(W* restrict a, W* restrict b, W* restrict k,
                     W* unused0, W* unused1, long iters, long u0,
                     long u1, long u2, long u3, long lanes)
{
    const W k0 = k[0], k1 = k[1], k2 = k[2], k3 = k[3];
    (void)unused0; (void)unused1; (void)u0; (void)u1; (void)u2; (void)u3;
    for (long it = 0; it < iters; ++it) {
        for (long l = 0; l < lanes; ++l) {
            W x = a[l], y = b[l];
            x ^= y & k0;
            y ^= x & k1;
            x ^= y & k2;
            y ^= x & k3;
            a[l] = x;
            b[l] = y;
        }
    }
}
"""


def peak_word_ops_per_s() -> float:
    """Best observed word-ops/s over PEAK_REPEATS timed calls."""
    from repro.jit.cbackend import compile_step

    fn = compile_step(SOURCE, symbol="perfbench_calib", num_ptr_args=5)
    rng = np.random.default_rng(0)
    a, b, k = (rng.integers(0, 2**63, n, dtype=np.uint64)
               for n in (LANES, LANES, 4))
    args = (a.ctypes.data, b.ctypes.data, k.ctypes.data, 0, 0)
    iters = 64
    while True:
        t0 = time.perf_counter()
        fn(*args, iters, 0, 0, 0, 0, LANES)
        dt = time.perf_counter() - t0
        if dt >= PEAK_TARGET_S / 4:
            break
        iters *= 4
    iters = int(iters * PEAK_TARGET_S / dt) + 1
    best = float("inf")
    for _ in range(PEAK_REPEATS):
        t0 = time.perf_counter()
        fn(*args, iters, 0, 0, 0, 0, LANES)
        best = min(best, time.perf_counter() - t0)
    return OPS_PER_WORD * LANES * iters / best


#: Time of one :func:`reference_work` on the machine the benchmark was
#: defined on, in its faster state; only sets the scale of the
#: normalised throughput.
REFERENCE_NOMINAL_S = 2.0e-3
REFERENCE_LEN = 64


def reference_work() -> int:
    """A pure-Python local-alignment DP on two fixed strings of
    REFERENCE_LEN characters."""
    a = [(i * 7 + 3) % 4 for i in range(REFERENCE_LEN)]
    b = [(i * 5 + 1) % 4 for i in range(REFERENCE_LEN)]
    prev = [0] * (REFERENCE_LEN + 1)
    best = 0
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            v = max(0, prev[j] + (2 if x == y else -1), prev[j + 1] - 1,
                    cur[j] - 1)
            cur.append(v)
            best = max(best, v)
        prev = cur
    return best


def slowdown(reps: int) -> float:
    """Mean time of ``reps`` calls of :func:`reference_work` over
    REFERENCE_NOMINAL_S.  The collector is paused inside the block, so
    a collection over the program's heap cannot land in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            reference_work()
        return (time.perf_counter() - t0) / reps / REFERENCE_NOMINAL_S
    finally:
        gc.enable()
