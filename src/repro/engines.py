"""The one scheme dispatch and the one engine-name table.

Every layer that scores a batch — :func:`repro.filter.screening.
bulk_max_scores`, the shard workers, the serve engine pool and the
resilience fallback chain — names its engine from :data:`ENGINES` and
scores through it.  An engine maps a rectangular batch of code
matrices, ``X`` ``(P, m)`` and ``Y`` ``(P, n)``, possibly
sentinel-padded, to ``(P,)`` exact max scores:
``engine.score(X, Y, scheme, word_bits)``.

The BPBC engines differ only in the cell evaluator
(:data:`repro.core.sw_bpbc.CELL_EVALUATORS`) and all share
:func:`score_bpbc`, which picks the encoding and the wavefront from the
scheme:

* protein: ``alphabet.pad_bits`` character planes, with the
  substitution cell, or the Gotoh cell for affine gaps;
* DNA affine: the Gotoh cell on 3-bit planes when any code is a
  sentinel (> 3), else 2-bit planes;
* DNA linear: the 3-plane sentinel path when any code is a sentinel,
  else the paper's 2-bit bit-transposed path.

``numpy`` is the wordwise baseline with the same scheme dispatch
(:func:`score_wordwise`).  All engines are bit-identical, which the
differential fuzz suites pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable

import numpy as np

from .core.affine_bpbc import bpbc_gotoh_wavefront_planes
from .core.encoding import (encode_batch_bit_transposed,
                            encode_batch_char_planes)
from .core.sw_bpbc import bpbc_sw_wavefront, bpbc_sw_wavefront_planes
from .resilience.faults import fault_point
from .swa.affine import AffineScheme, gotoh_batch_max_scores
from .swa.numpy_batch import sw_batch_max_scores

__all__ = ["Engine", "ENGINES", "DEFAULT_CHAIN", "score_bpbc",
           "score_wordwise", "resolve_score"]


def _is_protein(scheme) -> bool:
    return callable(getattr(scheme, "weights_key", None))


def _has_sentinels(X: np.ndarray, Y: np.ndarray) -> bool:
    return bool((X.size and X.max() > 3) or (Y.size and Y.max() > 3))


def score_bpbc(X, Y, scheme, word_bits: int,
               cell: str | None = None) -> np.ndarray:
    """BPBC wavefront max scores for one rectangular batch.

    ``cell`` is the wavefront's cell evaluator; ``None`` lets the
    wavefront pick (the compiled step, native when a C toolchain is
    present).
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    P = X.shape[0]
    if _is_protein(scheme):
        eps = scheme.alphabet.pad_bits
        gotoh = scheme.is_affine
    else:
        eps = 3 if _has_sentinels(X, Y) else 2
        gotoh = isinstance(scheme, AffineScheme)
        if not gotoh and eps == 2:
            XH, XL = encode_batch_bit_transposed(X, word_bits)
            YH, YL = encode_batch_bit_transposed(Y, word_bits)
            return bpbc_sw_wavefront(XH, XL, YH, YL, scheme, word_bits,
                                     cell=cell).max_scores[:P]
    Xp = encode_batch_char_planes(X, word_bits, char_bits=eps)
    Yp = encode_batch_char_planes(Y, word_bits, char_bits=eps)
    wavefront = (bpbc_gotoh_wavefront_planes if gotoh
                 else bpbc_sw_wavefront_planes)
    return wavefront(Xp, Yp, scheme, word_bits, cell=cell).max_scores[:P]


def score_wordwise(X, Y, scheme) -> np.ndarray:
    """Wordwise NumPy max scores, with :func:`score_bpbc`'s dispatch.

    Sentinel codes never compare equal (and score the matrix minimum
    through the padded weight table), so padding is exact here too.
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if _is_protein(scheme):
        from .core.protein import subst_gotoh_batch_max_scores

        return subst_gotoh_batch_max_scores(X, Y, scheme)
    if isinstance(scheme, AffineScheme):
        return gotoh_batch_max_scores(X, Y, scheme)
    return sw_batch_max_scores(X, Y, scheme)


def _score_numpy(X, Y, scheme, word_bits: int) -> np.ndarray:
    return score_wordwise(X, Y, scheme)


# -- fallback-chain entries ---------------------------------------------
# Each fires its own engine.<name>.fail fault site, written as a
# literal so the contract lint can hold it against the catalogue.  Only
# the fallback chain calls these; the other layers call ``score``.

def _chain_compiled_c(X, Y, scheme, word_bits):
    fault_point("engine.compiled-c.fail")
    return score_bpbc(X, Y, scheme, word_bits, cell="compiled-c")


def _chain_compiled_numpy(X, Y, scheme, word_bits):
    fault_point("engine.compiled-numpy.fail")
    return score_bpbc(X, Y, scheme, word_bits, cell="compiled-numpy")


def _chain_generic(X, Y, scheme, word_bits):
    fault_point("engine.generic.fail")
    return score_bpbc(X, Y, scheme, word_bits, cell="generic")


def _chain_numpy(X, Y, scheme, word_bits):
    fault_point("engine.numpy.fail")
    return score_wordwise(X, Y, scheme)


@dataclass(frozen=True)
class Engine:
    """One evaluator of the batch scoring contract."""

    name: str
    #: ``(X, Y, scheme, word_bits) -> (P,) max scores``.
    score: Callable[..., np.ndarray]
    #: The same scoring behind the engine's fault site, as the fallback
    #: chain calls it; ``None`` keeps the engine out of the chain.
    chain: Callable[..., np.ndarray] | None = None


#: Every engine by name, fastest first.  ``bpbc`` lets the wavefront
#: pick its evaluator; the chain engines pin one each.
ENGINES = MappingProxyType({e.name: e for e in (
    Engine("bpbc", score_bpbc),
    Engine("compiled-c", partial(score_bpbc, cell="compiled-c"),
           _chain_compiled_c),
    Engine("compiled-numpy", partial(score_bpbc, cell="compiled-numpy"),
           _chain_compiled_numpy),
    Engine("generic", partial(score_bpbc, cell="generic"),
           _chain_generic),
    Engine("numpy", _score_numpy, _chain_numpy),
)})

#: Fallback demotion order: native -> generated NumPy -> interpreted
#: circuit -> wordwise SWA.
DEFAULT_CHAIN = tuple(name for name, e in ENGINES.items()
                      if e.chain is not None)


def resolve_score(engine) -> Callable[..., np.ndarray]:
    """Engine name or ``(X, Y, scheme, word_bits)`` callable -> scorer.

    An unknown name raises ``ValueError`` naming the choices.
    """
    if callable(engine):
        return engine
    try:
        return ENGINES[engine].score
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        ) from None
