"""Streaming FASTA reading/writing for the index subsystem.

This is the FASTA implementation of the repo.  It covers what a
billion-character index build needs and what the old parser lacked:

* **streaming**: :func:`iter_fasta` yields records one at a time, so
  building an index over a database far larger than RAM never holds
  more than one record's sequence in memory,
* **alphabets**: nucleotide FASTA (the default) and amino-acid FASTA
  (``alphabet="protein"``, parsed against the 22-letter engine
  alphabet :data:`repro.core.alphabet.PROTEIN_X` — ``X`` and ``*``
  encode directly, selenocysteine ``U`` and pyrrolysine ``O`` resolve
  to their conventional stand-ins C and K),
* **ambiguity policy**: real FASTA carries ambiguity codes the engine
  alphabets cannot encode — IUPAC nucleotide codes (``N``, ``R``,
  ``Y``, ...) for DNA, ``B``/``Z``/``J`` for protein.
  ``ambiguous="strict"`` rejects them (the old behaviour),
  ``"replace"`` substitutes a *deterministically seeded* concrete
  character drawn from the code's possibility set (so an ``R`` becomes
  the same ``A`` or ``G`` on every run, and a replaced region scores
  like a random region instead of a poly-A magnet), ``"mask"`` maps
  every ambiguity code to the alphabet's wildcard — ``X`` for protein,
  which the substitution matrices score explicitly; DNA has no
  encodable wildcard, so masking is refused there — and ``"skip"``
  drops records containing any ambiguity code,
* multi-line records folded at arbitrary widths, lowercase input, and
  ``U`` (RNA) read as ``T`` in nucleotide mode.

Characters outside the alphabet's letter, alias and ambiguity sets are
rejected under every policy — they indicate a corrupt file or a
sequence in the wrong alphabet, not an ambiguity.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.alphabet import DNA, PROTEIN_X, Alphabet
from ..core.encoding import ALPHABET, encode

__all__ = [
    "AMBIGUITY",
    "PROTEIN_AMBIGUITY",
    "FastaError",
    "FastaRecord",
    "resolve_alphabet",
    "iter_fasta",
    "read_fasta",
    "write_fasta",
    "records_to_batch",
]

#: IUPAC nucleotide ambiguity codes -> the concrete bases they denote.
AMBIGUITY: dict[str, str] = {
    "N": "ACGT", "R": "AG", "Y": "CT", "S": "GC", "W": "AT",
    "K": "GT", "M": "AC", "B": "CGT", "D": "AGT", "H": "ACT",
    "V": "ACG",
}

#: Amino-acid ambiguity codes -> the residues they denote.  ``X`` is
#: *not* listed: the engine alphabet encodes it directly (every
#: shipped substitution matrix carries an X row/column), so it is a
#: first-class character, not an ambiguity.
PROTEIN_AMBIGUITY: dict[str, str] = {
    "B": "DN",   # Asx: aspartate or asparagine
    "Z": "EQ",   # Glx: glutamate or glutamine
    "J": "IL",   # Xle: isoleucine or leucine
}

_POLICIES = ("strict", "replace", "mask", "skip")

_ALPHABETS = {"dna": DNA, "protein": PROTEIN_X,
              "protein-x": PROTEIN_X}


class FastaError(ValueError):
    """Raised for malformed FASTA input."""


class _SkipRecord(Exception):
    """Internal: a record was dropped by ``ambiguous="skip"``."""


def resolve_alphabet(alphabet: str | Alphabet) -> Alphabet:
    """Resolve an alphabet name (``"dna"`` / ``"protein"``) or pass an
    :class:`~repro.core.alphabet.Alphabet` through."""
    if isinstance(alphabet, Alphabet):
        return alphabet
    try:
        return _ALPHABETS[alphabet.lower()]
    except (KeyError, AttributeError):
        raise FastaError(
            f"unknown alphabet {alphabet!r}; expected one of "
            f"{sorted(_ALPHABETS)} or an Alphabet instance"
        ) from None


def _alphabet_rules(alphabet: Alphabet) -> tuple[dict[str, str],
                                                 str | None]:
    """``(ambiguity map, wildcard)`` governing a parse alphabet.

    The wildcard is the in-alphabet character ``"mask"`` rewrites
    ambiguity codes to; ``None`` means the alphabet has no such
    character and masking is refused.
    """
    if alphabet is DNA or alphabet.name == "DNA":
        return AMBIGUITY, None
    if "X" in alphabet.letters:
        return PROTEIN_AMBIGUITY, "X"
    return {}, None


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: id, optional description, sequence.

    ``alphabet`` (default DNA) governs :attr:`codes`; it is excluded
    from equality so records compare by content.
    """

    id: str
    description: str
    sequence: str
    alphabet: Alphabet = field(default=DNA, compare=False)

    @property
    def codes(self) -> np.ndarray:
        """The sequence as engine codes (2-bit DNA, 5-bit protein)."""
        if self.alphabet is DNA:
            return encode(self.sequence)
        return self.alphabet.encode(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)


def _resolve_ambiguous(seq: str, header: str, source: str, policy: str,
                       seed: int, alphabet: Alphabet) -> str:
    """Apply the ambiguity policy to one raw (uppercased) sequence."""
    ambiguity, wildcard = _alphabet_rules(alphabet)
    if alphabet is DNA or alphabet.name == "DNA":
        seq = seq.replace("U", "T")
        valid = set(ALPHABET)
    else:
        valid = set(alphabet.letters) | set(alphabet.aliases)
    bad = set(seq) - valid
    if not bad:
        return seq
    unknown = bad - set(ambiguity)
    if unknown:
        kind = ("non-nucleotide characters"
                if alphabet.name == "DNA" else
                f"characters outside the {alphabet.name} alphabet:")
        raise FastaError(
            f"{source}: record {header!r} contains {kind} "
            f"{sorted(unknown)}"
        )
    if policy == "strict":
        raise FastaError(
            f"{source}: record {header!r} contains ambiguity codes "
            f"{sorted(bad)}; pass ambiguous='replace', 'mask' or "
            "'skip' to accept them"
        )
    if policy == "skip":
        raise _SkipRecord()
    if policy == "mask":
        if wildcard is None:
            raise FastaError(
                f"{source}: the {alphabet.name} alphabet has no "
                "encodable wildcard to mask ambiguity codes to; use "
                "ambiguous='replace' or 'skip'"
            )
        return seq.translate(str.maketrans(dict.fromkeys(ambiguity,
                                                         wildcard)))
    # "replace": seeded per record, so the substitution is stable
    # across runs and independent of record order in the file.
    rng = random.Random(zlib.crc32(header.encode()) ^ seed)
    out = []
    for ch in seq:
        out.append(rng.choice(ambiguity[ch]) if ch in ambiguity else ch)
    return "".join(out)


def _make_record(header: str, chunks: list[str], source: str,
                 policy: str, seed: int,
                 alphabet: Alphabet) -> FastaRecord:
    seq = "".join(chunks).upper()
    if not seq:
        raise FastaError(f"{source}: record {header!r} has no sequence")
    seq = _resolve_ambiguous(seq, header, source, policy, seed, alphabet)
    parts = header.split(None, 1)
    return FastaRecord(id=parts[0],
                       description=parts[1] if len(parts) > 1 else "",
                       sequence=seq, alphabet=alphabet)


def _parse(lines: Iterable[str], source: str, policy: str, seed: int,
           alphabet: Alphabet) -> Iterator[FastaRecord]:
    header: str | None = None
    chunks: list[str] = []
    lineno = 0
    for raw in lines:
        lineno += 1
        line = raw.rstrip("\n\r")
        if not line.strip():
            continue
        if line.startswith(">"):
            if header is not None:
                try:
                    yield _make_record(header, chunks, source, policy,
                                       seed, alphabet)
                except _SkipRecord:
                    pass
            header = line[1:].strip()
            if not header:
                raise FastaError(f"{source}:{lineno}: empty FASTA header")
            chunks = []
        else:
            if header is None:
                raise FastaError(
                    f"{source}:{lineno}: sequence data before any "
                    "'>' header"
                )
            chunks.append(line.strip())
    if header is not None:
        try:
            yield _make_record(header, chunks, source, policy, seed,
                               alphabet)
        except _SkipRecord:
            pass
    elif lineno == 0:
        raise FastaError(f"{source}: empty FASTA input")


def iter_fasta(path: str | Path, ambiguous: str = "strict",
               seed: int = 0,
               alphabet: str | Alphabet = "dna") -> Iterator[FastaRecord]:
    """Stream records from a FASTA file, one at a time.

    ``ambiguous`` is the ambiguity-code policy: ``"strict"`` (raise,
    default), ``"replace"`` (seeded deterministic substitution),
    ``"mask"`` (rewrite to the alphabet's wildcard — protein ``X``;
    refused for DNA, which has no encodable wildcard) or ``"skip"``
    (drop affected records).  ``alphabet`` selects nucleotide
    (``"dna"``) or amino-acid (``"protein"``) parsing.  Memory use is
    bounded by the largest single record, not the file.
    """
    if ambiguous not in _POLICIES:
        raise FastaError(
            f"unknown ambiguous-base policy {ambiguous!r}; expected "
            f"one of {_POLICIES}"
        )
    alphabet = resolve_alphabet(alphabet)
    path = Path(path)
    with path.open() as fh:
        yield from _parse(fh, str(path), ambiguous, seed, alphabet)


def read_fasta(path: str | Path, ambiguous: str = "strict",
               seed: int = 0,
               alphabet: str | Alphabet = "dna") -> list[FastaRecord]:
    """Parse a whole FASTA file into records (see :func:`iter_fasta`)."""
    records = list(iter_fasta(path, ambiguous=ambiguous, seed=seed,
                              alphabet=alphabet))
    if not records:
        raise FastaError(f"{path}: no FASTA records found")
    return records


def write_fasta(path: str | Path, records: Iterable[FastaRecord],
                width: int = 70) -> None:
    """Write records, folding sequence lines at ``width`` columns."""
    if width <= 0:
        raise FastaError(f"fold width must be positive, got {width}")
    path = Path(path)
    with path.open("w") as fh:
        for rec in records:
            header = rec.id if not rec.description else (
                f"{rec.id} {rec.description}"
            )
            fh.write(f">{header}\n")
            for i in range(0, len(rec.sequence), width):
                fh.write(rec.sequence[i:i + width] + "\n")


def records_to_batch(records: list[FastaRecord]) -> np.ndarray:
    """Stack equal-length records into a ``(P, n)`` code matrix."""
    if not records:
        raise FastaError("empty record list")
    n = len(records[0])
    for rec in records:
        if len(rec) != n:
            raise FastaError(
                f"record {rec.id!r} has length {len(rec)}; the batch "
                f"engines need equal lengths ({n} expected). Pad or "
                "split the input."
            )
    return np.stack([rec.codes for rec in records])
