"""CLI protein paths: score and index round trips through main()."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.alphabet import PROTEIN_X
from repro.core.matrices import BLOSUM50, BLOSUM62
from repro.core.protein import ProteinScheme, subst_gotoh_max_score
from repro.index.fasta import FastaError
from repro.index.fasta import FastaRecord, write_fasta


def _random_protein(rng, n: int) -> str:
    return PROTEIN_X.decode(rng.integers(0, 20, size=n))


@pytest.fixture
def protein_pair(tmp_path):
    rng = np.random.default_rng(21)
    queries, subjects = [], []
    for i in range(3):
        q = _random_protein(rng, 12)
        s = _random_protein(rng, 8) + q + _random_protein(rng, 8) \
            if i < 2 else _random_protein(rng, 28)
        queries.append(FastaRecord(f"q{i}", "", q,
                                   alphabet=PROTEIN_X))
        subjects.append(FastaRecord(f"s{i}", "", s,
                                    alphabet=PROTEIN_X))
    qp, sp = tmp_path / "q.fa", tmp_path / "s.fa"
    write_fasta(qp, queries)
    write_fasta(sp, subjects)
    return qp, sp, queries, subjects


class TestScoreProtein:
    def test_pairwise_blosum62_default_gaps(self, protein_pair,
                                            capsys):
        qp, sp, queries, subjects = protein_pair
        assert main(["score", str(qp), str(sp),
                     "--alphabet", "protein"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query\tsubject\tscore"
        scheme = ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1)
        for line, q, s in zip(lines[1:], queries, subjects):
            qid, sid, score = line.split("\t")
            assert (qid, sid) == (q.id, s.id)
            assert int(score) == subst_gotoh_max_score(
                q.codes, s.codes, scheme)

    def test_custom_matrix_and_gaps(self, protein_pair, capsys):
        qp, sp, queries, subjects = protein_pair
        assert main(["score", str(qp), str(sp),
                     "--alphabet", "protein", "--matrix", "blosum50",
                     "--gap-open", "10", "--gap-extend", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        scheme = ProteinScheme(BLOSUM50, gap_open=10, gap_extend=2)
        for line, q, s in zip(lines, queries, subjects):
            assert int(line.split("\t")[2]) == subst_gotoh_max_score(
                q.codes, s.codes, scheme)

    def test_planted_queries_score_identity_sum(self, protein_pair,
                                                capsys):
        qp, sp, queries, _ = protein_pair
        main(["score", str(qp), str(sp), "--alphabet", "protein"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        W = ProteinScheme(BLOSUM62).weights()
        for line, q in zip(lines[:2], queries[:2]):
            # Exact substring: the optimum is at least the diagonal sum.
            assert int(line.split("\t")[2]) >= \
                int(sum(W[c, c] for c in q.codes))

    def test_strict_ambiguity_rejects_b(self, tmp_path, capsys):
        qp, sp = tmp_path / "q.fa", tmp_path / "s.fa"
        write_fasta(qp, [FastaRecord("q0", "", "MKBLE",
                                     alphabet=PROTEIN_X)])
        write_fasta(sp, [FastaRecord("s0", "", "MKALE",
                                     alphabet=PROTEIN_X)])
        with pytest.raises(FastaError, match="ambiguity"):
            main(["score", str(qp), str(sp), "--alphabet", "protein"])
        assert main(["score", str(qp), str(sp), "--alphabet",
                     "protein", "--ambiguous", "mask"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        masked = PROTEIN_X.encode("MKXLE")
        gold = subst_gotoh_max_score(
            masked, PROTEIN_X.encode("MKALE"),
            ProteinScheme(BLOSUM62, gap_open=11, gap_extend=1))
        assert int(line.split("\t")[2]) == gold


class TestIndexProtein:
    def test_build_and_search_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        entries = [FastaRecord(f"e{i}", "", _random_protein(rng, 120),
                               alphabet=PROTEIN_X)
                   for i in range(3)]
        db = tmp_path / "db.fa"
        write_fasta(db, entries)
        idx_path = tmp_path / "db.idx"
        assert main(["index", "build", str(db), str(idx_path),
                     "--alphabet", "protein"]) == 0
        capsys.readouterr()

        query = entries[1].sequence[40:70]
        qp = tmp_path / "query.fa"
        write_fasta(qp, [FastaRecord("frag", "", query,
                                     alphabet=PROTEIN_X)])
        assert main(["index", "search", str(idx_path), str(qp),
                     "--alphabet", "protein", "--top-k", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query\tentry\tdb_index\tscore"
        qid, entry, _, score = lines[1].split("\t")
        assert (qid, entry) == ("frag", "e1")
        W = ProteinScheme(BLOSUM62).weights()
        codes = PROTEIN_X.encode(query)
        assert int(score) == int(sum(W[c, c] for c in codes))
