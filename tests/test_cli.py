"""Tests for the repro command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.encoding import decode
from repro.swa.scoring import ScoringScheme
from repro.swa.sequential import sw_max_score
from repro.workloads.dna import plant_homology, MutationModel, random_strand
from repro.index.fasta import FastaRecord, write_fasta


@pytest.fixture
def fasta_pair(tmp_path):
    rng = np.random.default_rng(3)
    queries, subjects = [], []
    for i in range(3):
        q = random_strand(rng, 16)
        if i < 2:  # plant the query into its subject
            t, _ = plant_homology(rng, q, 64, MutationModel(0, 0, 0))
        else:
            t = random_strand(rng, 64)
        queries.append(FastaRecord(f"q{i}", "", decode(q)))
        subjects.append(FastaRecord(f"s{i}", "", decode(t)))
    qp = tmp_path / "q.fa"
    sp = tmp_path / "s.fa"
    write_fasta(qp, queries)
    write_fasta(sp, subjects)
    return qp, sp, queries, subjects


class TestScore:
    def test_pairwise_scores(self, fasta_pair, capsys):
        qp, sp, queries, subjects = fasta_pair
        assert main(["score", str(qp), str(sp)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "query\tsubject\tscore"
        assert len(lines) == 4
        scheme = ScoringScheme(2, 1, 1)
        for line, q, s in zip(lines[1:], queries, subjects):
            qid, sid, score = line.split("\t")
            assert (qid, sid) == (q.id, s.id)
            assert int(score) == sw_max_score(q.codes, s.codes, scheme)

    def test_planted_pairs_score_full(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["score", str(qp), str(sp)])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        scores = [int(l.split("\t")[2]) for l in lines]
        assert scores[0] == 32 and scores[1] == 32  # 16 * c1
        assert scores[2] < 32

    def test_all_vs_all(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["score", str(qp), str(sp), "--all-vs-all"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 9

    def test_all_vs_all_chunked_matches_unchunked(self, fasta_pair,
                                                  capsys):
        """Chunked lazy cross-product streaming must emit exactly the
        rows (and order) of the one-shot path."""
        qp, sp, *_ = fasta_pair
        main(["score", str(qp), str(sp), "--all-vs-all"])
        whole = capsys.readouterr().out
        main(["score", str(qp), str(sp), "--all-vs-all",
              "--chunk-size", "2"])
        assert capsys.readouterr().out == whole

    def test_all_vs_all_screen_chunked(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["screen", str(qp), str(sp), "--all-vs-all", "-t", "25",
              "--chunk-size", "2"])
        out = capsys.readouterr().out
        assert "of 9 pairs exceed tau=25" in out
        assert "q0 vs s0" in out

    def test_mismatched_counts_error(self, fasta_pair, tmp_path):
        qp, sp, queries, _ = fasta_pair
        short = tmp_path / "one.fa"
        write_fasta(short, queries[:1])
        with pytest.raises(SystemExit):
            main(["score", str(qp), str(short)])

    def test_workers_matches_in_process(self, fasta_pair, capsys):
        """--workers 2 shards across processes; the rows must not
        change by a byte, pairwise and all-vs-all."""
        qp, sp, *_ = fasta_pair
        main(["score", str(qp), str(sp)])
        pairwise = capsys.readouterr().out
        main(["score", str(qp), str(sp), "--workers", "2"])
        assert capsys.readouterr().out == pairwise
        main(["score", str(qp), str(sp), "--all-vs-all"])
        cross = capsys.readouterr().out
        main(["score", str(qp), str(sp), "--all-vs-all",
              "--workers", "2", "--chunk-size", "2"])
        assert capsys.readouterr().out == cross

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_bad_workers_rejected(self, fasta_pair, workers):
        qp, sp, *_ = fasta_pair
        with pytest.raises(SystemExit, match="workers must be positive"):
            main(["score", str(qp), str(sp), "--workers", workers])

    def test_custom_scoring(self, fasta_pair, capsys):
        qp, sp, queries, subjects = fasta_pair
        main(["score", str(qp), str(sp), "--match", "3",
              "--mismatch", "2", "--gap", "2"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        scheme = ScoringScheme(3, 2, 2)
        for line, q, s in zip(lines, queries, subjects):
            assert int(line.split("\t")[2]) == \
                sw_max_score(q.codes, s.codes, scheme)


class TestScreen:
    def test_workers_matches_in_process(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["screen", str(qp), str(sp), "-t", "25"])
        base = capsys.readouterr().out
        main(["screen", str(qp), str(sp), "-t", "25", "--workers", "2"])
        assert capsys.readouterr().out == base

    def test_reports_survivors(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        assert main(["screen", str(qp), str(sp), "-t", "25"]) == 0
        out = capsys.readouterr().out
        assert "2 of 3 pairs exceed tau=25" in out
        assert "q0 vs s0" in out
        assert "score=32" in out

    def test_no_survivors(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["screen", str(qp), str(sp), "-t", "32"])
        assert "0 of 3" in capsys.readouterr().out


class TestMatch:
    def test_exact_offsets(self, fasta_pair, capsys):
        qp, sp, queries, subjects = fasta_pair
        assert main(["match", str(qp), str(sp)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        # Planted pairs report the plant offset; the random one none.
        off0 = lines[0].split("\t")[3]
        assert off0 != "-"
        j = int(off0.split(",")[0])
        assert subjects[0].sequence[j:j + 16] == queries[0].sequence
        assert lines[2].split("\t")[3] == "-"

    def test_k_relaxation_monotone(self, fasta_pair, capsys):
        qp, sp, *_ = fasta_pair
        main(["match", str(qp), str(sp), "-k", "16"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            offs = line.split("\t")[3]
            assert offs.count(",") == 64 - 16  # every offset hits


class TestIndex:
    @pytest.fixture
    def db_and_query(self, tmp_path):
        rng = np.random.default_rng(17)
        entries = [random_strand(rng, 400) for _ in range(12)]
        query = random_strand(rng, 32)
        entries[5][100:132] = query
        db = tmp_path / "db.fa"
        write_fasta(db, [FastaRecord(f"e{i}", "", decode(s))
                         for i, s in enumerate(entries)])
        qf = tmp_path / "q.fa"
        write_fasta(qf, [FastaRecord("q0", "", decode(query))])
        return db, qf, tmp_path / "idx"

    def test_build_then_search(self, db_and_query, capsys):
        db, qf, idx = db_and_query
        assert main(["index", "build", str(db), str(idx),
                     "--k", "10", "--minimizer-window", "5",
                     "--shard-chars", "1500", "--verify"]) == 0
        err = capsys.readouterr().err
        assert "12 entries" in err and "integrity check passed" in err

        assert main(["index", "search", str(idx), str(qf),
                     "-t", "40", "--stats"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "query\tentry\tdb_index\tscore"
        assert lines[1].startswith("q0\te5\t5\t64")
        assert "q0 vs e5" in captured.out  # traceback block
        assert "tier0 minimizer prefilter" in captured.err

    def test_search_no_align_scores_only(self, db_and_query, capsys):
        db, qf, idx = db_and_query
        main(["index", "build", str(db), str(idx)])
        capsys.readouterr()
        assert main(["index", "search", str(idx), str(qf),
                     "-t", "40", "--no-align", "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "q0\te5\t5\t64" in out
        assert "vs" not in out

    def test_build_rejects_bad_shard_chars(self, db_and_query):
        db, qf, idx = db_and_query
        with pytest.raises(SystemExit, match="shard-chars"):
            main(["index", "build", str(db), str(idx),
                  "--shard-chars", "0"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_registered(self):
        args = build_parser().parse_args(["experiments", "table1"])
        assert args.names == ["table1"]
