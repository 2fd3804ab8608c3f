"""Tests for repro.index.fasta: strict-mode basics, streaming and the
ambiguous-base policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.fasta import (
    AMBIGUITY,
    FastaError,
    FastaRecord,
    iter_fasta,
    read_fasta,
    records_to_batch,
    write_fasta,
)


@pytest.fixture
def mixed_file(tmp_path):
    p = tmp_path / "mixed.fa"
    p.write_text(
        ">clean first\n"
        "ACGTacgt\n"
        "ACGT\n"
        ">ambig has Ns\n"
        "ACNNGT\n"
        ">rna\n"
        "ACGU\n"
    )
    return p


class TestMultiLineAndCase:
    def test_folded_lines_joined(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_text(">x\nAC\nGT\nAC\n")
        assert read_fasta(p)[0].sequence == "ACGTAC"

    def test_lowercase_normalised(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_text(">x\nacgt\nACGT\n")
        assert read_fasta(p)[0].sequence == "ACGTACGT"

    def test_u_read_as_t(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_text(">x\nACGU\nuuuu\n")
        assert read_fasta(p)[0].sequence == "ACGTTTTT"

    def test_blank_lines_and_crlf(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_bytes(b">x desc\r\nACGT\r\n\r\nACGT\r\n")
        rec = read_fasta(p)[0]
        assert rec == FastaRecord("x", "desc", "ACGTACGT")


class TestStreaming:
    def test_iter_is_lazy(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_text(">a\nACGT\n>b\nTTTT\n>c\nGGGG\n")
        it = iter_fasta(p)
        assert next(it).id == "a"
        assert next(it).id == "b"
        assert [r.id for r in it] == ["c"]

    def test_iter_bad_policy(self, tmp_path):
        p = tmp_path / "f.fa"
        p.write_text(">a\nACGT\n")
        with pytest.raises(FastaError, match="policy"):
            list(iter_fasta(p, ambiguous="drop"))


class TestAmbiguousPolicy:
    def test_strict_raises_and_names_codes(self, mixed_file):
        with pytest.raises(FastaError) as exc:
            read_fasta(mixed_file, ambiguous="strict")
        assert "N" in str(exc.value)

    def test_skip_drops_affected_records(self, mixed_file):
        recs = read_fasta(mixed_file, ambiguous="skip")
        assert [r.id for r in recs] == ["clean", "rna"]

    def test_replace_substitutes_valid_bases(self, mixed_file):
        recs = read_fasta(mixed_file, ambiguous="replace")
        assert [r.id for r in recs] == ["clean", "ambig", "rna"]
        seq = recs[1].sequence
        assert len(seq) == 6
        assert seq[:2] == "AC" and seq[4:] == "GT"
        assert set(seq) <= set("ACGT")

    def test_replace_is_deterministic(self, mixed_file):
        a = read_fasta(mixed_file, ambiguous="replace")
        b = read_fasta(mixed_file, ambiguous="replace")
        assert a == b

    def test_replace_seed_changes_choice(self, tmp_path):
        p = tmp_path / "n.fa"
        p.write_text(">x\n" + "N" * 64 + "\n")
        seqs = {read_fasta(p, ambiguous="replace", seed=s)[0].sequence
                for s in range(4)}
        assert len(seqs) > 1  # seeds explore different substitutions

    def test_replace_respects_possibility_set(self, tmp_path):
        p = tmp_path / "r.fa"
        p.write_text(">x\n" + "R" * 32 + "\n")
        seq = read_fasta(p, ambiguous="replace")[0].sequence
        assert set(seq) <= set(AMBIGUITY["R"])

    def test_truly_unknown_chars_always_rejected(self, tmp_path):
        p = tmp_path / "x.fa"
        p.write_text(">x\nAC*T\n")
        for policy in ("strict", "replace", "skip"):
            with pytest.raises(FastaError, match="non-nucleotide"):
                read_fasta(p, ambiguous=policy)

    def test_all_records_skipped_is_empty_error(self, tmp_path):
        p = tmp_path / "n.fa"
        p.write_text(">x\nNNNN\n")
        with pytest.raises(FastaError, match="no FASTA records"):
            read_fasta(p, ambiguous="skip")


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        recs = [FastaRecord("a", "hello world", "ACGT" * 40),
                FastaRecord("b", "", "TGCA")]
        p = tmp_path / "out.fa"
        write_fasta(p, recs, width=13)
        assert read_fasta(p) == recs


@pytest.fixture
def fasta_file(tmp_path):
    p = tmp_path / "test.fa"
    p.write_text(
        ">seq1 first sequence\n"
        "ACGTACGT\n"
        "ACGT\n"
        "\n"
        ">seq2\n"
        "ttttgggg\n"
    )
    return p


class TestRead:
    def test_records(self, fasta_file):
        recs = read_fasta(fasta_file)
        assert len(recs) == 2
        assert recs[0].id == "seq1"
        assert recs[0].description == "first sequence"
        assert recs[0].sequence == "ACGTACGTACGT"  # folded lines joined
        assert recs[1].id == "seq2"
        assert recs[1].sequence == "TTTTGGGG"  # upper-cased

    def test_codes(self, fasta_file):
        recs = read_fasta(fasta_file)
        assert recs[0].codes.tolist()[:4] == [0, 3, 2, 1]  # A C G T

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.fa"
        p.write_text("")
        with pytest.raises(FastaError):
            read_fasta(p)

    def test_data_before_header_rejected(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text("ACGT\n>x\nACGT\n")
        with pytest.raises(FastaError):
            read_fasta(p)

    def test_empty_header_rejected(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text(">\nACGT\n")
        with pytest.raises(FastaError):
            read_fasta(p)

    def test_record_without_sequence_rejected(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text(">a\n>b\nACGT\n")
        with pytest.raises(FastaError):
            read_fasta(p)

    def test_non_dna_rejected(self, tmp_path):
        p = tmp_path / "bad.fa"
        p.write_text(">a\nACGN\n")
        with pytest.raises(FastaError) as exc:
            read_fasta(p)
        assert "N" in str(exc.value)


class TestWrite:
    def test_roundtrip(self, tmp_path):
        recs = [FastaRecord("a", "desc", "ACGT" * 30),
                FastaRecord("b", "", "TTTT")]
        p = tmp_path / "out.fa"
        write_fasta(p, recs, width=50)
        back = read_fasta(p)
        assert back == recs

    def test_folding(self, tmp_path):
        p = tmp_path / "out.fa"
        write_fasta(p, [FastaRecord("a", "", "A" * 25)], width=10)
        lines = p.read_text().splitlines()
        assert lines[1:] == ["A" * 10, "A" * 10, "A" * 5]

    def test_bad_width(self, tmp_path):
        with pytest.raises(FastaError):
            write_fasta(tmp_path / "x.fa",
                        [FastaRecord("a", "", "A")], width=0)


class TestBatch:
    def test_stacks_equal_lengths(self):
        recs = [FastaRecord("a", "", "ACGT"),
                FastaRecord("b", "", "TTTT")]
        batch = records_to_batch(recs)
        assert batch.shape == (2, 4)
        np.testing.assert_array_equal(batch[1], 1)

    def test_unequal_lengths_rejected(self):
        recs = [FastaRecord("a", "", "ACGT"),
                FastaRecord("b", "", "AC")]
        with pytest.raises(FastaError) as exc:
            records_to_batch(recs)
        assert "b" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(FastaError):
            records_to_batch([])
