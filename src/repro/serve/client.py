"""Client for the alignment server, plus ``python -m repro.serve.client``.

:class:`ServeClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.server`.  :meth:`ServeClient.align` is a one-pair
round trip; :meth:`ServeClient.align_many` *pipelines* — it writes all
requests before reading any response, which is what lets the server's
micro-batcher fill whole lane words from a single connection.

The CLI mirrors ``python -m repro score``: two FASTA files, pairwise
or ``--all-vs-all``, TSV on stdout — but scored by a running server
instead of in process::

    python -m repro serve --port 7421 &
    python -m repro.serve.client queries.fa subjects.fa --port 7421
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import uuid

from .errors import ServeError, ServeProtocolError
from .server import DEFAULT_PORT

__all__ = ["ServeClient", "ClientError", "fresh_request_ids", "main"]


def fresh_request_ids(n: int) -> list[str]:
    """``n`` fresh client-generated idempotency IDs (``req`` fields).

    Reusing these IDs on a reconnect-and-resend is what makes the
    retry safe: the server's :class:`~repro.serve.server.
    IdempotencyIndex` recognises IDs it already executed and replays
    the remembered responses instead of scoring the pairs again.
    """
    return [uuid.uuid4().hex for _ in range(n)]


class ClientError(ServeError):
    """A server-side error response, re-raised client-side.

    Carries the protocol ``kind`` string (``queue_full``,
    ``deadline``, ``bad_request``, ...).
    """

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.kind = kind


class ServeClient:
    """One TCP connection to an alignment server."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 connect_timeout_s: float = 5.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=connect_timeout_s)
        self._sock.settimeout(None)
        self._fh = self._sock.makefile("rwb")

    # -- wire primitives ------------------------------------------------
    def _send(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj).encode() + b"\n")

    def _flush(self) -> None:
        self._fh.flush()

    def _recv(self) -> dict:
        try:
            line = self._fh.readline()
        except (ConnectionResetError, EOFError, OSError) as exc:
            raise ServeProtocolError(
                f"connection lost mid-response: {exc!r}", bytes_read=0,
            ) from exc
        if not line:
            # Clean EOF on a frame boundary: the server went away
            # between responses, not mid-frame.
            raise ClientError("server closed the connection", "closed")
        if not line.endswith(b"\n"):
            raise ServeProtocolError(
                f"truncated response frame: connection closed after "
                f"{len(line)} byte(s) of an unterminated line",
                bytes_read=len(line),
            )
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServeProtocolError(
                f"undecodable response frame ({len(line)} bytes): {exc}",
                bytes_read=len(line), bytes_expected=len(line),
            ) from exc

    @staticmethod
    def _check(resp: dict) -> dict:
        if not resp.get("ok"):
            raise ClientError(resp.get("error", "unknown server error"),
                              resp.get("kind", "error"))
        return resp

    # -- operations -----------------------------------------------------
    def ping(self) -> bool:
        self._send({"op": "ping"})
        self._flush()
        return bool(self._check(self._recv()).get("pong"))

    def stats(self) -> dict:
        """Service-level counters snapshot."""
        self._send({"op": "stats"})
        self._flush()
        return self._check(self._recv())["stats"]

    def align(self, query: str, subject: str, *,
              match: int | None = None, mismatch: int | None = None,
              gap: int | None = None, alphabet: str | None = None,
              matrix: str | None = None, gap_open: int | None = None,
              gap_extend: int | None = None,
              threshold: int | None = None,
              timeout_ms: float | None = None,
              priority: int | None = None) -> dict:
        """One pair, one round trip; returns the response dict."""
        return self.align_many(
            [(query, subject)], match=match, mismatch=mismatch,
            gap=gap, alphabet=alphabet, matrix=matrix,
            gap_open=gap_open, gap_extend=gap_extend,
            threshold=threshold, timeout_ms=timeout_ms,
            priority=priority,
        )[0]

    def align_many(self, pairs, *, match: int | None = None,
                   mismatch: int | None = None, gap: int | None = None,
                   alphabet: str | None = None,
                   matrix: str | None = None,
                   gap_open: int | None = None,
                   gap_extend: int | None = None,
                   threshold: int | None = None,
                   timeout_ms: float | None = None,
                   priority: int | None = None,
                   request_ids=None) -> list[dict]:
        """Pipeline many ``(query, subject)`` pairs over one connection.

        All requests are written before any response is read, so the
        server can pack them into shared lanes.  Responses come back
        in submission order; server-side errors surface as response
        dicts with ``ok: False`` (inspect ``error`` / ``kind``), not
        exceptions — one bad pair must not discard its neighbours.
        Transport failures (connection reset, a frame truncated
        mid-line) raise :class:`~repro.serve.errors.ServeProtocolError`
        instead, carrying ``bytes_read``/``bytes_expected`` — the
        typed signal that a reconnect-and-resend is in order.

        Every request carries a client-generated idempotency ID (the
        ``req`` wire field; pass ``request_ids`` to supply your own,
        one per pair).  A reconnect-and-resend with the *same* IDs is
        retry-safe: the server answers IDs it already executed from
        its idempotency index (``duplicate: true``) instead of scoring
        them twice — see :func:`fresh_request_ids`.
        """
        pairs = list(pairs)
        if request_ids is None:
            request_ids = fresh_request_ids(len(pairs))
        else:
            request_ids = [str(r) for r in request_ids]
            if len(request_ids) != len(pairs):
                raise ValueError(
                    f"{len(request_ids)} request_ids for "
                    f"{len(pairs)} pairs"
                )
        scoring = {}
        for key, value in (("match", match), ("mismatch", mismatch),
                           ("gap", gap), ("alphabet", alphabet),
                           ("matrix", matrix), ("gap_open", gap_open),
                           ("gap_extend", gap_extend)):
            if value is not None:
                scoring[key] = value
        for i, (query, subject) in enumerate(pairs):
            obj = {"op": "align", "id": i, "req": request_ids[i],
                   "query": str(query), "subject": str(subject),
                   **scoring}
            if threshold is not None:
                obj["threshold"] = threshold
            if timeout_ms is not None:
                obj["timeout_ms"] = timeout_ms
            if priority is not None:
                obj["priority"] = priority
            self._send(obj)
        self._flush()
        return [self._recv() for _ in pairs]

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Score FASTA pairs against a running alignment "
                    "server (TSV to stdout)",
    )
    parser.add_argument("queries", help="FASTA file of query sequences")
    parser.add_argument("subjects", help="FASTA file of subjects")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--all-vs-all", action="store_true",
                        help="cross every query with every subject")
    parser.add_argument("--threshold", "-t", type=int, default=None,
                        help="also report pass/fail against this tau")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="per-request dispatch deadline")
    parser.add_argument("--priority", type=int, default=None,
                        help="priority class (higher drains first; "
                             "server default 0)")
    parser.add_argument("--match", type=int, default=2)
    parser.add_argument("--mismatch", type=int, default=1)
    parser.add_argument("--gap", type=int, default=1)
    parser.add_argument("--alphabet", choices=("dna", "protein"),
                        default="dna",
                        help="sequence alphabet (protein selects "
                             "substitution-matrix Gotoh scoring)")
    parser.add_argument("--matrix", default=None,
                        help="substitution matrix name for protein "
                             "(default blosum62)")
    parser.add_argument("--gap-open", type=int, default=None,
                        help="affine gap-open cost (protein default 11; "
                             "enables affine gaps for DNA)")
    parser.add_argument("--gap-extend", type=int, default=None,
                        help="affine gap-extend cost (default 1)")
    parser.add_argument("--ambiguous", default="strict",
                        choices=("strict", "replace", "mask", "skip"),
                        help="FASTA ambiguity-code policy")
    parser.add_argument("--stats", action="store_true",
                        help="print server stats to stderr afterwards")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: stream pairs to a server, print TSV scores."""
    from ..index.fasta import read_fasta

    args = _build_parser().parse_args(argv)
    queries = read_fasta(args.queries, ambiguous=args.ambiguous,
                         alphabet=args.alphabet)
    subjects = read_fasta(args.subjects, ambiguous=args.ambiguous,
                          alphabet=args.alphabet)
    if args.all_vs_all:
        index_pairs = [(a, b) for a in range(len(queries))
                       for b in range(len(subjects))]
    else:
        if len(queries) != len(subjects):
            raise SystemExit(
                f"error: {len(queries)} queries vs {len(subjects)} "
                "subjects; pairwise mode needs equal counts "
                "(or pass --all-vs-all)"
            )
        index_pairs = list(zip(range(len(queries)),
                               range(len(subjects))))
    try:
        client = ServeClient(args.host, args.port)
    except OSError as exc:
        raise SystemExit(
            f"error: cannot reach {args.host}:{args.port} ({exc}); "
            "is 'python -m repro serve' running?"
        )
    with client:
        responses = client.align_many(
            [(queries[a].sequence, subjects[b].sequence)
             for a, b in index_pairs],
            match=args.match, mismatch=args.mismatch, gap=args.gap,
            alphabet=None if args.alphabet == "dna" else args.alphabet,
            matrix=args.matrix, gap_open=args.gap_open,
            gap_extend=args.gap_extend,
            threshold=args.threshold, timeout_ms=args.timeout_ms,
            priority=args.priority,
        )
        if args.stats:
            print(json.dumps(client.stats(), indent=2), file=sys.stderr)
    header = "query\tsubject\tscore"
    if args.threshold is not None:
        header += "\tpassed"
    print(header)
    failures = 0
    for (a, b), resp in zip(index_pairs, responses):
        if not resp.get("ok"):
            failures += 1
            print(f"{queries[a].id}\t{subjects[b].id}\t"
                  f"ERROR:{resp.get('kind', 'error')}")
            continue
        row = f"{queries[a].id}\t{subjects[b].id}\t{resp['score']}"
        if args.threshold is not None:
            row += f"\t{'yes' if resp['passed'] else 'no'}"
        print(row)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
