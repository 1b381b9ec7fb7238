"""Command-line front end: count / oracle / coeffs / verify / search.

Graph arguments accept three spellings:

* ``graph6:STR``             inline graph6 encoding
* ``gen:KIND:N[:P][:SEED]``  generators path | cycle | complete | random
* ``PATH``                   a file holding either edge-list text
                             (first line ``n m``) or one graph6 line

Exit code 0 means the command ran to completion, regardless of how many
mismatches were found; 1 means the consumer closed the output pipe early;
2 means an operational error (bad input, capacity guard, I/O failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice

from .coeffs import GMODES, compute_f, compute_gprime
from .errors import CapacityError, Graph6ParseError
from .fastcount import INDEX_CONVENTIONS, FastCountOptions, fast_count
from .graph import Graph, generate, parse_edge_list_text, parse_graph6
from .harness import REPORT_FORMATS, Budget, ClaimId, write_claims
from .oracle import (
    count_k_directed_matchings,
    count_k_matchings,
    count_rook_placements,
    lemma1_sum,
)


def _load_graph(spec: str) -> Graph:
    if spec.startswith("graph6:"):
        return parse_graph6(spec[len("graph6:"):])
    if spec.startswith("gen:"):
        parts = spec.split(":")
        if len(parts) < 3:
            raise ValueError(f"bad generator spec {spec!r}: expected gen:KIND:N[:P][:SEED]")
        kind = parts[1]
        n = int(parts[2])
        if kind == "random":
            if len(parts) < 4 or len(parts) > 5:
                raise ValueError(f"bad generator spec {spec!r}: expected gen:random:N:P[:SEED]")
            p = float(parts[3])
            seed = int(parts[4]) if len(parts) == 5 else 0
            return generate("random", n, p=p, seed=seed)
        if len(parts) != 3:
            raise ValueError(f"bad generator spec {spec!r}: {kind} takes no extra fields")
        return generate(kind, n)
    with open(spec, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError(f"graph file {spec} is empty")
    toks = lines[0].split()
    if len(toks) == 2 and all(t.lstrip("-").isdigit() for t in toks):
        return parse_edge_list_text(text)
    return parse_graph6(lines[0])


def _write_stdout(text: str) -> None:
    """Write text to stdout and return only once every byte is taken.

    An unbuffered stdout (PYTHONUNBUFFERED) writes straight to the raw file,
    which may take part of a large write and drop the rest silently; writing
    the remainder again makes a closed pipe raise BrokenPipeError instead.
    """
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, e.g. io.StringIO
        sys.stdout.write(text)
        return
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data) :]
    out.flush()


class _Stdout:
    """A text stream whose writes go through _write_stdout."""

    def write(self, text: str) -> None:
        _write_stdout(text)


@contextmanager
def _open_out(path: str | None):
    """The report's text stream: the file at path, or stdout when no path is given."""
    if not path:
        yield _Stdout()
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc


def _emit_json(obj) -> None:
    _write_stdout(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_count(args) -> int:
    g = _load_graph(args.graph)
    opts = FastCountOptions(args.gmode, args.index)
    res = fast_count(g, args.k, opts)
    if args.format == "json":
        _emit_json(
            {
                "n": res.n,
                "k": res.k,
                "options": {"gmode": opts.gmode, "index_convention": opts.index_convention},
                "value": str(res.value),
                "is_integral": res.is_integral,
            }
        )
    else:
        tag = "integral" if res.is_integral else "non-integral"
        print(f"{res.value} ({tag})")
    return 0


# `oracle --what` name -> its referee, called as referee(graph, k)
_ORACLES = {
    "matchings": count_k_matchings,
    "directed": count_k_directed_matchings,
    "rooks": count_rook_placements,
    "lemma1": lemma1_sum,
}


def _cmd_oracle(args) -> int:
    print(_ORACLES[args.what](_load_graph(args.graph), args.k))
    return 0


# `coeffs --what f` writes its entries this many at a time
_F_CHUNK = 4096


def _cmd_coeffs(args) -> int:
    if args.what == "g":
        row = compute_gprime(args.k, args.gmode)
        _emit_json({"k": args.k, "mode": args.gmode, "g": {str(l): str(v) for l, v in row.items()}})
        return 0
    # the bytes of _emit_json({"m": m, "f": {text: str(f), ...}}), written a
    # chunk of entries at a time, so the report's text is never whole; the
    # walk's text order is the key order of sorted JSON
    entries = (f'"{text}":"{fv}"' for text, _, fv in compute_f(args.k))
    _write_stdout('{"f":{')
    sep = ""
    while chunk := list(islice(entries, _F_CHUNK)):
        _write_stdout(sep + ",".join(chunk))
        sep = ","
    _write_stdout(f'}},"m":{args.k}}}\n')
    return 0


def _cmd_verify(args) -> int:
    claims = list(ClaimId) if args.claim == "all" else [ClaimId(args.claim)]
    budget = Budget(n_max=args.nmax, k_max=args.kmax, seed=args.seed)
    write_claims(claims, budget, args.format, lambda: _open_out(args.out))
    return 0


def _cmd_search(args) -> int:
    # the END_TO_END claim, whose guard is the search's
    write_claims([ClaimId.END_TO_END], Budget(args.nmax, args.kmax), "json", lambda: _open_out(args.out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmatch",
        description="exact-arithmetic lab for a claimed fast k-matching counting formula",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate the fast formula on one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gmode", choices=GMODES, default="corrected")
    p.add_argument("--index", choices=INDEX_CONVENTIONS, default="corrected")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="brute-force counts on one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--what", choices=list(_ORACLES), default="matchings")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("coeffs", help="dump coefficient tables as JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gmode", choices=GMODES, default="corrected")
    p.add_argument("--what", choices=["g", "f"], default="g")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run one claim suite (or all) and report")
    p.add_argument(
        "--claim",
        choices=[c.value for c in ClaimId] + ["all"],
        required=True,
    )
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive fast-vs-oracle discrepancy search")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer closed the pipe; suppress the traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, CapacityError, Graph6ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
