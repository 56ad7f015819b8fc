"""Command-line interface.

Subcommands: info, line, spectrum, check, power, collar, generate.
Exit codes: 0 on success (all checks passing), 1 when a check fails,
2 on usage, parse or file errors, 141 when the reader of stdout closes it
early (as in `hyperline line big.hg | head -1`).

Each subparser names its handler with `set_defaults(run=...)`. `main`
reads the input file once, for every subcommand that takes one, and calls
`args.run(h, args)`; `generate` takes no file and ignores `h`. The
argument parser is built once per process, at import, and reused by every
`main` call; `build_parser` still returns a fresh one. `info`'s and
`collar`'s `connected` come from `core`'s incidence walk, with no `h.line`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _numpy as np
from .checks import run_all_checks
from .core import (
    _edges_connected,
    is_connected,
    is_uniform,
    rank_corank,
    zagreb_index,
)
from .generate import generate_hypergraph
from .io import emit, parse_path
from .power import padding, power_hypergraph
from .spectra import (
    DEFAULT_TOLERANCE,
    eigenvalues_symmetric,
    power_spectrum_formula,
    signless_spectrum,
)
from .structure import find_collar_subhypergraph, is_collar, regularity_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperline",
        description="Line multigraphs of general hypergraphs: structure and spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural summary of a hypergraph file")
    p.set_defaults(run=_cmd_info)
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("line", help="emit the line multigraph")
    p.set_defaults(run=_cmd_line)
    p.add_argument("file")
    p.add_argument(
        "--format", choices=("edgelist", "matrix", "json"), default="edgelist"
    )

    p = sub.add_parser("spectrum", help="eigenvalues of an associated matrix")
    p.set_defaults(run=_cmd_spectrum)
    p.add_argument("file")
    p.add_argument(
        "--matrix",
        choices=("line-adjacency", "signless-laplacian"),
        default="line-adjacency",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("check", help="run every applicable consistency check")
    p.set_defaults(run=_cmd_check)
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("power", help="construct a general power hypergraph")
    p.set_defaults(run=_cmd_power)
    p.add_argument("file")
    p.add_argument("-t", type=int, required=True, help="vertex expansion factor")
    p.add_argument("-k", type=int, required=True, help="target rank (k >= r*t)")
    p.add_argument("--spectrum", choices=("formula", "direct", "both"))
    p.add_argument(
        "--uniform-pad",
        action="store_true",
        help="pad each edge to exactly k vertices instead of by k - r*t",
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)

    p = sub.add_parser("collar", help="recognize or search for a collar")
    p.set_defaults(run=_cmd_collar)
    p.add_argument("file")
    p.add_argument("--search", action="store_true", help="search edge subsets")
    p.add_argument(
        "--max-edges",
        type=int,
        default=20,
        help="cap on the edges that lie in some even cover (an edge set "
        "meeting every vertex an even number of times); past it, a zero "
        "ker B answers none and any other kernel is refused",
    )

    p = sub.add_parser("generate", help="seeded random simple connected hypergraph")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-card", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_info(h, args) -> int:
    # first: it refuses a file with no edges, which has no vertices to average
    r, s = rank_corank(h)
    degs = h.degrees
    reg = regularity_report(h)
    data = {
        "n": h.n,
        "m": h.m,
        "rank": r,
        "corank": s,
        "degrees": list(degs),
        "max_degree": max(degs),
        "min_degree": min(degs),
        "average_degree": sum(degs) / h.n,
        "zagreb_index": zagreb_index(h),
        "connected": is_connected(h),
        "uniform": is_uniform(h),
        "linear": reg.linear,
        "regular": reg.regular,
        "edge_regular": reg.edge_regular,
        "skew_edge_regular": reg.skew_edge_regular,
        "collar": is_collar(h) is not None,
    }
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
        if not data["connected"]:
            print("warning: disconnected input; structural results assume connectivity")
    return 0


def _cmd_line(h, args) -> int:
    a = h.line
    # row-major, so in ascending (i, j) order
    rows, cols = np.nonzero(np.triu(a))
    pairs = zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist())
    if args.format == "edgelist":
        for i, j, mult in pairs:
            print(f"{i} {j} {mult}")
    elif args.format == "matrix":
        print(h.m, h.m)
        for row in a.tolist():
            print(*row)
    else:
        data = {
            "order": h.m,
            "vertices": [
                {"index": i, "edge": list(labels)}
                for i, labels in enumerate(h.edge_label_sets())
            ],
            "edges": [
                {"u": i, "v": j, "multiplicity": mult} for i, j, mult in pairs
            ],
        }
        print(json.dumps(data, indent=2))
    return 0


def _cmd_spectrum(h, args) -> int:
    if args.matrix == "line-adjacency":
        spec = eigenvalues_symmetric(h.line, args.tol)
    else:
        spec = signless_spectrum(h, args.tol)
    print(json.dumps(spec.to_json_dict(), indent=2))
    return 0


def _cmd_check(h, args) -> int:
    report = run_all_checks(h, args.tol)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def _cmd_power(h, args) -> int:
    padding(h, args.t, args.k)  # refuse bad t, k before any other error
    if args.spectrum is None:
        sys.stdout.write(emit(power_hypergraph(h, args.t, args.k, args.uniform_pad)))
        return 0
    out = {}
    if args.spectrum in ("formula", "both"):
        if args.uniform_pad and is_uniform(h) is None:
            # the formula pads by k - rt, which differs from --uniform-pad
            # exactly when the base is not uniform
            raise ValueError(
                "no power-spectrum formula for --uniform-pad on a non-uniform base"
            )
        out["formula"] = power_spectrum_formula(h, args.t, args.k, args.tol).to_json_dict()
    if args.spectrum in ("direct", "both"):
        powered = power_hypergraph(h, args.t, args.k, args.uniform_pad)
        out["direct"] = signless_spectrum(powered, args.tol).to_json_dict()
    print(json.dumps(out, indent=2))
    return 0


def _cmd_collar(h, args) -> int:
    if args.search:
        witness = find_collar_subhypergraph(h, max_edges=args.max_edges)
    else:
        witness = is_collar(h)
    if witness is None:
        print("none")
        return 0
    support = [i for i, s in enumerate(witness) if s]
    data = {
        "edges": support,
        "coloring": {str(i): 1 if witness[i] > 0 else 2 for i in support},
        "certificate": list(witness),
        "connected": _edges_connected(h, support),
    }
    print(json.dumps(data, indent=2))
    return 0


def _cmd_generate(_, args) -> int:
    h = generate_hypergraph(args.n, args.m, args.max_card, args.seed)
    sys.stdout.write(emit(h))
    return 0


# argparse keeps no state between parse_args calls, so one parser serves
# every `main` call in a process
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        h = parse_path(args.file) if "file" in args else None
        code = args.run(h, args)
        # inside the try, so that a reader gone before the last write is seen
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit quietly with 128 + SIGPIPE, with
        # stdout on /dev/null so that the flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
