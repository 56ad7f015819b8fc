"""Hypergraph text format: one edge per line.

Each non-blank line lists the vertex labels of one hyperedge, separated by
whitespace. A token beginning with '#' starts a comment running to the end
of the line (only token-initial '#' counts, so labels like "v#2" produced
by the power construction survive a round trip). Labels are mapped to
indices in first-appearance order; edges keep line order.
"""

from __future__ import annotations

import os

from .core import Hypergraph, validate


class HypergraphParseError(ValueError):
    pass


def parse_text(text: str, source: str = "<string>") -> Hypergraph:
    """Parse the edge-per-line format, rejecting structurally invalid input.

    Each line is split once, and searched for a comment token only when
    it holds a '#'. Labels are numbered in first-appearance order, so the
    label list is the numbering dict's keys. Those are strings and the
    indices are in range, so `Hypergraph._make` takes the edges as sorted
    here. Violations (singleton edges, duplicates, nested edges) are
    reported with the source line numbers of the offending edges.
    """
    index: dict[str, int] = {}
    edges: list[tuple[int, ...]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if "#" in raw:
            cut = next((i for i, tok in enumerate(tokens) if tok[0] == "#"), None)
            tokens = tokens[:cut]
        if tokens:
            ids = {index.setdefault(tok, len(index)) for tok in tokens}
            edges.append(tuple(sorted(ids)))
            edge_lines.append(lineno)
    h = Hypergraph._make((tuple(index), tuple(edges)))
    problems = validate(h)
    if problems:
        msgs = []
        for v in problems:
            where = ", ".join(f"line {edge_lines[i]}" for i in v.edges)
            if v.rule == "cardinality-one":
                msgs.append(f"cardinality-one hyperedge at {where}")
            elif v.rule == "duplicate-edge":
                msgs.append(f"duplicate hyperedge ({where})")
            else:
                a, b = v.edges
                msgs.append(
                    f"hyperedge at line {edge_lines[a]} is contained in "
                    f"hyperedge at line {edge_lines[b]}"
                )
        raise HypergraphParseError(f"{source}: " + "; ".join(msgs))
    return h


def parse_path(path: str | os.PathLike) -> Hypergraph:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_text(fh.read(), source=str(path))


def emit(h: Hypergraph) -> str:
    """Serialize back to the edge-per-line format, which has no way to
    write a vertex that lies in no edge, an empty edge, nor two vertices
    with one label. The structure is not validated, so the output parses
    back only when `h` is simple: `parse_text` refuses what `validate`
    reports, such as a duplicate edge."""
    seen = set()
    for label in h.labels:
        if not label or label.split() != [label] or label.startswith("#"):
            raise ValueError(f"label {label!r} cannot be written to the text format")
        if label in seen:
            raise ValueError(f"repeated label {label!r} cannot be written to the text format")
        seen.add(label)
    covered = set().union(*h.edges)
    if len(covered) < h.n:
        label = h.labels[min(set(range(h.n)) - covered)]
        raise ValueError(f"isolated vertex {label!r} cannot be written to the text format")
    if () in h.edges:
        raise ValueError(
            f"empty edge {h.edges.index(())} cannot be written to the text format"
        )
    labels = h.labels
    lines = [" ".join([labels[v] for v in e]) for e in h.edges]
    return "\n".join(lines) + "\n"
