import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from hyperline import (
    Hypergraph,
    HypergraphParseError,
    emit,
    parse_path,
    parse_text,
    power_hypergraph,
)
from hyperline.cli import main

import helpers
import strategies


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def same_up_to_label_order(a, b):
    return set(a.labels) == set(b.labels) and sorted(
        tuple(sorted(e)) for e in a.edge_label_sets()
    ) == sorted(tuple(sorted(e)) for e in b.edge_label_sets())


def test_parse_trio(trio):
    assert parse_text(helpers.TRIO_TEXT) == trio


def test_parse_comments_and_blanks():
    h = parse_text("a b\n\n# full comment line\nb c  # trailing comment\n")
    assert h.labels == ("a", "b", "c")
    assert h.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text, labels, edges",
    [
        ("a b # c d\nc d\n", ("a", "b", "c", "d"), ((0, 1), (2, 3))),
        (
            "v#2 a\na b\nc e #x y\nc d",
            ("v#2", "a", "b", "c", "e", "d"),
            ((0, 1), (1, 2), (3, 4), (3, 5)),
        ),
        ("# only\na b\n  # indented\nb c\n", ("a", "b", "c"), ((0, 1), (1, 2))),
        ("a b a\nb c\n", ("a", "b", "c"), ((0, 1), (1, 2))),
        ("c d\nb c\na b\n", ("c", "d", "b", "a"), ((0, 1), (0, 2), (2, 3))),
    ],
    ids=["hash-mid-line", "hash-in-label", "comment-only", "repeat-in-line", "first-seen"],
)
def test_parse_tokens_comments_and_label_numbering(text, labels, edges):
    h = parse_text(text)
    assert (h.labels, h.edges) == (labels, edges)


def parse_by_constructor(text):
    """The edge-per-line format, comments aside, read into the public
    constructor, which normalises every edge itself."""
    index = {}
    edges = [
        [index.setdefault(tok, len(index)) for tok in line.split()]
        for line in text.splitlines()
        if line.split()
    ]
    return Hypergraph(list(index), edges)


def test_parse_text_equals_the_public_constructor(corpus):
    rng = random.Random(0)
    for h in corpus + helpers.small_simple_hypergraphs():
        # each edge's labels shuffled, one of them repeated
        lines = []
        for e in h.edge_label_sets():
            tokens = [*e, rng.choice(e)]
            rng.shuffle(tokens)
            lines.append(" ".join(tokens))
        text = "\n".join(lines) + "\n"
        parsed = parse_text(text)
        assert parsed == parse_by_constructor(text)
        assert type(parsed) is Hypergraph
        assert all(type(label) is str for label in parsed.labels)
        assert all(type(e) is tuple for e in parsed.edges)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# c\na b\n# c\nb a # x\n", "duplicate hyperedge (line 2, line 4)"),
        ("a a\nb c\n", "cardinality-one hyperedge at line 1"),
        (
            "x y z\n# c\nx y\nx y z\n",
            "duplicate hyperedge (line 1, line 4); "
            "hyperedge at line 3 is contained in hyperedge at line 1; "
            "hyperedge at line 3 is contained in hyperedge at line 4",
        ),
    ],
)
def test_parse_errors_count_comment_and_blank_lines(text, message):
    with pytest.raises(HypergraphParseError) as err:
        parse_text(text)
    assert str(err.value) == f"<string>: {message}"


def test_parse_cardinality_one_reports_line():
    with pytest.raises(HypergraphParseError, match="cardinality-one hyperedge at line 1"):
        parse_text("1\n")


def test_parse_nested_reports_lines():
    with pytest.raises(HypergraphParseError, match="line 1 is contained in hyperedge at line 3"):
        parse_text("1 2\n# spacer\n1 2 3\n")


def test_parse_duplicate():
    with pytest.raises(HypergraphParseError, match="duplicate"):
        parse_text("a b\nb a\n")


def test_parse_duplicate_reports_lines_across_a_comment():
    with pytest.raises(HypergraphParseError) as err:
        parse_text("a b\n# c\nb a\n")
    assert str(err.value) == "<string>: duplicate hyperedge (line 1, line 3)"


def test_parse_reports_every_error_in_validate_order(tmp_path):
    path = write(tmp_path, "bad.txt", "x\na b\nb a\na b c\n")
    with pytest.raises(HypergraphParseError) as err:
        parse_path(path)
    assert str(err.value) == f"{path}: " + "; ".join(
        [
            "cardinality-one hyperedge at line 1",
            "duplicate hyperedge (line 2, line 3)",
            "hyperedge at line 2 is contained in hyperedge at line 4",
            "hyperedge at line 3 is contained in hyperedge at line 4",
        ]
    )


def test_parse_path_skips_a_byte_order_mark(tmp_path):
    text = "a b\nb c\nc a\n"
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    h = parse_path(path)
    assert h == parse_text(text)
    assert h.n == 3 and h.degrees == (2, 2, 2)


def test_emit_round_trip(trio):
    assert parse_text(emit(trio)) == trio


def test_emit_round_trip_power_labels():
    powered = power_hypergraph(helpers.path(4), 2, 5)
    again = parse_text(emit(powered))
    assert again.n == powered.n
    assert same_up_to_label_order(again, powered)


def test_emit_rejects_unwritable_labels():
    from hyperline import Hypergraph

    with pytest.raises(ValueError):
        emit(Hypergraph(["a b", "c"], [[0, 1]]))
    with pytest.raises(ValueError):
        emit(Hypergraph(["#a", "c"], [[0, 1]]))


def test_emit_rejects_isolated_vertices():
    from hyperline import Hypergraph

    # one edge per line: "a b" alone would parse back without "c"
    with pytest.raises(ValueError, match="isolated vertex 'c'"):
        emit(Hypergraph(["a", "b", "c"], [[0, 1]]))
    # the lowest isolated index is named, not the last
    with pytest.raises(ValueError, match="isolated vertex 'x'"):
        emit(Hypergraph(["a", "x", "y", "b"], [[0, 3]]))


def test_emit_rejects_empty_edges():
    from hyperline import Hypergraph

    # a blank line is skipped on reading, so the edge would be lost
    with pytest.raises(ValueError, match="empty edge 1"):
        emit(Hypergraph(["a", "b", "c"], [[0, 1], [], [1, 2]]))


def test_emit_rejects_repeated_labels():
    from hyperline import Hypergraph

    # written out, the two "b" vertices would parse back as one
    with pytest.raises(ValueError, match="repeated label 'b'"):
        emit(Hypergraph(["a", "b", "c", "b"], [[0, 1], [2, 3]]))


def test_emit_writes_a_non_simple_hypergraph_that_does_not_parse_back():
    from hyperline import Hypergraph

    # emit does not validate; the round trip holds only for simple inputs
    text = emit(Hypergraph(["a", "b"], [[0, 1], [0, 1]]))
    assert text == "a b\na b\n"
    with pytest.raises(HypergraphParseError, match="duplicate"):
        parse_text(text)


@settings(deadline=None, max_examples=50)
@given(strategies.hypergraphs())
def test_round_trip_random(h):
    assert same_up_to_label_order(parse_text(emit(h)), h)


def test_round_trip_keeps_edge_label_sets_on_every_small_hypergraph(small_simple):
    # emit refuses an isolated vertex; the parser numbers labels by first
    # appearance, so the whole value comes back equal only for some
    simple = [h for h in small_simple if all(h.degrees)]
    same = 0
    for h in simple:
        again = parse_text(emit(h))
        assert list(map(set, again.edge_label_sets())) == list(map(set, h.edge_label_sets()))
        same += again == h
    assert (len(simple), same) == (6491, 1028)


def test_cli_info_text(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    for expected in ("n: 5", "m: 3", "rank: 3", "corank: 3", "zagreb_index: 17",
                     "connected: True", "uniform: 3", "linear: False"):
        assert expected in out


def test_cli_info_json(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["info", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 5 and data["m"] == 3
    assert data["degrees"] == [2, 1, 2, 2, 2]
    assert (data["max_degree"], data["min_degree"]) == (2, 1)
    assert data["average_degree"] == pytest.approx(9 / 5)
    assert data["zagreb_index"] == 17
    assert data["collar"] is False


def test_cli_info_empty_file(tmp_path, capsys):
    # the same message as `line`, `check`, `spectrum` and `power` print
    path = write(tmp_path, "empty.hg", "")
    assert main(["info", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no hyperedges\n"


def test_cli_info_collar_and_disconnected(tmp_path, capsys):
    c4 = write(tmp_path, "c4.hg", emit(helpers.cycle(4)))
    assert main(["info", c4, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["collar"] is True
    dis = write(tmp_path, "dis.hg", "a b\nc d\n")
    assert main(["info", dis]) == 0
    out = capsys.readouterr().out
    assert "connected: False" in out
    assert "warning" in out


def test_cli_line_edgelist(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["line", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1 1", "0 2 1", "1 2 2"]
    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    assert main(["line", p4]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1 1", "1 2 1"]
    dis = write(tmp_path, "dis.hg", "a b\nc d\n")
    assert main(["line", dis]) == 0
    assert capsys.readouterr().out == ""


def test_cli_line_matrix_and_json(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["line", path, "--format", "matrix"]) == 0
    assert capsys.readouterr().out == "3 3\n0 1 1\n1 0 2\n1 2 0\n"
    assert main(["line", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 3
    assert {"u": 1, "v": 2, "multiplicity": 2} in data["edges"]
    assert data["vertices"][0]["edge"] == ["1", "2", "3"]


def test_cli_spectrum_line_adjacency(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["spectrum", path, "--matrix", "line-adjacency"]) == 0
    data = json.loads(capsys.readouterr().out)
    values = [e["value"] for e in data["eigenvalues"]]
    assert values == pytest.approx([2.7320508, -0.7320508, -2.0], abs=1e-6)


def test_cli_spectrum_signless_laplacian(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["spectrum", path, "--matrix", "signless-laplacian"]) == 0
    data = json.loads(capsys.readouterr().out)
    pairs = [(e["value"], e["multiplicity"]) for e in data["eigenvalues"]]
    assert [p[1] for p in pairs] == [1, 1, 1, 2]
    assert [p[0] for p in pairs] == pytest.approx(
        [5.7320508, 2.2679491, 1.0, 0.0], abs=1e-6
    )
    single = write(tmp_path, "single.hg", "a b\n")
    assert main(["spectrum", single, "--matrix", "signless-laplacian"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [e["value"] for e in data["eigenvalues"]] == pytest.approx([2.0, 0.0])


def test_cli_check_trio(tmp_path, capsys):
    path = write(tmp_path, "trio.hg", helpers.TRIO_TEXT)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_cli_check_collar3_entry(tmp_path, capsys, collar3):
    h, _ = collar3
    path = write(tmp_path, "collar.hg", emit(h))
    assert main(["check", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    byname = {e["name"]: e for e in data["checks"]}
    assert byname["collar-minus-k-eigenvalue"]["passed"] is True
    assert byname["collar-minus-k-eigenvalue"]["details"]["k"] == 3


def test_cli_check_exit_codes_on_generator_outputs(tmp_path, capsys):
    for seed in range(0, 40):
        assert main(["generate", "--n", "6", "--m", "4", "--max-card", "4",
                     "--seed", str(seed)]) == 0
        text = capsys.readouterr().out
        path = write(tmp_path, f"g{seed}.hg", text)
        assert main(["check", path]) == 0
        capsys.readouterr()


def test_cli_power_emit_and_parse(tmp_path, capsys):
    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    assert main(["power", p4, "-t", "2", "-k", "5"]) == 0
    powered = parse_text(capsys.readouterr().out)
    assert powered.n == 11 and powered.m == 3


def test_cli_power_spectrum_both(tmp_path, capsys):
    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    assert main(["power", p4, "-t", "2", "-k", "5", "--spectrum", "both"]) == 0
    data = json.loads(capsys.readouterr().out)

    def flat(spec):
        return [
            e["value"] for e in spec["eigenvalues"] for _ in range(e["multiplicity"])
        ]

    assert flat(data["formula"]) == pytest.approx(flat(data["direct"]), abs=1e-7)


def test_cli_power_usage_error(tmp_path, capsys):
    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    assert main(["power", p4, "-t", "2", "-k", "3"]) == 2


def spectrum_values(spec):
    return [e["value"] for e in spec["eigenvalues"] for _ in range(e["multiplicity"])]


def power_args(path, spectrum):
    return ["power", path, "-t", "1", "-k", "3", "--uniform-pad", "--spectrum", spectrum]


def test_cli_power_uniform_pad_on_non_uniform_base(tmp_path, capsys):
    # the formula pads "c d" and "d e" by k - rt = 0, --uniform-pad by 1,
    # so only the direct spectrum describes the padded power
    mixed = write(tmp_path, "mixed.hg", "a b c\nc d\nd e\n")
    for spectrum in ("formula", "both"):
        assert main(power_args(mixed, spectrum)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    assert main(power_args(mixed, "direct")) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["direct"]
    assert len(spectrum_values(data["direct"])) == 7  # 5 vertices + 2 pads


def test_cli_power_uniform_pad_refuses_k_below_rt_first(tmp_path, capsys):
    # a bad k is reported before the missing --uniform-pad formula
    mixed = write(tmp_path, "mixed.hg", "a b c\nc d\nd e\n")
    args = ["power", mixed, "-t", "1", "-k", "2", "--uniform-pad", "--spectrum"]
    assert main([*args, "formula"]) == 2
    assert capsys.readouterr().err == "error: k < rt: k=2, r*t=3\n"


def test_cli_power_formula_builds_no_power(tmp_path, capsys, monkeypatch):
    import hyperline.cli as cli

    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    args = ["power", p4, "-t", "2", "-k", "5", "--spectrum", "formula"]
    assert main(args) == 0
    expected = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("the formula needs no power")

    monkeypatch.setattr(cli, "power_hypergraph", refuse)
    assert main(args) == 0
    assert capsys.readouterr() == expected


def test_cli_power_uniform_pad_both_on_uniform_base(tmp_path, capsys):
    p4 = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    args = ["power", p4, "-t", "2", "-k", "5", "--uniform-pad", "--spectrum", "both"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    formula, direct = spectrum_values(data["formula"]), spectrum_values(data["direct"])
    assert formula == pytest.approx(direct, abs=1e-7)


def test_cli_collar_witness(tmp_path, capsys):
    c4 = write(tmp_path, "c4.hg", emit(helpers.cycle(4)))
    assert main(["collar", c4]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edges"] == [0, 1, 2, 3]
    assert data["certificate"] == [1, -1, 1, -1]
    assert data["connected"] is True
    c3 = write(tmp_path, "c3.hg", emit(helpers.cycle(3)))
    assert main(["collar", c3]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_cli_collar_search(tmp_path, capsys):
    from hyperline import Hypergraph

    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]])
    path = write(tmp_path, "pend.hg", emit(h))
    assert main(["collar", path]) == 0
    assert capsys.readouterr().out.strip() == "none"  # pendant vertex has degree 1
    assert main(["collar", path, "--search"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edges"] == [0, 1, 2, 3]
    assert data["certificate"] == [1, -1, 1, -1, 0]


def test_cli_collar_search_full_rank_beyond_default_cap(tmp_path, capsys):
    path = write(tmp_path, "path.hg", emit(helpers.path(26)))  # 25 edges, rank 25
    assert main(["collar", path, "--search"]) == 0
    assert capsys.readouterr().out == "none\n"


def test_cli_collar_search_planted_beyond_default_cap(tmp_path, capsys):
    from hyperline import Hypergraph

    body = [(i, i + 1) for i in range(21)]  # a path: B of full column rank
    c4 = [(21, 22), (22, 23), (23, 24), (24, 21)]
    path = write(tmp_path, "planted.hg", emit(Hypergraph.from_edges(body + c4, n=25)))
    assert main(["collar", path, "--search"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["edges"] == [21, 22, 23, 24]
    assert data["certificate"] == [0] * 21 + [1, -1, 1, -1]
    assert data["connected"] is True


def test_cli_collar_search_on_a_long_cycle(tmp_path, capsys):
    path = write(tmp_path, "c1200.hg", emit(helpers.cycle(1200)))
    assert main(["collar", path]) == 0
    recognised = capsys.readouterr()
    assert main(["collar", path, "--search", "--max-edges", "5000"]) == 0
    assert capsys.readouterr() == recognised
    assert json.loads(recognised.out)["certificate"] == [1, -1] * 600


def test_cli_collar_search_cap_on_kernel_support(tmp_path, capsys):
    path = write(tmp_path, "k63.hg", emit(helpers.complete_uniform(6, 3)))
    assert main(["collar", path, "--search", "--max-edges", "10"]) == 2
    assert "exceeds search cap (10 edges)" in capsys.readouterr().err
    assert main(["collar", path, "--search"]) == 0  # support of 20 edges
    assert json.loads(capsys.readouterr().out)["edges"] == [0, 1, 18, 19]


def _collar_calls(tmp_path, hosts):
    for k, h in enumerate(hosts):
        path = write(tmp_path, f"host{k}.hg", emit(h))
        yield h, ["collar", path]
        yield h, ["collar", path, "--search"]


def _collar_hosts():
    from hyperline import find_collar_subhypergraph, generate_hypergraph

    draws = [generate_hypergraph(n, n, 3, seed) for n in (8, 10, 12) for seed in range(16)]
    return [helpers.interleaved_four_cycles(), helpers.collar3()[0]] + [
        h for h in draws if find_collar_subhypergraph(h) is not None
    ]


def test_cli_collar_builds_no_line(tmp_path, capsys, monkeypatch):
    from hyperline import Hypergraph

    calls = [argv for _, argv in _collar_calls(tmp_path, _collar_hosts()[:3])]
    expected = []
    for argv in calls:
        assert main(argv) == 0
        expected.append(capsys.readouterr())

    def refuse(self):
        raise AssertionError("a collar needs no line multigraph")

    monkeypatch.setattr(Hypergraph, "line", property(refuse))
    for argv, out in zip(calls, expected):
        assert main(argv) == 0
        assert capsys.readouterr() == out


def test_cli_collar_connected_matches_the_line_multigraph(tmp_path, capsys):
    import numpy as np

    from hyperline import multigraph_is_connected

    hosts = _collar_hosts()
    assert len(hosts) >= 10
    seen = set()
    for h, argv in _collar_calls(tmp_path, hosts):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if out == "none\n":
            continue
        data = json.loads(out)
        support = data["edges"]
        reference = multigraph_is_connected(h.line[np.ix_(support, support)])
        assert data["connected"] is reference
        seen.add(reference)
    # interleaved_four_cycles' recognised witness is the two disjoint cycles
    assert seen == {True, False}


def test_cli_generate_deterministic(capsys):
    assert main(["generate", "--n", "6", "--m", "4", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--n", "6", "--m", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    h = parse_text(first)
    assert h.n == 6 and h.m == 4


def test_cli_generate_single_edge(capsys):
    assert main(["generate", "--n", "2", "--m", "1", "--seed", "0"]) == 0
    assert capsys.readouterr().out == "1 2\n"


def test_cli_generate_infeasible(capsys):
    assert main(["generate", "--n", "3", "--m", "7", "--max-card", "3"]) == 2


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.hg", "1\n")
    assert main(["info", bad]) == 2
    assert "cardinality-one" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["info", "/nonexistent/x.hg"]) == 2


def test_cli_directory_path(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["power", "x.hg", "-t", "2"]) == 2  # missing -k


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    ("between", "code", "again"),
    [
        (
            ["power", "MIXED", "-t", "2", "-k", "8", "--uniform-pad"],
            0,
            ["power", "MIXED", "-t", "2", "-k", "8"],
        ),
        (
            ["collar", "K63", "--search", "--max-edges", "3"],
            2,
            ["collar", "K63", "--search"],
        ),
        (["check", "MIXED", "--json"], 0, ["check", "MIXED"]),
        (["line", "MIXED", "--format", "matrix"], 0, ["line", "MIXED"]),
        (["check"], 2, ["check", "MIXED"]),
        (["power", "--help"], 0, ["--help"]),
        (["--help"], 0, ["power", "--help"]),
    ],
)
def test_cli_shared_parser_carries_nothing_between_calls(
    tmp_path, capsys, between, code, again
):
    # `main` reuses one parser, so a call must not see its predecessor's
    # options: `again`, run before and after `between`, prints the same
    files = {
        "MIXED": write(tmp_path, "mixed.hg", "a b c\nc d\nd e\n"),
        "K63": write(tmp_path, "k63.hg", emit(helpers.complete_uniform(6, 3))),
    }
    between = [files.get(a, a) for a in between]
    again = [files.get(a, a) for a in again]
    alone = run_main(again, capsys)
    other = run_main(between, capsys)
    assert other[0] == code
    assert other != alone  # the pair tells the two calls apart
    assert run_main(again, capsys) == alone


def test_cli_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write(tmp_path, "p4.hg", emit(helpers.path(4)))
    assert main(["info", path]) == 0
    assert main(["line", path, "--format", "json"]) == 0
    assert main(["generate", "--n", "6", "--m", "4", "--seed", "1"]) == 0
    capsys.readouterr()
    assert built == []


def test_cli_import_loads_no_heavy_modules():
    # sympy and fractions are test-only; logging is imported lazily by the
    # collar search and numpy on first use (hyperline._numpy); the value
    # types are NamedTuple records, since dataclasses pulls in inspect, so
    # that startup stays flat
    heavy = {"sympy", "fractions", "logging", "numpy", "dataclasses", "inspect"}
    probe = f"import sys, hyperline.cli; print(sorted(set(sys.modules) & {heavy!r}))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def fresh_python(code, *args):
    """The stdout of `code` run with `args` in a new interpreter that imports
    hyperline from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_loads_every_module():
    # a tracer from outside (benchmarks/tracer.py) wraps only loaded modules,
    # so a lazily loaded layer would drop out of the per-layer metrics
    modules = sorted(
        "hyperline" if p.stem == "__init__" else f"hyperline.{p.stem}"
        for p in (Path(__file__).resolve().parent.parent / "src" / "hyperline").glob("*.py")
    )
    probe = "import json, sys, hyperline.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(fresh_python(probe)))
    assert "hyperline.cli" in modules
    assert [m for m in modules if m not in loaded] == []


NUMPY_AFTER_MAIN = """
import contextlib, io, json, sys
from hyperline.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_cli_loads_numpy_only_to_build_a_matrix(tmp_path):
    path = write(tmp_path, "collar3.hg", emit(helpers.collar3()[0]))
    bad = write(tmp_path, "bad.hg", "1\n")
    # in one process, in this order: numpy stays out until `check`
    calls = [
        ["generate", "--n", "40", "--m", "30", "--seed", "1"],
        ["info", path],
        ["power", path, "-t", "2", "-k", "6"],
        ["info", bad],
        ["--help"],
        ["collar", path, "--search"],
        ["check", path],
    ]
    seen = json.loads(fresh_python(NUMPY_AFTER_MAIN, json.dumps(calls)))
    assert seen == [
        [0, False], [0, False], [0, False], [2, False], [0, False], [0, False], [0, True]
    ]


def test_numpy_shim_caches_what_it_hands_out():
    import numpy

    from hyperline import _numpy

    vars(_numpy).pop("zeros", None)
    assert _numpy.zeros is numpy.zeros
    assert "zeros" in vars(_numpy)
    assert _numpy.linalg is numpy.linalg
    with pytest.raises(AttributeError):
        _numpy.no_such_numpy_name


def test_cli_closed_pipe_exits_quietly(tmp_path):
    path = write(tmp_path, "big.hg", emit(helpers.circulant(300, 4)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperline.cli", "line", path, "--format", "matrix"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # 180 kB of rows, more than a pipe holds, so a write fails after the close
    assert proc.stdout.readline() == b"300 300\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert code == 141
