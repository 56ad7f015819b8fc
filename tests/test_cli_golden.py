"""The CLI's exact output, pinned by sha256 digests.

Every subcommand below runs in-process through `cli.main` on each
`demos/data/*.hg` file; one digest covers each call's stdout and exit code,
so a refactor that changes any printed byte fails here. Subcommands that
print eigenvalues (`spectrum`, `check --json`, `power --spectrum`) are left
out of that digest: their last digits depend on the LAPACK build. A second
digest covers `check --json` with every float rounded to 6 decimals. A third
covers `line` and `info --json` on two larger instances whose line
multiplicities exceed 1, a fourth covers `collar` and `collar --search`,
stdout and stderr, on four small instances, and a fifth covers `generate` at
the benchmark's sizes.
"""

import hashlib
import json
from pathlib import Path

from hyperline import Hypergraph, emit
from hyperline.cli import main

import helpers

DATA = sorted((Path(__file__).resolve().parent.parent / "demos" / "data").glob("*.hg"))

SUBCOMMANDS = (
    ("info", "--json"),
    ("line",),
    ("line", "--format", "matrix"),
    ("line", "--format", "json"),
    ("collar",),
    ("collar", "--search"),
    ("power", "-t", "2", "-k", "10"),
    ("check",),
)


def test_cli_output_on_demo_data_is_pinned(capsys):
    digest = hashlib.sha256()
    for path in DATA:
        for sub in SUBCOMMANDS:
            code = main([sub[0], str(path), *sub[1:]])
            out = capsys.readouterr().out
            digest.update(f"{path.name} {' '.join(sub)} -> {code}\n{out}".encode())
    assert [p.name for p in DATA] == ["c4.hg", "collar3.hg", "p4.hg", "trio.hg"]
    assert digest.hexdigest() == (
        "3214beb7992fe2e1deceaa072e7c955fea055ab70dbda7b257ce7205e2464e74"
    )


def _rounded(value):
    """JSON data with each float rounded to 6 decimals and -0.0 read as 0.0."""
    if isinstance(value, float):
        return round(value, 6) + 0.0  # -0.0 + 0.0 is 0.0
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_check_json_on_demo_data_is_pinned(capsys):
    digest = hashlib.sha256()
    for path in DATA:
        for tol in ("1e-9", "0.1"):
            code = main(["check", str(path), "--json", "--tol", tol])
            data = _rounded(json.loads(capsys.readouterr().out))
            digest.update(f"{path.name} --tol {tol} -> {code}\n{json.dumps(data)}\n".encode())
    assert digest.hexdigest() == (
        "4d982201b210c7daea175a47972457b9f16d86d7adc6f15a803b173265b74b46"
    )


def test_line_output_at_size_is_pinned(capsys, tmp_path):
    instances = {
        "circulant60_4.hg": helpers.circulant(60, 4),
        "complete7_3.hg": helpers.complete_uniform(7, 3),
    }
    digest = hashlib.sha256()
    for name, h in instances.items():
        path = tmp_path / name
        path.write_text(emit(h))
        for sub in SUBCOMMANDS[:4]:  # info --json, then line in its three formats
            code = main([sub[0], str(path), *sub[1:]])
            out = capsys.readouterr().out
            digest.update(f"{name} {' '.join(sub)} -> {code}\n{out}".encode())
    assert digest.hexdigest() == (
        "a9e9dec705b58cbd8869229dfa4f8631b5eeae4cc62004e80905d3de6cbfa5e9"
    )


def test_collar_output_on_small_instances_is_pinned(capsys, tmp_path):
    # the interleaved 4-cycles' first witness is disconnected, so this also
    # pins a `"connected": false`
    instances = {
        "interleaved_four_cycles.hg": helpers.interleaved_four_cycles(),
        "complete5.hg": helpers.complete_graph(5),
        "complete6_3.hg": helpers.complete_uniform(6, 3),
        "c4_pendant.hg": Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]]),
    }
    digest = hashlib.sha256()
    for name, h in instances.items():
        path = tmp_path / name
        path.write_text(emit(h))
        for sub in (("collar",), ("collar", "--search")):
            code = main([sub[0], str(path), *sub[1:]])
            captured = capsys.readouterr()
            digest.update(
                f"{name} {' '.join(sub)} -> {code}\n{captured.out}{captured.err}".encode()
            )
    assert digest.hexdigest() == (
        "ded5f5e9f181852932c7d159d7ea772262f6b2bfdb2685ed68d934150f5939c4"
    )


def test_generate_output_at_benchmark_sizes_is_pinned(capsys):
    digest = hashlib.sha256()
    for n, m, seed in helpers.BENCHMARK_SIZES:
        argv = ["generate", "--n", str(n), "--m", str(m), "--max-card", "4", "--seed", str(seed)]
        code = main(argv)
        digest.update(f"{' '.join(argv)} -> {code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == (
        "d036b4b8ee92c660c637269d9ea481ed12f0f71732b0d4a14cf05828452661f4"
    )
