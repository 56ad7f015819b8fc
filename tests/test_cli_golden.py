"""The CLI's exact output on the demo data, pinned by one digest.

Every subcommand below runs in-process through `cli.main` on each
`demos/data/*.hg` file; one sha256 covers each call's stdout and exit code,
so a refactor that changes any printed byte fails here. Subcommands that
print eigenvalues (`spectrum`, `check --json`, `power --spectrum`) are left
out: their last digits depend on the LAPACK build.
"""

import hashlib
from pathlib import Path

from hyperline.cli import main

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
