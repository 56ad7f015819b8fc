"""Quick self-test of the benchmark and of its output checks.

    python3 benchmarks/selftest.py

Runs each workload once on its reduced input list (two passes), and requires
every output to pass its check with no failed operation. Requires two traced
runs of the same seed to give identical call counts. Then shows that each
check rejects a corrupted copy of a real output: a witness colour flipped,
an eigenvalue moved, a spectral radius moved, a generated edge duplicated,
and "none" for an instance with a planted collar. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run as bench
from inputs import WORKLOADS
from verify import CHECKS, CheckFailed

SEED = 7


def rejection(workload: str, op, text: str) -> str | None:
    """The check's message for `text`, or None when the check accepts it."""
    try:
        CHECKS[workload](op, text)
    except CheckFailed as exc:
        return str(exc)
    return None


def corrupted(workload: str, op, text: str):
    """(what was changed, corrupted text) pairs for one valid output."""
    if workload == "collar-search" and text.strip() != "none":
        out = json.loads(text)
        first = out["edges"][0]
        out["coloring"][str(first)] = 3 - out["coloring"][str(first)]
        out["certificate"][first] = -out["certificate"][first]
        yield "a witness colour flipped", json.dumps(out)
        yield "none for a planted collar", "none\n"
    elif workload == "power-spectrum":
        out = json.loads(text)
        out["direct"]["eigenvalues"][0]["value"] += 0.5
        yield "an eigenvalue moved", json.dumps(out)
    elif workload == "check-large":
        out = json.loads(text)
        for check in out["checks"]:
            if check["name"] == "spectral-radius-sandwich":
                check["details"]["rho_q"] += 1e-3
        yield "rho_q moved", json.dumps(out)
    elif workload == "generate":
        lines = text.splitlines()
        yield "a generated edge duplicated", "\n".join(lines[:-1] + lines[:1]) + "\n"


def main() -> int:
    failures = []
    rejected = []
    for workload in WORKLOADS:
        done = bench.run(workload, SEED, seconds=0, trace=False, reduced=True)
        res = done["result"]
        if not res["correct"] or res["failed"]:
            failures.append(f"{workload}: {res} {done['report']['problems']}")
        for op, texts in zip(done["ops"], done["outputs"]):
            for what, text in corrupted(workload, op, texts[0]):
                message = rejection(workload, op, text)
                if message is not None:
                    rejected.append(f"{workload}: {what} ({op.name}: {message})")
                else:
                    failures.append(f"{workload}: check accepted {what} ({op.name})")

    counts = []
    for _ in range(2):
        done = bench.run("check-large", SEED, seconds=0, trace=True, reduced=True)
        counts.append({k: v["value"] for k, v in done["result"]["metrics"].items()
                       if not k.endswith(".self_s")})
    if counts[0] != counts[1]:
        failures.append(f"traced call counts differ: {counts}")

    for line in rejected:
        print(f"rejected as it should be  {line}")
    for line in failures:
        print(f"FAIL  {line}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
