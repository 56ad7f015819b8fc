"""Benchmark of the `hyperline` command line, one workload per run.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `hyperline` is imported from its
`src/` directory. The run

1. builds the workload's inputs from the seed (inputs.py) and writes them
   under benchmarks/out/;
2. starts one workload process (worker.py) that runs whole passes over the
   inputs for about S seconds, with a probe of the host's speed between
   calls, and between passes times `import hyperline.cli` in fresh
   interpreters;
3. checks every distinct output of every call against computations made
   here (verify.py), and that every call printed the same text each time;
4. prints a few report lines, then, as the last line, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
   with --trace 0, the per-layer metrics of a traced run with --trace 1.

The end-to-end times are scaled to a reference speed of the host: a time is
multiplied by PROBE_REFERENCE_S over the probe time measured around it. A
host whose cores are shared with others can change speed by a third within
minutes; a regression in `hyperline` slows the calls but not the probe, so
it shows in full. The report gives the plain wall-time figures beside them.

It exits with 2, printing no result, when the checkout has no `hyperline`
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

from inputs import WORKLOADS, build_ops, render
from verify import CHECKS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_GRACE_S = 150
# the probe time (worker.PROBE_STEPS steps of the reference loop) of the host
# that the end-to-end times are scaled to; about its median on the host of the
# reference figures in README.md
PROBE_REFERENCE_S = 0.010

# calls to is_connected made directly by generate_hypergraph, one per simple draw
CONNECTIVITY_TESTS = ("generate.generate_hypergraph", "core.is_connected")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_inputs(seed: int, ops, run_dir: Path) -> list[list[str]]:
    """Write each instance to a file and return the argv of every call."""
    (run_dir / "inputs").mkdir(parents=True, exist_ok=True)
    labels = random.Random(f"labels-{seed}")
    plan = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.edges is not None:
            path = run_dir / "inputs" / f"{i:02d}-{op.name}.hg"
            path.write_text(render(op.edges, labels), encoding="utf-8")
            argv = [str(path) if a == "{file}" else a for a in argv]
        plan.append(argv)
    return plan


def check_outputs(workload: str, ops, result: dict) -> list[str]:
    """Every distinct successful output checked; each call must print one text."""
    codes: dict[int, set] = {}
    for _, index, code, _, out_id, _ in result["records"]:
        codes.setdefault(index, set()).add((code, out_id))
    problems = []
    for index, texts in enumerate(result["outputs"]):
        op = ops[index]
        if len(texts) > 1:
            problems.append(f"{op.name}: printed {len(texts)} different texts across passes")
        for code, out_id in sorted(codes.get(index, ())):
            if code != 0:
                continue
            try:
                CHECKS[workload](op, texts[out_id])
            except CheckFailed as exc:
                problems.append(f"{op.name}: {exc}")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
    return problems


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A wall time scaled to a host on which the probe takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / probe_s


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics, every time scaled by the probes taken just
    before and after it."""
    done = [at_reference_speed(r[3], r[5]) for r in result["records"] if r[2] == 0]
    setup = [at_reference_speed(t, p) for t, p in result["setup_samples_s"]]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(done) / sum(done), "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(done), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
    }


def wall_figures(result: dict) -> dict:
    """The timing metrics from plain wall times, for the report."""
    done = [r[3] for r in result["records"] if r[2] == 0]
    return {
        "setup_s": round(statistics.median(t for t, _ in result["setup_samples_s"]), 4),
        "ops_per_s": round(len(done) / sum(done), 4),
        "latency_p50_ms": round(1000 * statistics.median(done), 2),
    }


def per_layer(result: dict) -> tuple[dict, float]:
    """Per-operation calls and self time of each layer, and the tracing overhead:
    the mean time of a call in the traced (odd) passes over that in the
    untraced (even) ones, minus one, with times scaled by their probes as in
    the end-to-end metrics."""
    trace = result["trace"]
    ops = sum(1 for r in result["records"] if r[0] % 2)
    tests = sum(n for p, c, n in trace["edges"] if (p, c) == CONNECTIVITY_TESTS)
    metrics = {}
    # the names come from BENCHMARK.json: <module>.<function>.calls or .self_s
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]:
        name = metric["name"]
        function, _, kind = name.rpartition(".")
        if name == "generate.connectivity_tests":
            total = tests
        elif kind == "calls":
            total = trace["calls"].get(function, 0)
        elif kind == "self_s":
            total = trace["self_s"].get(function, 0.0)
        else:
            raise ValueError(f"no per-layer metric called {name}")
        metrics[name] = {"value": total / ops, "unit": metric["unit"]}
    times: tuple[list, list] = ([], [])
    for r in result["records"]:
        times[r[0] % 2].append(at_reference_speed(r[3], r[5]))
    overhead = statistics.mean(times[1]) / statistics.mean(times[0]) - 1
    return metrics, overhead


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    """One benchmark run; returns the result object and a report for people."""
    ops = build_ops(workload, seed, reduced)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}{'-reduced' if reduced else ''}"
    plan = write_inputs(seed, ops, run_dir)
    plan_path, result_path = run_dir / "plan.json", run_dir / "worker.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
           "--seconds", str(seconds)] + (["--trace"] if trace else [])
    subprocess.run(cmd, env=env, cwd=ROOT, timeout=seconds + WORKER_GRACE_S, check=True)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    problems = check_outputs(workload, ops, result)
    records = result["records"]
    out = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] != 0),
    }
    report = {
        "workload": workload, "seed": seed, "operations_per_pass": len(ops),
        "passes": len(result["pass_seconds"]),
        "pass_seconds": [round(x, 4) for x in result["pass_seconds"]],
        "latency_samples": sum(1 for r in records if r[2] == 0),
        "setup_samples_s": [round(t, 4) for t, _ in result["setup_samples_s"]],
        "reference_loop_s": [round(x, 4) for x in result["reference_loop_s"]],
        "probe_ms_median": round(1000 * statistics.median(r[5] for r in records), 3),
        "problems": problems[:10],
    }
    if trace:
        out["metrics"], report["trace_overhead"] = per_layer(result)
    else:
        out["metrics"] = end_to_end(result)
        report["wall_time_figures"] = wall_figures(result)
    (run_dir / "result.json").write_text(json.dumps({"report": report, "result": out}, indent=1),
                                         encoding="utf-8")
    return {"report": report, "result": out, "ops": ops, "outputs": result["outputs"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hyperline" / "cli.py").is_file():
        print(f"error: no hyperline sources under {SRC}", file=sys.stderr)
        return 2
    done = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in done["report"].items():
        print(f"{key}: {value}")
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
