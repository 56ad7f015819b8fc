"""One workload process: whole passes over a fixed list of CLI calls.

    python3 benchmarks/worker.py PLAN.json RESULT.json --seconds S [--trace]

A closed loop with one client and one thread: each call of
`hyperline.cli.main(argv)` runs in this process, with stdout and stderr
captured, and the next starts when it returns. Passes repeat until the time
measured is within half a pass of S, and there are at least two passes, so
that every call runs at least twice and its outputs can be compared. Between
passes, SETUP_SAMPLES times over the run, a fresh interpreter times
`import hyperline.cli`. A probe, a short run of the fixed reference loop,
is timed before every call and after the last, and by the fresh interpreter
before and after the import, so that each of these times can be read against
the host's speed at that moment.

With --trace, passes alternate: even passes run untraced, as the baseline
for the tracing overhead, and odd passes run with every public `hyperline`
function wrapped (see tracer.py). The result file holds each call's exit
code, wall time and probe time, the distinct texts each call printed, the
import times with their probe times, the peak resident set size, and the
reading of the full reference loop before and after the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time

SETUP_SAMPLES = 9
# steps of the reference loop in a probe (about 10 ms)
PROBE_STEPS = 100_000
# the fresh interpreter probes its own speed just before and after the import,
# with the loop of reference_loop, and imports nothing else before it
IMPORT_SNIPPET = f"""
import time
def probe():
    start = time.perf_counter()
    acc = 0
    for i in range({PROBE_STEPS}):
        acc += i * i % 7
    return time.perf_counter() - start
before = probe()
start = time.perf_counter()
import hyperline.cli
seconds = time.perf_counter() - start
print(seconds, (before + probe()) / 2)
"""


def reference_loop(steps: int = 1_000_000) -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return time.perf_counter() - start


def probe() -> float:
    return reference_loop(PROBE_STEPS)


def import_seconds() -> list[float]:
    """Seconds to import hyperline.cli in a fresh interpreter, and the mean of
    that interpreter's probes just before and after."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], capture_output=True,
                          text=True, timeout=60, check=True)
    return [float(x) for x in proc.stdout.split()]


def run_pass(cli, plan, outputs, records, pass_no, tracer):
    """Run every call of the plan once, with a probe between calls; returns the
    pass's wall time."""
    start = time.perf_counter()
    before = probe()
    for index, argv in enumerate(plan):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # a crash counts as a failed operation
            code, text = -1, f"{type(exc).__name__}: {exc}"
        else:
            text = out.getvalue() if code == 0 else err.getvalue()
        seconds = time.perf_counter() - t0
        after = probe()
        seen = outputs[index]
        if text not in seen:
            seen.append(text)
        records.append([pass_no, index, code, seconds, seen.index(text), (before + after) / 2])
        before = after
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    ref_start = reference_loop()
    import hyperline.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.find()
    outputs: list[list[str]] = [[] for _ in plan]
    records: list[list] = []
    pass_seconds: list[float] = []
    # import times are sampled between passes, spread over the run like them
    setup: list[list[float]] = []
    start = time.perf_counter()
    while True:
        while (len(setup) < SETUP_SAMPLES and
               (time.perf_counter() - start) * SETUP_SAMPLES >= len(setup) * args.seconds):
            setup.append(import_seconds())
        # with --trace, odd passes are traced and even ones are the baseline
        traced = tracer if tracer is not None and len(pass_seconds) % 2 else None
        if traced is not None:
            traced.install()
        pass_seconds.append(run_pass(cli, plan, outputs, records, len(pass_seconds), traced))
        if traced is not None:
            traced.uninstall()
        elapsed = time.perf_counter() - start
        if len(pass_seconds) >= 2 and elapsed + pass_seconds[-1] / 2 >= args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "records": records,
        "outputs": outputs,
        "pass_seconds": pass_seconds,
        "setup_samples_s": setup,
        "peak_rss_kb": peak_kb,
        "reference_loop_s": [ref_start, reference_loop()],
    }
    if tracer is not None:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "edges": [[p, c, n] for (p, c), n in tracer.edges.items()],
        }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
