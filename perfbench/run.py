"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,certify,replay,immersion} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
Each workload runs in fresh interpreters, one client, no ``--jobs``, BLAS
threads pinned to one:

1. SETUP_SAMPLES interpreters (``worker.py``) each import the program and
   make the workload's inputs, timed from launch to their ``READY`` line;
   the middle one goes on to the timed loop, the others exit there;
2. the output checks (``checks.py``) in a separate interpreter.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Outputs and the trace go to ``perfbench/_runs/<workload>-<seed>-<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from layers import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "certify", "replay", "immersion")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("the run took longer than its deadline")
    return left


def _launch(args, mode, out, deadline):
    """Start a worker; return (process, seconds from launch to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RunError(f"worker ({mode}) did not get ready: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s


def _finish(proc, deadline):
    try:
        proc.communicate(timeout=_remaining(deadline))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")


def _check(args, out, deadline):
    cmd = [sys.executable, os.path.join(HERE, "checks.py"), "--workload", args.workload,
           "--dir", out, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                          timeout=_remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"checks exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "cp2tori", "__init__.py")):
        raise RunError("src/cp2tori not found: run from the root of a checkout")
    out = os.path.join(HERE, "_runs", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    def probe_setup(n):
        for _ in range(0 if args.trace else n):
            proc, s = _launch(args, "setup", out, deadline)
            _finish(proc, deadline)
            setup.append(s)

    # set-up probes before and after the timed loop, so that their median
    # spans the loop's stretch of time and not only its start
    setup = []
    probe_setup(SETUP_SAMPLES // 2)
    proc, s = _launch(args, "trace" if args.trace else "run", out, deadline)
    setup.append(s)
    _finish(proc, deadline)
    probe_setup(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    verdict = _check(args, out, deadline)

    round_s = result["round_s"]
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
             f"trace {args.trace}: {len(round_s)} rounds, {result['attempted']} operations, "
             f"{result['failed']} failed"]
    for name, times in result["op_s"].items():
        lines.append(f"  {name}: median {statistics.median(times):.4f} s over {len(times)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": METRICS[k][0]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "op_s": {"value": statistics.median(round_s), "unit": "s"},
        }
        lines.append(f"  setup: median {metrics['setup_s']['value']:.4f} s over {len(setup)}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in verdict["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    print("\n".join(lines))
    print(json.dumps({"correct": bool(verdict["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        run(args)
    except (RunError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
