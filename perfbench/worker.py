"""The timed process: one workload, one closed loop, one client.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {setup,run,trace} --out DIR

It imports the program from ``src/`` of the current directory, does the
workload's set-up and prints ``READY`` (the parent times set-up up to that
line).  In ``setup`` mode it then exits.  In ``run`` mode it runs one
warm-up, then whole rounds of the workload's operations until T seconds
have passed, records the peak resident memory, writes the outputs the
checks read and ``DIR/result.json``.  In ``trace`` mode the same loop runs
with spans recorded around the program's public functions, followed by
one round of each other workload, and the per-layer metrics are written
instead; the spans go to ``DIR/trace.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _import_program():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import cp2tori  # noqa: F401  (the import is part of set-up)
    if not os.path.abspath(cp2tori.__file__).startswith(src + os.sep):
        raise SystemExit(f"cp2tori imported from {cp2tori.__file__}, not from {src}")


def _loop(rounds, seconds, wrap_round=lambda fn: fn):
    """Whole rounds until ``seconds`` have passed; per-round and
    per-operation times, and the operations attempted and failed."""
    round_s, op_s = [], {}
    attempted = failed = 0

    def one_round():
        nonlocal attempted, failed
        for name, fn in rounds:
            t = time.perf_counter()
            try:
                fn()
            except Exception:  # an operation failure is counted, not fatal
                failed += 1
                traceback.print_exc()
            op_s.setdefault(name, []).append(time.perf_counter() - t)
            attempted += 1

    one_round = wrap_round(one_round)
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_round()
        round_s.append(time.perf_counter() - t)
        if time.perf_counter() - start >= seconds:
            break
    return {"round_s": round_s, "op_s": op_s, "attempted": attempted, "failed": failed}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    _import_program()
    import workloads  # imports cp2tori.cli

    os.makedirs(args.out, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    others = []
    if args.mode == "trace":
        others = [cls(args.seed, os.path.join(args.out, name))
                  for name, cls in workloads.WORKLOADS.items() if name != args.workload]
        for w in others:
            os.makedirs(w.out, exist_ok=True)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    workload.warmup()
    if args.mode == "run":
        result = _loop(workload.round, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import layers
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        result = _loop(workload.round, args.seconds,
                       lambda fn: tracer.span(f"op.{args.workload}", fn))
        for w in others:
            extra = _loop(w.round, 0.0, lambda fn, w=w: tracer.span(f"op.{w.name}", fn))
            result["attempted"] += extra["attempted"]
            result["failed"] += extra["failed"]
        tracer.uninstall()
        result["per_layer"] = layers.compute(tracing.SpanTable(tracer), args.workload)
        tracer.save(os.path.join(args.out, "trace.npz"))
    result["outputs"] = workload.finish()
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
