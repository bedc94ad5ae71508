#!/usr/bin/env python3
"""epochd benchmark: drive the real daemon over loopback TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run generates its workload from
the seed (workloads.py), then repeats rounds until the next round would
overrun --seconds (at least one round; two with --trace 1). Untraced
rounds each replay their own request stream, all derived from the seed
with the same mix (bench.run). A round
copies the initial files into a fresh directory, launches the daemon
as its own process (server.py, importing epochd from the checkout's
src/), times set-up from launch to the first reply, replays the
workload's fixed request stream over one connection in a closed loop,
stops the daemon and checks what it left on disk (bench.py). Times are
the daemon's CPU time, read from its process CPU-time clock around each
request; the client-side wall-clock figures go into the info line.

With --trace 0 the last line reports the end-to-end metrics, medians
over rounds; set-up is sampled at least five times. With --trace 1
rounds alternate untraced and traced, and the last line reports the
per-layer metrics from the traced rounds' spans (tracing.py) plus the
tracing overhead, traced minus untraced mean CPU time per request.
The line before it records the run's parameters. The exit status is 0 only when every
reply had its expected class and every post-run check held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="epochd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epochd", "daemon.py")):
        print(f"epochd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    # Client and daemon take turns in the closed loop, so one CPU serves
    # both; sharing it spares each request two cross-CPU wake-ups, whose
    # cost on a virtual machine swings with the host's load. The daemon
    # and its subprocesses inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        info, result = bench.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
