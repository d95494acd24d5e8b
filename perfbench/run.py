#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds the measuring program
(perfbench/khbench.ml) with dune, runs it, and passes its output through:
one line per figure, then the result as one JSON object on the last line.
Exits non-zero, without a result, when the program cannot be built; exits
non-zero after printing the result when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("local-write", "sockets-rw", "shared-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/khbench.exe"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH")


def build():
    cmd = dune_command() + ["build", "--root", ".", TARGET]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    exe = os.path.join("_build", "default", "perfbench", "khbench.exe")
    if proc.returncode != 0 or not os.path.exists(exe):
        sys.exit("run.py: build failed")
    return exe


def run(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so a timeout can stop the server process too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("run.py: workload timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("run.py: the workload printed no result")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    run(build(), args)


if __name__ == "__main__":
    main()
