#!/usr/bin/env python3
"""Build and run the fluxdiv benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload box128|box16|serve-mix|all
                             --seed N --seconds S --trace 0|1 [--smoke]

Builds the library and the benchmark binary from this checkout's sources
into .bench_build/ (Release, production flags), then runs one process per
workload. With one workload, the last line of standard output is the
binary's JSON result. With `all`, every workload runs in turn and a table
of every metric follows. Exits non-zero without a result when the build
fails, the binary refuses or fails, or a run exceeds its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["box128", "box16", "serve-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fluxdiv_perfbench"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Run `cmd`, appending its output to `log`; False on failure. On a
    timeout the whole process group (make, compilers) is killed."""
    with open(log, "a") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fluxdiv sources under {ROOT / 'src'}; run from a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    log.write_text("")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    ok = True
    if not (BUILD / "CMakeCache.txt").is_file():
        ok = run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    ok = ok and run_logged(["cmake", "--build", str(BUILD), "-j", jobs],
                           log, BUILD_TIMEOUT_S)
    if not ok:
        sys.stderr.write(log.read_text()[-4000:])
        fail("build failed")


def run_workload(args, workload):
    """Run one workload; returns (stdout lines, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: benchmark exited with {proc.returncode}",
             proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: malformed result line", 1)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: every workload in seconds")
    args = parser.parse_args()

    build()
    if args.workload != "all":
        lines, _ = run_workload(args, args.workload)
        print("\n".join(lines), flush=True)
        return

    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run_workload(args, workload)
        print("\n".join(lines[:-1]), flush=True)
    print(f"{'metric':34} {'unit':6} " +
          " ".join(f"{w:>12}" for w in WORKLOADS))
    for name, metric in results[WORKLOADS[0]]["metrics"].items():
        print(f"{name:34} {metric['unit']:6} " + " ".join(
            f"{results[w]['metrics'][name]['value']:12.6g}"
            for w in WORKLOADS))
    for workload, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"{workload}: failed_frac {frac:g} "
              f"({result['failed']}/{result['attempted']} output checks)")
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
