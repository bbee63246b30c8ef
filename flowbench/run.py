#!/usr/bin/env python3
"""Build and run the flow benchmark.

    python3 flowbench/run.py --workload lfsr_table1 --seed 1 --seconds 25 --trace 0
    python3 flowbench/run.py --all            # every workload, every metric

Run from the repository root. The benchmark program and lsiq_flowd are built from the
source tree into .bench_build/ (CMake, Release). The last line of standard
output is the result object; the line before it gives the host context.
See flowbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "flowbench")
RUN_LIMIT_S = 170


def log(message):
    print(f"flowbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False when it fails."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "flowbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "flowbench",
                  "lsiq_flowd", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_id():
    """The git commit when the checkout is a git work tree, else a digest
    of the sources the benchmark builds."""
    if os.path.isdir(".git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        head = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "flowbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src:" + digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program once; returns (exit code, stdout lines)."""
    work = os.path.join(".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    command = [os.path.join(BUILD, "flowbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--flowd", os.path.join(BUILD, "lsiq", "lsiq_flowd"),
               "--golden", os.path.join("flowbench", "golden.txt"),
               "--work", work, "--commit", source_id(), *extra]
    # Its own process group, so a stuck run takes its daemon down with it.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_LIMIT_S} s; stopped")
        out, code = "", 1
    else:
        code = process.returncode
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def run_all(seconds):
    """Every workload with tracing off and on: every metric with its unit."""
    with open("BENCHMARK.json") as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    correct = True
    for name in names:
        for trace in (0, 1):
            code, lines = run_once(name, 1, seconds, trace)
            if code != 0 or not lines:
                log(f"{name} --trace {trace} failed")
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            print(f"# {name} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"{name:14s} {metric:28s} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
    return 0 if correct else 1


def stop(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    # A terminated run still stops its benchmark program and daemon (run_once's
    # finally clause).
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced and untraced and "
                             "print every metric")
    parser.add_argument("--write-golden", metavar="FILE",
                        help="append this seed's records to FILE instead of "
                             "checking them against flowbench/golden.txt")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    if args.seconds is None:
        with open("BENCHMARK.json") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    if not build():
        return 2
    if args.all:
        return run_all(args.seconds)
    extra = ["--write-golden", args.write_golden] if args.write_golden else []
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           extra)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
