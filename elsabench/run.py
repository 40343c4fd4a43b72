#!/usr/bin/env python3
"""Build the ELSA benchmark from source and run one workload.

    python3 elsabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the ELSA libraries it links) under .bench_build/elsabench;
later runs only rebuild what changed. The benchmark's own output, ending in
one JSON line, goes to stdout; build output goes to a log file.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "elsabench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"elsabench: no ELSA sources at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "elsabench",
                  "-j", jobs])
    with open(log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"elsabench: build failed (see {log})")
    return BUILD / "elsabench"


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    binary = build()
    cmd = [str(binary)] + argv
    if args.get("--trace", "0") != "0" and "--spans" not in args:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        name = f"{args.get('--workload', 'x')}-seed{args.get('--seed', 'x')}.json"
        cmd += ["--spans", str(spans / name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
