#!/usr/bin/env python3
"""Self-test of the ELSA benchmark on tiny campaigns.

    python3 elsabench/selftest.py

Runs every workload end to end, untraced and traced, on a few days of
trace, and checks that:
  * each run exits 0, reports correct outputs, and ends in the JSON line;
  * every metric BENCHMARK.json names is in that line with its unit
    (end-to-end metrics untraced, per-layer metrics traced), and is also
    printed by name in the human-readable block;
  * the traced run writes its span file;
  * the divergence check is not vacuous: a deliberately perturbed
    single-engine reference gives a nonzero alarms_diverged;
  * without the repository's sources next to it, the benchmark exits
    nonzero and prints no result.
Exits 0 when every check passes.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace), "--tiny", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines
    except (IndexError, json.JSONDecodeError):
        return None, lines


def printed(lines, name):
    """Value printed for `name` in the human-readable block, or None."""
    for line in lines:
        m = re.match(r"\s+(\S+)\s+(\S+)\s", line)
        if m and m.group(1) == name:
            try:
                return float(m.group(2))
            except ValueError:
                return None
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in modes.items():
            proc = run(name, trace)
            res, lines = result(proc)
            tag = f"{name} trace={trace}"
            check(proc.returncode == 0 and res is not None,
                  f"{tag}: exits 0 and ends in a JSON line")
            if res is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(res["correct"] is True, f"{tag}: outputs correct")
            check(res["attempted"] >= 1 and res["failed"] == 0,
                  f"{tag}: attempted {res['attempted']}, failed {res['failed']}")
            got = res["metrics"]
            check(set(got) == {m["name"] for m in metrics},
                  f"{tag}: reports exactly the {len(metrics)} metrics")
            for m in metrics:
                g = got.get(m["name"], {})
                check(g.get("unit") == m["unit"] and
                      isinstance(g.get("value"), (int, float)) and
                      printed(lines, m["name"]) is not None,
                      f"{tag}: {m['name']} printed with unit {m['unit']}")
            if trace:
                spans = ROOT / ".bench_build" / "elsabench" / "spans" / \
                    f"{name}-seed11.json"
                ok = spans.is_file() and \
                    len(json.loads(spans.read_text())["spans"]) > 0
                check(ok, f"{tag}: span file written")
            else:
                for extra in ("alarm_tail_ms", "alarm_p50_ms",
                              "submit_p99_us", "rss_growth_mb",
                              "records_failed"):
                    check(printed(lines, extra) is not None,
                          f"{tag}: {extra} printed")

    # The divergence check must see a perturbed reference.
    base, base_lines = result(run("mercury-storm", 0))
    pert, pert_lines = result(run("mercury-storm", 0, "--perturb-reference",
                                  "1"))
    d0 = printed(base_lines, "alarms_diverged")
    d1 = printed(pert_lines, "alarms_diverged")
    check(d1 is not None and d1 > 0 and d1 != d0,
          f"perturbed reference diverges ({d0} -> {d1})")

    # Alone (no ELSA sources beside it) the benchmark must fail cleanly.
    alone = ROOT / ".bench_build" / "selftest-alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    shutil.copytree(HERE, alone / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(alone / HERE.name / "run.py"), "--workload",
         "mercury-storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=alone, timeout=180)
    res, _ = result(proc)
    check(proc.returncode != 0 and res is None,
          "without the sources: nonzero exit, no result")
    shutil.rmtree(alone, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
