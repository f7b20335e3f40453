#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: a tiny-size smoke run of every
workload, untraced and traced, checked against BENCHMARK.json.

    python3 perfbench/selftest.py

For each workload it checks that the run exits 0, that the last line is
the result object with exactly the keys correct/attempted/failed/metrics,
that the correctness checks ran and passed, that every metric BENCHMARK.json
names is printed with its unit, and that the traced layer table adds up:
its rows plus other_ms equal total_ms, and the measured rows exceed
total_ms by at most TABLE_TOLERANCE of it (other_ms >= -25% of total_ms).
Last, it checks that run.py refuses to run, without printing a result,
from a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# How far the measured layer rows may over-explain the end-to-end time
# (rows are partly timed locally on the same inputs, so they can exceed
# what the daemon spent by a little).
TABLE_TOLERANCE = 0.25
ROW = re.compile(r"^  (\S+) (-?[0-9.]+)")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "42", "--seconds", "1",
           "--trace", str(trace), "--smoke", "1"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def check_table(stdout, errors, where):
    lines = stdout.splitlines()
    try:
        start = next(i for i, l in enumerate(lines)
                     if l.startswith("layer table"))
    except StopIteration:
        errors.append(where + ": no layer table printed")
        return
    rows, other, total = 0.0, None, None
    for line in lines[start + 1:]:
        m = ROW.match(line)
        if not m:
            break
        name, value = m.group(1), float(m.group(2))
        if name == "other_ms":
            other = value
        elif name == "total_ms":
            total = value
        else:
            rows += value
    if other is None or total is None or total <= 0:
        errors.append(where + ": table lacks other_ms/total_ms")
        return
    if abs(rows + other - total) > 1e-3 * total + 1e-3:
        errors.append("%s: rows %.4f + other %.4f != total %.4f"
                      % (where, rows, other, total))
    if other < -TABLE_TOLERANCE * total:
        errors.append("%s: rows over-explain total by %.1f%%"
                      % (where, -100.0 * other / total))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    registered = [w["name"] for w in spec["workloads"]]
    workloads = registered + [w for w in ("serve_mix", "reason_bulk",
                                          "branch_merge")
                              if w not in registered]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in workloads:
        for trace in (0, 1):
            where = "%s --trace %d" % (workload, trace)
            before = len(errors)
            done = run(workload, trace)
            if done.returncode != 0:
                errors.append("%s: exit %d: %s" % (where, done.returncode,
                                                   done.stderr[-400:]))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(where + ": wrong result keys")
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(where + ": not correct or nothing attempted")
            m = re.search(r"^correctness: (\d+) checks, 0 mismatches$",
                          done.stdout, re.M)
            if not m or int(m.group(1)) == 0:
                errors.append(where + ": correctness checks did not run")
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in metrics:
                    errors.append("%s: metric %s missing" % (where, name))
                elif metrics[name]["unit"] != unit:
                    errors.append("%s: %s has unit %s, not %s" % (
                        where, name, metrics[name]["unit"], unit))
            extra = set(metrics) - set(expected[trace])
            if workload in registered and extra:
                errors.append("%s: metrics not in BENCHMARK.json: %s"
                              % (where, sorted(extra)))
            if trace == 1:
                check_table(done.stdout, errors, where)
            print(("ok " if len(errors) == before else "FAILED ") + where,
                  flush=True)

    # Without the repository's sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           registered[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180, env=env)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("run.py ran without the repository's sources")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
