#!/usr/bin/env python3
"""Fixture: a corrupted answer must fail a benchmark run.

    python3 e2ebench/check_oracle_gate.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs the benchmark briefly three times:

1. with --inject-wrong-answer (the binary corrupts its first answer before
   the oracle sees it), requiring a non-zero exit and "correct": false;
2. without the hook, requiring "correct": true and exactly the
   end_to_end metrics of BENCHMARK.json;
3. traced, requiring "correct": true and exactly its per_layer metrics.

Exits 1 on any violation.
"""
import json
import subprocess
import sys


def run(command, workload, trace, inject=False):
    args = command + ["--workload", workload, "--seed", "1", "--seconds", "2",
                      "--trace", str(trace)]
    if inject:
        args.append("--inject-wrong-answer")
    process = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = [line for line in process.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return process.returncode, result


def check(label, ok):
    print("  %-44s %s" % (label, "yes" if ok else "NO"))
    return ok


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        print(workload)
        code, result = run(bench["command"], workload, 0, inject=True)
        ok &= check("corrupted answer fails the run",
                    code != 0 and result is not None
                    and result["correct"] is False)
        code, result = run(bench["command"], workload, 0)
        ok &= check("clean run passes with the end-to-end metrics",
                    code == 0 and result is not None and result["correct"]
                    and set(result["metrics"]) == end_to_end)
        code, result = run(bench["command"], workload, 1)
        ok &= check("traced run passes with the per-layer metrics",
                    code == 0 and result is not None and result["correct"]
                    and set(result["metrics"]) == per_layer)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
