#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload sat_count --seed 1 --seconds 30 --trace 0

Configures a Release build of e2ebench/ (which compiles the repository's
libraries from src/) into $CARGO_TARGET_DIR or .bench_build, rebuilds it
incrementally, then runs one workload in its own process. Every argument
is passed to the benchmark binary; the last line it prints is the result
object. With --trace 1 the spans of the traced replay are written to
<build dir>/spans/<workload>-seed<seed>.json.
"""
import hashlib
import os
import signal
import subprocess
import sys

FORBIDDEN_ENV = ("MINIDB_PARALLEL", "MINIDB_MORSEL_ROWS", "MINIDB_VECTORIZED",
                 "MINIDB_CACHE", "MINIDB_NO_SIMD")
RUN_TIMEOUT_S = 170


def log(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)


def source_id(root, bench_dir):
    """A digest of the measured sources (src/ and the benchmark), prefixed
    with the git sha when the checkout is a repository. The digest covers
    uncommitted edits, which the sha alone would not."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), bench_dir):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and sha.stdout.strip():
                ident = "git:" + sha.stdout.strip() + " " + ident
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ident


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: the result must stay the last line
        # of standard output.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main(argv):
    forbidden = [name for name in FORBIDDEN_ENV if name in os.environ]
    if forbidden:
        log(", ".join(forbidden) + " set; the benchmark measures library "
            "defaults, unset it")
        return 2
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isdir(os.path.join(root, "src")):
        log("no src/ under %s: run from the root of a checkout" % root)
        return 1
    if not build(bench_dir, build_dir):
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out",
                 os.path.join(spans_dir, "%s-seed%s.json" % (workload, seed))]
    binary = os.path.join(build_dir, "e2ebench")
    command = [binary] + args + ["--source-id", source_id(root, bench_dir)]
    # A SIGTERM unwinds through the finally below, which stops the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopped" % RUN_TIMEOUT_S)
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
