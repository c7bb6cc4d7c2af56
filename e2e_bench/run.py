#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs it.

Usage, from the root of the checkout:

    python3 e2e_bench/run.py --workload certify|requery|crowd --seed N \
        --seconds S --trace 0|1 [--tsim S] [--corrupt]

The first call configures and builds hi-opt plus the e2e_bench binary
into .bench_build/e2e (a few minutes); later calls only re-run the
incremental build.  Build output goes to stderr, so the binary's last
stdout line stays the JSON result.  Store files live in a per-process
directory under .bench_build that is removed on exit; a traced run
(--trace 1) writes its spans to .bench_build/spans/<workload>-<seed>.json.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2e")
BINARY = os.path.join(BUILD, "e2e_bench")
TMP = os.path.join(BUILD_ROOT, "tmp")  # compilers' temporary files
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it; on timeout
    kills the whole group (compilers included) and raises."""
    env = dict(os.environ, TMPDIR=TMP)
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Configures (once) and builds the binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            code = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                             stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"e2e_bench/run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if code != 0:
            print(f"e2e_bench/run.py: {' '.join(cmd)} failed (exit {code})",
                  file=sys.stderr)
            return False
    return True


def flag_value(args, flag):
    """The value following `flag` in args, or None."""
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main(argv):
    # A SIGTERM unwinds through run_group, which then kills and reaps the
    # running child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    os.makedirs(TMP, exist_ok=True)
    if not build():
        return 1
    scratch = os.path.join(BUILD_ROOT, f"scratch-{os.getpid()}")
    cmd = [BINARY, *argv, "--scratch", scratch]
    if flag_value(argv, "--trace") == "1":
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{flag_value(argv, '--workload')}-{flag_value(argv, '--seed')}"
        cmd += ["--spans", os.path.join(spans, name + ".json")]
    try:
        return run_group(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench/run.py: run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
