#!/usr/bin/env python3
"""Build paxserve and the perfbench load generator from this tree, then run
one benchmark workload.

    python3 perfbench/run.py --workload put-uniform --seed 1 --seconds 10 --trace 0

Everything the run builds or writes stays under $CARGO_TARGET_DIR (default
.bench_build) at the repository root: the Go build cache, both binaries,
the pools, the server logs, the span dumps and the per-run result records.
The last line of standard output is the run's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env(bdir):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(bdir, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["GOPROXY"] = "off"
    return env


def git_provenance():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none", False
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], capture_output=True, text=True,
                               timeout=30, check=True).stdout.strip() != ""
        return rev, dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def build(env, bdir):
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bdir, "paxserve"), "./cmd/paxserve"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(bdir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def reap_group(pgid):
    """SIGKILL whatever is left in the run's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    env = go_env(bdir)
    try:
        if not build(env, bdir):
            return 2
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    rev, dirty = git_provenance()
    cmd = [os.path.join(bdir, "perfbench"),
           "-workload", args.workload, "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-paxserve", os.path.join(bdir, "paxserve"),
           "-work", os.path.join(bdir, "work"), "-git-rev", rev, f"-git-dirty={str(dirty).lower()}"]
    # A session of its own, so a timeout can stop the load generator and
    # every paxserve it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        code = 3
    reap_group(proc.pid)
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
