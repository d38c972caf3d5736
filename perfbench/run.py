#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), offline.
Build output goes to stderr; the benchmark's own stdout passes through,
so its last line is the result object. Exits non-zero without a result
when the build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sources whose digest identifies the measured code when the checkout
# carries no git metadata.
SOURCE_DIRS = ["crates", "vendor", "src", os.path.join("perfbench", "src")]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/Cargo.lock"]


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    cmd = [exe, *sys.argv[1:], "--out-dir", out_dir, "--commit", git_commit(), "--source", source_digest()]
    child = subprocess.Popen(cmd, cwd=ROOT)
    # A terminated runner takes the benchmark down with it and waits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
