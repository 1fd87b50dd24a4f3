#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `m3d-perfbench` crate (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
Build output goes to stderr; the benchmark's stdout passes through, so
its last line is the JSON result. Traced runs write their spans to
`<target>/perfbench/trace-<workload>-<seed>.json`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take its --seconds plus this long for set-up, the traced
# probe and the output checks.
RUN_MARGIN_S = 150
BUILD_TIMEOUT_S = 850


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where the checkout is not a git repo."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def arg(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "m3d-perfbench"), *argv,
           "--commit", commit(), "--source-digest", source_digest()]
    if arg(argv, "--trace") == "1":
        name = f"trace-{arg(argv, '--workload')}-{arg(argv, '--seed')}.json"
        cmd += ["--trace-out", os.path.join(target, "perfbench", name)]
    try:
        seconds = float(arg(argv, "--seconds") or 0)
    except ValueError:
        seconds = 0.0
    timeout = max(seconds, 0.0) + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"perfbench: cannot run the benchmark: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
