#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with
`MISS_THREADS` defaulting to the machine's core count. The benchmark's
stdout is passed through; its last line is the result JSON. Per-run records
and traces land in `$CARGO_TARGET_DIR/perfbench-out/`. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def source_hash(root):
    """SHA-256 over the workspace sources the benchmark builds."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(".") and x != "target")
            paths += [os.path.join(d, f) for f in files]
    paths += [os.path.join(root, f) for f in ("Cargo.toml", "Cargo.lock")]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: run from the repository root (perfbench/ and crates/ needed)",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    env.setdefault("MISS_THREADS", str(os.cpu_count() or 1))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(target, "perfbench-out"),
           "--commit", git_commit(root), "--source-hash", source_hash(root)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write("\n".join(l for l in lines if not l.startswith('{"correct"')) + "\n")
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
