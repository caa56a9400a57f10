#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv-overlay --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build/
(its Go build cache included, so nothing outside the checkout is written),
then run from the repository root. Its last line of output is the result
object; this script checks that the object carries exactly the metrics
BENCHMARK.json names for the mode (end_to_end for --trace 0, per_layer for
--trace 1), with their units, and prints the program's output only then.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of the Go sources and module files the benchmark builds."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build", ".bench_out"}
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                files.append(Path(dirpath) / name)
    for f in sorted(files):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git = "none"
    return "git.%s+src.%s" % (git, source_digest())


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(BUILD / "gocache"),
        "GOTMPDIR": str(BUILD / "tmp"),
        "GOPATH": str(BUILD / "gopath"),
        "GOMODCACHE": str(BUILD / "gomodcache"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    binary = BUILD / "perfbench"
    res = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=840)
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        sys.exit("perfbench: build failed")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    want = expected_metrics(args.trace)
    binary = build()
    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", str(ROOT / ".bench_out"), "-commit", revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        sys.exit("perfbench: the last line is not a result object")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(out)
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit("perfbench: result does not match BENCHMARK.json (missing %s, extra %s, unit mismatch %s)"
                 % (missing, extra, units))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
