#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload twp-double --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root. Build output goes to stderr; the benchmark binary's
stdout is passed through, and its last line is the JSON result. Any build or
run failure exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "serve_bench"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    spans = build_dir / "spans"
    spans.mkdir(exist_ok=True)
    proc = subprocess.run([str(binary), *sys.argv[1:], "--spans-dir", str(spans)])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
