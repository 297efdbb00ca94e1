#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) is built in release mode
against the library sources under crates/, into $CARGO_TARGET_DIR or
.bench_build/. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The commit (when the tree
is a git checkout) and a digest of the sources are passed to the
benchmark for its provenance record; traced runs write their spans under
<target>/perfbench-spans/. glibc malloc's trim and mmap thresholds are
pinned for the benchmark process. Exits non-zero when the sources are
missing, the build fails, or any checked operation failed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
LIBRARY = ROOT / "crates" / "core" / "Cargo.toml"


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", MANIFEST]
    for top in (ROOT / "crates", HERE / "src"):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(set(files)):
        if p.is_file() and "target" not in p.relative_to(ROOT).parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    # Only this tree's own repository: git would otherwise search the
    # parent directories for one.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not LIBRARY.is_file():
        print(f"error: library sources not found ({LIBRARY})", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    spans = target / "perfbench-spans"
    spans.mkdir(parents=True, exist_ok=True)
    env["PERFBENCH_OUT_DIR"] = str(spans)
    # Pin glibc malloc's thresholds: freed memory stays in the heap and is
    # reused, never trimmed back to the kernel, and no threshold adapts to
    # what ran before. Every timed episode then sees the same allocator
    # state, whichever rounds preceded it (see README.md, noise sources).
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = target / "release" / "dacce-perfbench"
    return subprocess.run([str(binary), *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
