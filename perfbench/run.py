#!/usr/bin/env python3
"""Build and run the csrl-mrm benchmark.

    python3 perfbench/run.py --workload <paper_cold|large_sweep|daemon_mixed> \
        --seed N --seconds S --trace <0|1>

Run from the root of a csrl-mrm checkout. The first call configures and
builds perfbench/ (the checker library, the mrmcheckd daemon and the
harness) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only re-run the incremental build. Each call then runs one
workload in a fresh harness process, relays its report, and exits with the
harness's status: 0 when every answer matched its reference. The last line
of output is the JSON summary {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Identifies the measured code when the checkout carries no git data."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "examples", HERE / "src"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def build(build_dir):
    """Configures once, then builds incrementally; serialized by a lock."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "perfbench", "mrmcheckd"])
        with open(log_path, "w") as log:
            for step in steps:
                try:
                    done = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                          timeout=BUILD_LIMIT_S)
                except subprocess.TimeoutExpired:
                    fail(f"build timed out; see {log_path}")
                if done.returncode != 0:
                    log.flush()
                    tail = log_path.read_text(errors="replace").splitlines()[-20:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed; see {log_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_cold", "large_sweep", "daemon_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "examples" / "mrmcheckd.cpp").is_file():
        fail(f"{ROOT} is not a csrl-mrm checkout (no src/ or examples/mrmcheckd.cpp)")
    os.chdir(ROOT)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    build(build_dir)

    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", str(ROOT), "--references", str(HERE / "references"),
               "--daemon", str(build_dir / "mrmcheckd"),
               "--work-dir", str(build_dir / "work"),
               "--commit", commit_id(), "--out", str(out)]

    # Own process group, so a timeout also takes down the daemon child.
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    started = time.monotonic()
    try:
        stdout, _ = harness.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S:.0f} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if harness.returncode != 0:
        print(f"perfbench: {args.workload} exited with status {harness.returncode} "
              f"after {time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
