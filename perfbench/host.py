"""Building the program and recording where a run's numbers came from."""

import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


class BenchError(Exception):
    """A run that cannot produce a result; run.py exits non-zero on it."""


def build():
    """Build the driver and the serve daemon from the checkout's sources in
    Release mode; returns (driver, daemon) paths.  The build log goes to
    the build directory, and a failure raises BenchError with its tail."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no gridcast sources next to {BENCH_DIR}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                  "perfbench_driver", "gridcast_serve"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    driver = BUILD_DIR / "perfbench_driver"
    daemon = BUILD_DIR / "gridcast" / "tools" / "gridcast_serve"
    for binary in (driver, daemon):
        if not binary.is_file():
            raise BenchError(f"build produced no {binary}")
    return driver, daemon


def steal_seconds():
    """Host steal time accumulated so far over all CPUs (/proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid):
    """A live process's peak resident set (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def cpu_seconds(pid):
    """CPU seconds a live process's threads have run (/proc schedstat, ns)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:
            continue  # a thread that exited meanwhile
    return total * 1e-9


def _git_sha():
    # The ceiling keeps git from reporting an enclosing repository's commit
    # for a checkout that is not a repository itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    """sha256 over the sources the build reads, for checkouts without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def provenance(driver):
    """Commit, compiler, build type and host of a run."""
    version = subprocess.run([str(driver), "version"], capture_output=True,
                             text=True, check=True).stdout
    info = json.loads(version)
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }
