"""Shared helpers: statistics, seeded inputs, scratch space and process probes.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, snapshots and spans; gitignored.
SCRATCH = ROOT / ".perfbench_tmp"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a verification failure)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(k, len(ordered) - 1)]


def median(values) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def tail(values, q: float = 99.0) -> float:
    """The ``q``-th percentile, lowered to the highest percentile that still
    has ten samples beyond it; the maximum when even the median would not."""
    n = len(values)
    if n < 20:
        return max(values)
    return percentile(values, min(q, 100.0 * (1.0 - 10.0 / n)))


def quantile(values, q: float) -> float:
    """The ``q``-th percentile (``q`` in 1..99), interpolated between the
    two nearest samples, so it moves smoothly as the sample count does."""
    if not values:
        raise BenchError("quantile of an empty sample")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------
#: Seconds one ``calibration()`` call takes on the reference machine; mine
#: and stream-ingest times are reported as if the run had that speed.
CALIBRATION_REF_S = 0.045

_CAL_ROWS = [tuple(random.Random(i).sample(range(200), 10)) for i in range(400)]


def calibration() -> float:
    """Seconds for one fixed pass of pair counting, hashing and sorting.

    Pure Python and no ``repro`` code, so its time follows only the speed
    of the machine, which on shared hosts drifts by a quarter or more over
    tens of seconds.  Interleaved with a workload's operations, its median
    tracks the speed those operations ran at.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    for row in _CAL_ROWS:
        ranks = sorted(row)
        for i, a in enumerate(ranks):
            for b in ranks[i + 1:]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    sets = {frozenset(pair): n for pair, n in counts.items()}
    sorted(sets.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    return time.perf_counter() - t0


class Calibrator:
    """Calibration samples taken between a workload's operations."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        seconds = calibration()
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """Multiply a measured time by this (divide a rate) to normalize it."""
        return CALIBRATION_REF_S / median(self.samples)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
def relabel(rows, n_items: int, seed: int, salt: str) -> list[list[int]]:
    """Permute item labels and transaction order under ``seed``.

    The generator structure (pattern table, clusters) stays fixed per
    workload, so runs with different seeds do the same amount of mining
    work; the seed changes every label, hence the rank order, the
    position vectors and the recursion order the miners walk.
    """
    rng = random.Random(f"{salt}:{seed}")
    perm = list(range(n_items))
    rng.shuffle(perm)
    out = [[perm[i] for i in t] for t in rows]
    rng.shuffle(out)
    return out


def result_digest(pairs) -> str:
    """SHA-256 over canonical ``(sorted items, support)`` pairs."""
    canon = sorted((tuple(sorted(items)), int(sup)) for items, sup in pairs)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def bitsets(rows) -> dict:
    """item -> Python-int bitset of the transactions (row order) containing it."""
    bits: dict = {}
    for tid, t in enumerate(rows):
        bit = 1 << tid
        for item in set(t):
            bits[item] = bits.get(item, 0) | bit
    return bits


def support_in(bits: dict, items, lo: int = 0, hi: int | None = None) -> int:
    """Exact count of rows in ``[lo, hi)`` that contain every item."""
    acc = -1
    for item in items:
        acc &= bits.get(item, 0)
        if not acc:
            return 0
    if hi is not None:
        acc &= (1 << hi) - 1
    return (acc >> lo).bit_count()


# ---------------------------------------------------------------------------
# scratch space and processes
# ---------------------------------------------------------------------------
class Scratch:
    """A per-run directory under the checkout, removed on exit."""

    def __init__(self, workload: str, seed: int):
        self.path = SCRATCH / f"{workload}-{seed}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SERVE_FAULTS", None)
    return env


def time_fresh_interpreter(
    code: str, samples: int, calibrator: Calibrator | None = None
) -> tuple[list[float], list[float]]:
    """Run ``python3 -c code`` ``samples`` times; wall seconds per run and
    the float each child prints as its last line (its own import time).
    A calibrator, when given, samples before each run."""
    walls: list[float] = []
    inner: list[float] = []
    for _ in range(samples):
        if calibrator is not None:
            calibrator.sample()
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        walls.append(time.perf_counter() - t0)
        if out.returncode != 0:
            raise BenchError(f"fresh interpreter failed: {out.stderr.strip()[-400:]}")
        inner.append(float(out.stdout.strip().splitlines()[-1]))
    return walls, inner


#: Child code for ``repro.import_s``: the import alone, timed inside.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


def self_peak_rss_mib() -> float:
    """Peak resident set of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (scans /proc)."""
    kids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def env_info(seed: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
    }


class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: contract metrics (name -> value), units from spec.py
        self.metrics: dict[str, float] = {}
        #: the workload's own metric names, printed for people
        self.named: list[tuple[str, float, str]] = []
        #: per-layer metrics (traced run only)
        self.layers: dict[str, float] = {}
        self.info: dict = {}

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(message)
