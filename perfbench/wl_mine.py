"""``mine``: the batch facade, one closed-loop caller over four fixed jobs.

A job is ``read_dat`` followed by ``mine_frequent_itemsets`` on one file;
a pass runs the four jobs in order.  ``latency_p50_ms`` is the median
pass (``mine_s``), ``ops_per_s`` jobs completed per second.  Each pass
is normalized by the calibration samples taken between its jobs, and
``setup_s`` by samples taken between set-ups (see
``common.calibration``); the raw figures are printed too.

The traced run alternates untraced facade passes with traced passes that
make the same calls the facade makes, one span per public call, so each
layer's self time is measured from outside ``src/``:

    perfbench.job
      data.io.read_dat            iter_dat_lines (parse)
        data.transaction_db.build TransactionDatabase(rows)
      core.rank.scan1             item_supports + RankTable.from_supports (a
                                  re-run of scan 1; build_s contains it too)
      core.plt.build              PLT.from_transactions (both scans)
      core.conditional.mine       mine_conditional  | core.topdown.mine
      core.mining.materialize     decode, canonical sort, MiningResult

``core.mining.residual_s`` is the untraced facade's mining time minus
build + kernel + materialize, so work the decomposition misses shows.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Callable

import common
from common import Outcome, median


@dataclass(frozen=True)
class Job:
    name: str
    make: Callable  # (tiny) -> TransactionDatabase, fixed structure
    n_items: int
    support: float
    method: str
    tiny_support: float  # tiny inputs are 10x smaller; keep their results small


def _jobs(tiny: bool):
    from repro.data import generate_dense, generate_quest

    def quest(n, t, i, seed):
        return lambda tiny: generate_quest(
            n_transactions=n // 10 if tiny else n,
            avg_transaction_len=t, avg_pattern_len=i, seed=seed,
        )

    def dense(n, items, length, seed):
        return lambda tiny: generate_dense(
            n // 10 if tiny else n, items, length, seed=seed
        )

    jobs = [
        # sparse, kernel-heavy
        Job("T10.I4.D10K", quest(10_000, 10, 4, 11), 1000, 0.002, "plt", 0.02),
        # wide transactions, materialization-heavy
        Job("T20.I6.D2K", quest(2_000, 20, 6, 12), 1000, 0.01, "plt", 0.05),
        Job("DENSE-50.D2K", dense(2_000, 50, 15, 13), 50, 0.2, "plt", 0.3),
        # short dense transactions through Algorithm 2
        Job("DENSE-30.L9.D2K", dense(2_000, 30, 9, 14), 30, 0.05, "plt-topdown", 0.1),
    ]
    if tiny:
        jobs = [replace(job, support=job.tiny_support) for job in jobs]
    return jobs


def _write_inputs(jobs, seed, tiny, scratch) -> dict:
    from repro.data import write_dat

    paths = {}
    for job in jobs:
        rows = common.relabel(job.make(tiny), job.n_items, seed, job.name)
        path = scratch / f"{job.name}.dat"
        write_dat(rows, path)
        paths[job.name] = path
    return paths


def _digest(result) -> str:
    return common.result_digest((fi.items, fi.support) for fi in result)


def _kernel(job):
    """(span name, miner) for the job's method: Algorithm 2 or 3."""
    from repro.core import mine_conditional, mine_topdown

    if job.method == "plt-topdown":
        return "core.topdown.mine", mine_topdown
    return "core.conditional.mine", mine_conditional


def _materialize(plt, pairs, n_transactions, abs_support, method):
    """What the facade does with a PLT miner's rank pairs: decode, build
    the item-space table, canonical-sort into a MiningResult."""
    from repro.core.mining import FrequentItemset, MiningResult
    from repro.core.rank import sort_key

    table = plt.rank_table
    decoded = {frozenset(table.decode_ranks(ranks)): sup for ranks, sup in pairs}
    return MiningResult(
        [FrequentItemset(tuple(sorted(items, key=sort_key)), sup)
         for items, sup in decoded.items()],
        n_transactions=n_transactions, min_support=abs_support, method=method,
    )


def _facade_pass(jobs, paths, digests: dict | None = None, calibrator=None):
    """One untraced pass; returns (pass seconds, {job: facade mining seconds}).
    A calibrator samples after each job, outside its timing."""
    from repro import mine_frequent_itemsets
    from repro.data import read_dat

    total = 0.0
    per_job = {}
    for job in jobs:
        gc.collect()
        t0 = time.perf_counter()
        db = read_dat(paths[job.name])
        t1 = time.perf_counter()
        result = mine_frequent_itemsets(db, job.support, method=job.method)
        t2 = time.perf_counter()
        total += t2 - t0
        per_job[job.name] = t2 - t1
        if digests is not None:
            digests.setdefault(job.name, []).append((_digest(result), len(result)))
        del db, result
        if calibrator is not None:
            calibrator.sample()
    return total, per_job


def _traced_pass(jobs, paths, tracer, pass_no: int, digests: dict):
    """One pass through the facade's public building blocks, spanned."""
    from repro.core.plt import PLT
    from repro.core.rank import RankTable
    from repro.data.io import iter_dat_lines
    from repro.data.transaction_db import (
        TransactionDatabase, item_supports, resolve_min_support,
    )

    span = tracer.span
    total = 0.0
    for job in jobs:
        gc.collect()
        kernel_name, kernel = _kernel(job)
        rid = f"{job.name}#{pass_no}"
        t0 = time.perf_counter()
        with span("perfbench.job", rid):
            with span("data.io.read_dat", rid):
                rows = list(iter_dat_lines(paths[job.name]))
                with span("data.transaction_db.build", rid):
                    db = TransactionDatabase(rows)
            abs_support = resolve_min_support(job.support, len(db))
            with span("core.rank.scan1", rid):
                RankTable.from_supports(item_supports(db), min_support=abs_support)
            with span("core.plt.build", rid):
                plt = PLT.from_transactions(db, abs_support)
            with span(kernel_name, rid):
                pairs = kernel(plt, abs_support)
            with span("core.mining.materialize", rid):
                result = _materialize(plt, pairs, len(db), abs_support, job.method)
        total += time.perf_counter() - t0
        digests.setdefault(job.name, []).append((_digest(result), len(result)))
        del rows, db, plt, pairs, result
    return total


def _probe_pass(jobs, paths) -> dict:
    """Untimed: counters and traced-allocation peaks, one run per job."""
    from repro.core.plt import PLT
    from repro.data import read_dat
    from repro.data.transaction_db import resolve_min_support
    from repro.perf.counters import collecting

    out = {"n_paths": 0, "plt_peak": 0, "result_peak": 0, "itemsets": 0, "counts": {}}
    tracemalloc.start()
    try:
        for job in jobs:
            db = read_dat(paths[job.name])
            abs_support = resolve_min_support(job.support, len(db))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            plt = PLT.from_transactions(db, abs_support)
            out["plt_peak"] = max(out["plt_peak"], tracemalloc.get_traced_memory()[1] - base)
            out["n_paths"] += plt.n_vectors()
            _name, kernel = _kernel(job)
            with collecting() as counts:
                pairs = kernel(plt, abs_support)
            for key, value in counts.items():
                out["counts"][key] = out["counts"].get(key, 0) + value
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = _materialize(plt, pairs, len(db), abs_support, job.method)
            out["result_peak"] = max(
                out["result_peak"], tracemalloc.get_traced_memory()[1] - base
            )
            out["itemsets"] += len(result)
            del db, plt, pairs, result
    finally:
        tracemalloc.stop()
    return out


def _verify(jobs, paths, digests: dict, outcome: Outcome) -> None:
    """Each job once against fpgrowth; every recorded run must match."""
    from repro import mine_frequent_itemsets
    from repro.data import read_dat

    for job in jobs:
        reference = mine_frequent_itemsets(
            read_dat(paths[job.name]), job.support, method="fpgrowth"
        )
        want = _digest(reference)
        outcome.info.setdefault("jobs", {})[job.name] = {
            "method": job.method, "support": job.support,
            "itemsets": len(reference), "digest": want[:16],
        }
        for got, _n in digests.get(job.name, []):
            if got != want:
                outcome.fail(f"{job.name}: result digest {got[:12]} != fpgrowth {want[:12]}")


def run(seed: int, seconds: float, tracer, tiny: bool, scratch) -> Outcome:
    outcome = Outcome()
    jobs = _jobs(tiny)
    paths = _write_inputs(jobs, seed, tiny, scratch)

    # set-up: a fresh interpreter importing the package (first one untimed:
    # it may compile bytecode)
    common.time_fresh_interpreter(common.IMPORT_PROBE, 1)
    setup_cal = common.Calibrator()
    walls, imports = common.time_fresh_interpreter(common.IMPORT_PROBE, 11, setup_cal)
    setup_s = median(walls)
    run_cal = common.Calibrator()

    digests: dict = {}
    passes: list[float] = []
    traced_passes: list[float] = []
    facade_mine: dict[str, list[float]] = {job.name: [] for job in jobs}
    _facade_pass(jobs, paths)  # warm caches; not timed
    deadline = time.perf_counter() + seconds
    min_passes = 1 if tiny else 3
    normalized: list[float] = []  # each pass at the speed its own samples saw
    while True:
        total, per_job = _facade_pass(jobs, paths, digests, run_cal)
        passes.append(total)
        pass_cal = run_cal.samples[-len(jobs):]
        normalized.append(total * common.CALIBRATION_REF_S / median(pass_cal))
        for name, mine_s in per_job.items():
            facade_mine[name].append(mine_s)
        if tracer is not None:
            traced_passes.append(_traced_pass(jobs, paths, tracer, len(passes), digests))
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            break
    peak_rss = common.self_peak_rss_mib()
    outcome.attempted = sum(len(v) for v in digests.values())

    _verify(jobs, paths, digests, outcome)

    mine_s = median(passes)
    slowest = common.quantile(passes, 90)
    jobs_per_s = len(jobs) * len(passes) / sum(passes)
    outcome.metrics = {
        "setup_s": setup_s * setup_cal.factor(),
        "peak_rss_mib": peak_rss,
        "ops_per_s": len(jobs) * len(normalized) / sum(normalized),
        "latency_p50_ms": median(normalized) * 1e3,
        "latency_tail_ms": common.quantile(normalized, 90) * 1e3,
    }
    outcome.named = [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("mine_s", mine_s, "s"),
        (f"mine_s p90 (n={len(passes)})", slowest, "s"),
        ("jobs_per_s", jobs_per_s, "1/s"),
        ("calibration_ms (set-up)", median(setup_cal.samples) * 1e3, "ms"),
        ("calibration_ms (run)", median(run_cal.samples) * 1e3, "ms"),
    ]
    outcome.info["passes"] = len(passes)

    if tracer is not None:
        outcome.layers = _layers(jobs, paths, tracer, passes, traced_passes,
                                 facade_mine, imports)
    return outcome


def _layers(jobs, paths, tracer, passes, traced_passes, facade_mine, imports) -> dict:
    by_rid = {
        name: tracer.self_time_by_rid(name)
        for name in (
            "data.io.read_dat", "data.transaction_db.build", "core.rank.scan1",
            "core.plt.build", "core.conditional.mine", "core.topdown.mine",
            "core.mining.materialize",
        )
    }
    n_passes = len(traced_passes)

    def per_pass(name) -> float:
        """Median over traced passes of the layer's summed self time."""
        sums = [
            sum(by_rid[name].get(f"{job.name}#{p}", 0.0) for job in jobs)
            for p in range(1, n_passes + 1)
        ]
        return median(sums)

    def job_median(name, job) -> float:
        return median([by_rid[name].get(f"{job.name}#{p}", 0.0)
                       for p in range(1, n_passes + 1)])

    residual = 0.0
    for job in jobs:
        layers = sum(job_median(n, job) for n in
                     ("core.plt.build", _kernel(job)[0], "core.mining.materialize"))
        residual += median(facade_mine[job.name]) - layers

    probe = _probe_pass(jobs, paths)
    counts = probe["counts"]
    return {
        "data.io.read_dat_s": per_pass("data.io.read_dat"),
        "data.transaction_db.build_s": per_pass("data.transaction_db.build"),
        "core.rank.scan1_s": per_pass("core.rank.scan1"),
        "core.plt.build_s": per_pass("core.plt.build"),
        "core.plt.n_paths": probe["n_paths"],
        "core.plt.peak_bytes": probe["plt_peak"],
        "core.conditional.mine_s": per_pass("core.conditional.mine"),
        "core.conditional.buckets_touched": counts.get("cond_buckets_touched", 0),
        "core.conditional.work_items_merged": counts.get("cond_work_items_merged", 0),
        "core.conditional.structures_built": counts.get("cond_structures_built", 0),
        "core.conditional.single_path_shortcuts": counts.get("cond_single_path_shortcuts", 0),
        "core.topdown.mine_s": per_pass("core.topdown.mine"),
        "core.topdown.work_vectors": counts.get("topdown_work_vectors", 0),
        "core.mining.materialize_s": per_pass("core.mining.materialize"),
        "core.mining.itemsets": probe["itemsets"],
        "core.mining.result_peak_bytes": probe["result_peak"],
        "core.mining.residual_s": residual,
        "repro.import_s": median(imports),
        "perfbench.trace_overhead_ms": (median(traced_passes) - median(passes)) * 1e3,
    }
