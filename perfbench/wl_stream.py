"""``stream-ingest``: Quest transactions into a sliding-window sketch.

The generated ``.dat`` file is replayed as one continuing stream through
``iter_dat_stream`` into a ``StreamIngestor`` over one
``SlidingWindowSketch`` (window 5000, 4 buckets), with a ``top_k(10)``
report every 1000 transactions and one snapshot at the end of each
replay.  Ingest stops at the first report boundary after the time is up.  ``ops_per_s`` is transactions per
second including report pauses and snapshots (``ingest_tx_per_s``);
``latency_p50_ms`` is the median time to ingest a window (any 5000
consecutive transactions with their five reports); ``latency_tail_ms`` the
75th percentile, interpolated, of the report-to-report times (1000
transactions plus one ``top_k``): a fixed percentile, as the number of
intervals in a run follows the machine's speed.  The median report alone
(``report_p50_ms``) is printed but not reported as an end-to-end metric:
across runs it, like the median report-to-report time, spread more than
the benchmark's bounds allow, because machine speed drifts between states
lasting seconds and the median of short samples flips between them.  Set-up, rate and latency
are normalized by calibration samples taken after each report (see
``common.calibration``); the raw figures are printed too.

Verification, after the timed ingest: every reported heavy hitter's
estimate is at least its exact count over the window the sketch covered
at report time and at most that count plus the sketch's advertised
bound; every snapshot reloads to the same digest.
"""

from __future__ import annotations

import time

import common
from common import Outcome, median

N_TRANSACTIONS = 20_000
N_ITEMS = 1000
STRUCTURE_SEED = 31
WINDOW = 5000
BUCKETS = 4
REPORT_EVERY = 1000
TOP_K = 10

SETUP_PROBE = (
    "import time; t = time.perf_counter()\n"
    "from repro.data.io import iter_dat_stream\n"
    "from repro.stream import SlidingWindowSketch, StreamIngestor\n"
    f"StreamIngestor(SlidingWindowSketch({WINDOW}, buckets={BUCKETS}), "
    f"report_every={REPORT_EVERY})\n"
    "print(time.perf_counter() - t)"
)


class _TracedSketch:
    """Spans around the sketch calls ``StreamIngestor`` and reports make."""

    def __init__(self, sketch, tracer, rid):
        self.sketch = sketch
        self.tracer = tracer
        self.rid = rid

    def push(self, transaction) -> None:
        with self.tracer.span("stream.window.push", self.rid):
            self.sketch.push(transaction)

    def top_k(self, k):
        with self.tracer.span("stream.window.top_k", self.rid):
            return self.sketch.top_k(k)


def _traced_source(source, tracer, rid):
    it = iter(source)
    span = tracer.span
    while True:
        with span("data.io.iter_dat_stream", rid):
            t = next(it, None)
        if t is None:
            return
        yield t


def _until(source, deadline):
    """Stop at the first report boundary past ``deadline``."""
    for i, t in enumerate(source):
        if i and i % REPORT_EVERY == 0 and time.perf_counter() >= deadline:
            return
        yield t


def _ingest(path, store, deadline, reports, outcome, calibrator, tracer=None):
    """Replay the file as one continuing stream into one sketch until the
    deadline, snapshotting after each replay; returns (replays, sketch).

    A calibration sample follows each report; its time is taken out of
    the report timestamps and the replay times."""
    from repro.data.io import iter_dat_stream
    from repro.stream import SlidingWindowSketch, StreamIngestor, save_sketch

    sketch = SlidingWindowSketch(WINDOW, buckets=BUCKETS)
    traced = tracer is not None
    target = _TracedSketch(sketch, tracer, "ingest") if traced else sketch

    paused = [0.0]

    def on_report(sk, n):
        t0 = time.perf_counter()
        result = sk.top_k(TOP_K)
        dt = time.perf_counter() - t0
        at = t0 - paused[0]
        paused[0] += calibrator.sample()
        info = result.info
        reports.append({
            "traced": traced, "n": n, "at": at, "seconds": dt,
            "covered": result.n_transactions,
            "bounds": (info["error_bound"], info["pair_error_bound"]),
            "rows": [(fi.items, fi.support) for fi in result],
        })

    ingestor = StreamIngestor(target, report_every=REPORT_EVERY, on_report=on_report)
    replays = []  # (transactions, seconds, snapshot seconds)
    while True:
        t0 = time.perf_counter() - paused[0]
        with open(path, "rb") as fh:
            source = iter_dat_stream(fh)
            if traced:
                source = _traced_source(source, tracer, "ingest")
            fed = ingestor.feed(_until(source, deadline))
        t1 = time.perf_counter()
        if traced:
            with tracer.span("stream.ingest.snapshot", "ingest"):
                save_sketch(store, sketch)
        else:
            save_sketch(store, sketch)
        t2 = time.perf_counter()
        replays.append((fed, t2 - paused[0] - t0, t2 - t1))
        _check_snapshot(store, sketch, outcome)
        if time.perf_counter() >= deadline and ingestor.n_reports >= 3:
            return replays, sketch


def _verify(rows, reports, outcome: Outcome) -> None:
    """Each report's heavy hitters against exact counts over the window it
    covered of the stream (the file repeated)."""
    n_rows = len(rows)
    copies = -(-(WINDOW + -(-WINDOW // BUCKETS)) // n_rows) + 1
    bits = common.bitsets(rows * copies)
    for rep in reports:
        outcome.attempted += 1
        n, covered = rep["n"], rep["covered"]
        lo = (n - covered) % n_rows
        bound1, bound2 = rep["bounds"]
        for items, est in rep["rows"]:
            exact = common.support_in(bits, items, lo, lo + covered)
            bound = bound1 if len(items) == 1 else bound2
            if not exact <= est <= exact + bound:
                outcome.fail(f"report @{n}: {items} estimate {est}, "
                             f"exact {exact}, bound {bound}")
                break


def _intervals(reports, traced: bool, span: int = 1) -> list[float]:
    """Times from each report to the ``span``-th next one: ``span`` x 1000
    transactions ingested, with their reports (overlapping when span > 1)."""
    marks = [rep["at"] for rep in reports if rep["traced"] == traced]
    return [end - start for start, end in zip(marks, marks[span:])]


def _check_snapshot(store, sketch, outcome: Outcome) -> None:
    from repro.stream import load_sketch, sketch_digest

    outcome.attempted += 1
    restored = load_sketch(store)
    if restored is None or sketch_digest(restored) != sketch_digest(sketch):
        outcome.fail("snapshot does not reload to the ingested sketch")


def run(seed: int, seconds: float, tracer, tiny: bool, scratch) -> Outcome:
    from repro.data import generate_quest, write_dat
    from repro.robustness.checkpoint import CheckpointStore

    outcome = Outcome()
    n = N_TRANSACTIONS // 10 if tiny else N_TRANSACTIONS
    db = generate_quest(n_transactions=n, avg_transaction_len=10, avg_pattern_len=4,
                        seed=STRUCTURE_SEED)
    rows = common.relabel(db, N_ITEMS, seed, "stream")
    del db
    path = scratch / "stream.dat"
    write_dat(rows, path)

    common.time_fresh_interpreter(SETUP_PROBE, 1)
    setup_cal = common.Calibrator()
    walls, _ = common.time_fresh_interpreter(SETUP_PROBE, 11, setup_cal)
    setup_s = median(walls)

    store = CheckpointStore(scratch / "sketch")
    reports: list[dict] = []
    run_cal = common.Calibrator()
    if tracer is None:
        replays, sketch = _ingest(path, store, time.perf_counter() + seconds,
                                  reports, outcome, run_cal)
        traced_replays = []
    else:
        replays, _ = _ingest(path, store, time.perf_counter() + seconds / 2,
                             reports, outcome, run_cal)
        traced_replays, sketch = _ingest(path, store, time.perf_counter() + seconds / 2,
                                         reports, outcome, run_cal, tracer)
    peak_rss = common.self_peak_rss_mib()
    _verify(rows, reports, outcome)

    tx_per_s = sum(r[0] for r in replays) / sum(r[1] for r in replays)
    report_p50 = median([r["seconds"] for r in reports if not r["traced"]])
    interval_s = _intervals(reports, traced=False)
    window_s = _intervals(reports, traced=False, span=WINDOW // REPORT_EVERY)
    p50 = median(window_s or interval_s)
    p_tail = common.quantile(interval_s, 75)
    k_setup, k_run = setup_cal.factor(), run_cal.factor()
    outcome.metrics = {
        "setup_s": setup_s * k_setup,
        "peak_rss_mib": peak_rss,
        "ops_per_s": tx_per_s / k_run,
        "latency_p50_ms": p50 * 1e3 * k_run,
        "latency_tail_ms": p_tail * 1e3 * k_run,
    }
    outcome.named = [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("ingest_tx_per_s", tx_per_s, "1/s"),
        ("report_p50_ms", report_p50 * 1e3, "ms"),
        (f"window_p50_ms (n={len(window_s)})", p50 * 1e3, "ms"),
        (f"interval_p75_ms (n={len(interval_s)})", p_tail * 1e3, "ms"),
        ("calibration_ms (set-up)", median(setup_cal.samples) * 1e3, "ms"),
        ("calibration_ms (run)", median(run_cal.samples) * 1e3, "ms"),
    ]
    outcome.info.update({"replays": len(replays) + len(traced_replays),
                         "reports": len(reports),
                         "ingested": sum(r[0] for r in replays + traced_replays)})
    if tracer is not None:
        outcome.layers = _layers(rows, tracer, replays + traced_replays, reports, sketch)
    return outcome


def _layers(rows, tracer, replays, reports, sketch) -> dict:
    from repro.stream import CountMinSketch, RankRegistry, SpaceSaving, pack_pair
    from repro.stream import sketch_to_blob

    self_times = tracer.self_times()

    # the key sequences StreamSummary.push feeds its item and pair
    # counters, replayed through fresh counters of the sketch's shape
    registry = RankRegistry()
    item_keys, pair_keys = [], []
    sample = rows[:WINDOW]
    for t in sample:
        ranks = sorted({registry.rank_for(item) for item in t})
        item_keys.extend(ranks)
        pair_keys.extend((r1, r2) for i, r1 in enumerate(ranks) for r2 in ranks[i + 1:])
    packed = [pack_pair(r1, r2) for r1, r2 in pair_keys]
    n_keys = len(item_keys) + len(pair_keys)

    def per_add_ns(counter_factory, streams) -> float:
        elapsed = 0.0
        for keys in streams:
            add = counter_factory().add
            t0 = time.perf_counter()
            for key in keys:
                add(key)
            elapsed += time.perf_counter() - t0
        return elapsed / n_keys * 1e9

    cms_ns = per_add_ns(lambda: CountMinSketch(sketch.epsilon, sketch.delta),
                        (item_keys, packed))
    ss_ns = per_add_ns(lambda: SpaceSaving(sketch.capacity), (item_keys, pair_keys))

    return {
        "data.io.iter_dat_stream_us": median(self_times["data.io.iter_dat_stream"]) * 1e6,
        "stream.window.push_us": median(self_times["stream.window.push"]) * 1e6,
        "stream.cms.add_ns": cms_ns,
        "stream.spacesaving.add_ns": ss_ns,
        "stream.keys_per_tx": n_keys / len(sample),
        "stream.window.top_k_ms": median(self_times["stream.window.top_k"]) * 1e3,
        "stream.sketch_bytes": sketch.memory_bytes(),
        "stream.snapshot_bytes": len(sketch_to_blob(sketch)),
        "stream.ingest.snapshot_s": median([r[2] for r in replays]),
        "repro.import_s": median(common.time_fresh_interpreter(common.IMPORT_PROBE, 3)[1]),
        "perfbench.trace_overhead_ms": (median(_intervals(reports, True))
                                        - median(_intervals(reports, False))) * 1e3,
    }
