"""``serve``: the exact pattern daemon under one closed-loop connection.

The daemon (``python -m repro serve --db ... --snapshot DIR``) runs as a
child process.  An untimed cold start writes the snapshot.  Then five
cycles each restart the daemon warm (READY, restored from the snapshot),
run the warm-up that builds the rule tables (together the set-up), serve
a fifth of the timed load, read the daemon's ``stats`` and VmHWM, and stop
it with SIGTERM.  ``setup_s`` and ``peak_rss_mib`` are medians over the
five daemons: one daemon's peak depends on which ``topk`` misses ran at
once, and spread by 0.12 of its median across seeds.  The one connection
sends its next request when the previous answer arrived.  Mix: ~70%
``frequency`` on 1-3 Zipf-drawn frequent items (5% of them with an item
never seen), ~25% ``topk`` (k=10, Zipf over ~355 items, so the 128-entry
cache thrashes), ~4% ``recommend`` on 2-3-item baskets, ~1% ``rules`` at
three confidence levels.

One connection, not two: on a 2-core host two callers make the daemon's
two handler threads take turns at its interpreter lock, and the median
latency then measured those hand-offs; it spread by up to a quarter of
its median across ten seeds.  The benchmark process and the daemons it
starts share one CPU (the lowest in the benchmark's affinity set): a
closed loop never runs both at once, and unpinned, the scheduler's choice
of one core or two for the pair moved a run's median by a quarter.

Set-up, rate and latency are scaled to the reference machine speed by
calibration samples (``common.calibration``) taken on that CPU before,
after and every second during each cycle's load: each cycle's times by
the median of its own samples.  Across ten seeds, while the machine's
speed drifted, the unscaled median latency spread by 0.18 of its median
and the scaled one by 0.05; the raw figures and the calibration median
are printed too.

Every answer is verified after the timed window: ``frequency`` against
supports counted here, the rest against an in-process ``PatternEngine``
over the same snapshot.  Leaks (a non-zero exit after SIGTERM, a
surviving child, a new /dev/shm entry) count as failed operations.

The traced run splits each cycle's load into an untraced and a traced
half (client spans), then replays the logged requests through an
in-process engine to separate engine time from wire time.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc

import common
from common import BenchError, Outcome, median

#: Quest T10.I4.D40K, structure fixed; sized so the warm restart's index
#: restore outweighs interpreter start-up.
N_TRANSACTIONS = 40_000
N_ITEMS = 1000
STRUCTURE_SEED = 21
MIN_SUPPORT = 0.01
CONFIDENCES = (0.5, 0.7, 0.9)
#: warm restarts; each serves an equal share of the timed load
CYCLES = 5
#: seconds of load between calibration samples
SLICE_S = 1.0
OPS = ("frequency", "topk", "recommend", "rules")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _inputs(seed: int, tiny: bool, scratch):
    from repro.data import generate_quest, item_supports, write_dat
    from repro.data.transaction_db import resolve_min_support

    n = N_TRANSACTIONS // 10 if tiny else N_TRANSACTIONS
    db = generate_quest(n_transactions=n, avg_transaction_len=10, avg_pattern_len=4,
                        seed=STRUCTURE_SEED)
    rows = common.relabel(db, N_ITEMS, seed, "serve")
    path = scratch / "serve.dat"
    write_dat(rows, path)
    abs_support = resolve_min_support(MIN_SUPPORT, len(rows))
    supports = item_supports(rows)
    frequent = sorted((i for i, s in supports.items() if s >= abs_support),
                      key=lambda i: (-supports[i], i))
    return path, rows, frequent, abs_support


class RequestMix:
    """Seeded request generator over the frequent items (Zipf, s=1)."""

    def __init__(self, frequent, rng: random.Random):
        self.items = frequent
        self.cum = []
        acc = 0.0
        for r in range(len(frequent)):
            acc += 1.0 / (r + 1)
            self.cum.append(acc)
        self.rng = rng

    def _draw(self, k: int) -> list:
        chosen: list = []
        while len(chosen) < k:
            item = self.rng.choices(self.items, cum_weights=self.cum)[0]
            if item not in chosen:
                chosen.append(item)
        return chosen

    def next(self) -> dict:
        rng = self.rng
        u = rng.random()
        if u < 0.70:
            items = self._draw(rng.randint(1, 3))
            if rng.random() < 0.05:
                items[-1] = 10_000_000 + rng.randrange(1000)  # never seen
            return {"op": "frequency", "items": items}
        if u < 0.95:
            return {"op": "topk", "item": self._draw(1)[0], "k": 10}
        if u < 0.99:
            return {"op": "recommend", "basket": self._draw(rng.randint(2, 3)),
                    "min_confidence": CONFIDENCES[0]}
        return {"op": "rules", "min_confidence": rng.choice(CONFIDENCES), "limit": 50}


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------
class Daemon:
    """One ``python -m repro serve`` child process."""

    def __init__(self, db_path, snap_dir, scratch, tag: str):
        self.cmd = [sys.executable, "-m", "repro", "serve", "--db", str(db_path),
                    "--min-support", str(MIN_SUPPORT), "--snapshot", str(snap_dir)]
        self.stderr_path = scratch / f"daemon-{tag}.err"
        self.proc = None
        self.port = None
        self.ready_line = ""

    def start(self, timeout: float = 120.0) -> None:
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                self.cmd, cwd=common.ROOT, env=common.child_env(),
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("READY"):
                    self.ready_line = line.strip()
                    fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
                    self.port = int(fields["port"])
                    return
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.kill()
        raise BenchError(f"daemon never became READY: {self.stderr_path.read_text()[-400:]}")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def stop(self, outcome: Outcome) -> None:
        """SIGTERM; a bad exit, a surviving child or a new shm entry fails."""
        kids = common.children_of(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            outcome.fail("daemon ignored SIGTERM for 30 s")
            return
        outcome.attempted += 1
        if self.proc.returncode != 0:
            outcome.fail(f"daemon exited with {self.proc.returncode}: "
                         f"{self.stderr_path.read_text()[-300:]}")
        for pid in kids:
            if common.alive(pid):
                outcome.fail(f"daemon child {pid} survived its parent")


def _warmup(port: int) -> None:
    """Fill the lazily built rule tables the timed mix reads."""
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        for conf in CONFIDENCES:
            client.check({"op": "rules", "min_confidence": conf, "limit": 50})


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
def _closed_loop(port, mix, seconds, outcome, calibrator, tracer=None, offset=0):
    """Send requests over one connection for ``seconds`` of load, each when
    the previous answer arrived, pausing for a calibration sample after
    every ``SLICE_S``; returns (log, load seconds), a log entry being
    (start, latency, payload, envelope)."""
    from repro.errors import ServeError
    from repro.serve import ServeClient

    log = []
    client = ServeClient("127.0.0.1", port)
    t_start = time.perf_counter()
    deadline = t_start + seconds
    next_sample = t_start + SLICE_S
    paused = 0.0
    i = offset
    try:
        while time.perf_counter() < deadline:
            if time.perf_counter() >= next_sample:
                t0 = time.perf_counter()
                calibrator.sample()
                t1 = time.perf_counter()
                paused += t1 - t0
                deadline += t1 - t0
                next_sample = t1 + SLICE_S
            payload = mix.next()
            i += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    envelope = client.request(payload)
                else:
                    with tracer.span("serve.client.request", str(i)):
                        envelope = client.request(payload)
            except (ServeError, OSError) as exc:
                outcome.attempted += 1
                outcome.fail(f"request {i}: {exc}")
                client.close()
                try:
                    client = ServeClient("127.0.0.1", port)
                except OSError:
                    break  # the daemon is gone; the stop check reports it
                continue
            log.append((t0, time.perf_counter() - t0, payload, envelope))
    finally:
        client.close()
    return log, time.perf_counter() - t_start - paused


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
def _canonical(obj):
    return json.loads(json.dumps(obj))


def _verify(log, rows, frequent, abs_support, engine, outcome: Outcome) -> None:
    bits = common.bitsets(rows)
    known = set(frequent)
    expected: dict = {}
    for _t0, _dt, payload, envelope in log:
        outcome.attempted += 1
        if not envelope.get("ok"):
            outcome.fail(f"{payload['op']}: {envelope.get('code')} {envelope.get('error')}")
            continue
        result = envelope["result"]
        if payload["op"] == "frequency":
            items = payload["items"]
            if all(i in known for i in items):
                want = common.support_in(bits, items)
                good = (result["known"] and result["support"] == want
                        and result["frequent"] == (want >= abs_support))
            else:
                good = not result["known"] and result["support"] is None
            if not good:
                outcome.fail(f"frequency {items}: got {result}")
            continue
        key = json.dumps(payload, sort_keys=True)
        if key not in expected:
            reply = engine.handle(payload)
            expected[key] = (reply["ok"], _canonical(reply.get("result")),
                             reply.get("complete"))
        if expected[key] != (True, result, envelope.get("complete")):
            outcome.fail(f"{payload['op']} {key}: daemon and in-process engine disagree")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------
def _sum_stats(total: dict, stats: dict) -> None:
    """Add one daemon's cache counters to ``total``."""
    for key, value in stats["cache"].items():
        if key not in ("capacity", "size"):
            total[key] = total.get(key, 0) + value


def run(seed: int, seconds: float, tracer, tiny: bool, scratch) -> Outcome:
    from repro.errors import ReproError
    from repro.robustness.checkpoint import CheckpointStore
    from repro.serve import PatternEngine, ServeClient
    from repro.serve.snapshot import load_snapshot

    outcome = Outcome()
    db_path, rows, frequent, abs_support = _inputs(seed, tiny, scratch)
    snap_dir = scratch / "snapshot"
    shm_before = common.shm_entries()

    cold = Daemon(db_path, snap_dir, scratch, "cold")
    try:
        cold.start()
        cold.stop(outcome)
    finally:
        cold.kill()

    mix = RequestMix(frequent, random.Random(f"serve:{seed}"))
    calibrator = common.Calibrator()
    scaled, scaled_busy, scaled_setups = [], 0.0, []
    setups, readies, warmups, peaks = [], [], [], []
    log, traced_log, busy = [], [], 0.0
    cache: dict = {}  # cache counters summed over the daemons
    share = seconds / CYCLES
    daemon = None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the daemons inherit it
    try:
        for n in range(CYCLES):
            daemon = Daemon(db_path, snap_dir, scratch, f"warm{n}")
            t0 = time.perf_counter()
            daemon.start()
            t1 = time.perf_counter()
            if "restored=1" not in daemon.ready_line:
                outcome.fail(f"warm start did not restore: {daemon.ready_line}")
            _warmup(daemon.port)
            t2 = time.perf_counter()
            setups.append(t2 - t0)
            readies.append(t1 - t0)
            warmups.append(t2 - t1)

            # the growing log is the benchmark's garbage: collecting it
            # would time this process's heap in requests and samples alike
            gc.disable()
            try:
                first = len(calibrator.samples)
                calibrator.sample()
                if tracer is None:
                    part, elapsed = _closed_loop(daemon.port, mix, share, outcome,
                                                 calibrator)
                else:
                    part, elapsed = _closed_loop(daemon.port, mix, share / 2, outcome,
                                                 calibrator)
                    traced_log += _closed_loop(daemon.port, mix, share / 2, outcome,
                                               calibrator, tracer,
                                               len(log) + len(part) + len(traced_log))[0]
                calibrator.sample()
            finally:
                gc.enable()
            k = common.CALIBRATION_REF_S / median(calibrator.samples[first:])
            scaled.extend(dt * k for _t0, dt, _p, _e in part)
            scaled_busy += elapsed * k
            scaled_setups.append((t2 - t0) * k)
            log += part
            busy += elapsed
            try:
                with ServeClient("127.0.0.1", daemon.port) as client:
                    _sum_stats(cache, client.check({"op": "stats"})["result"])
                peaks.append(common.proc_peak_rss_mib(daemon.proc.pid))
            except (ReproError, OSError, BenchError) as exc:
                outcome.fail(f"daemon {n} unreachable after its timed window: {exc}")
            daemon.stop(outcome)
            daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
        os.sched_setaffinity(0, cpus)
    leaked = common.shm_entries() - shm_before
    if leaked:
        outcome.fail(f"/dev/shm entries left behind: {sorted(leaked)}", len(leaked))

    loaded = load_snapshot(CheckpointStore(snap_dir))
    if loaded is None:
        raise BenchError("the daemon's snapshot does not load in-process")
    index = loaded[0]
    _verify(log + traced_log, rows, frequent, abs_support,
            PatternEngine(index, cache_size=1 << 16), outcome)

    latencies = [dt for _t0, dt, _p, _e in log]
    p50, p99 = median(latencies), common.tail(latencies)
    qps = len(log) / busy
    setup_s = median(setups)
    peak_rss = median(peaks) if peaks else 0.0
    outcome.metrics = {
        "setup_s": median(scaled_setups),
        "peak_rss_mib": peak_rss,
        "ops_per_s": len(log) / scaled_busy,
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_tail_ms": common.tail(scaled) * 1e3,
    }
    outcome.named = [
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        ("qps", qps, "1/s"),
        ("latency_p50_ms", p50 * 1e3, "ms"),
        (f"latency_p99_ms (n={len(latencies)})", p99 * 1e3, "ms"),
        ("calibration_ms", median(calibrator.samples) * 1e3, "ms"),
    ]
    outcome.info.update({
        "requests": len(log) + len(traced_log),
        "ops": {op: sum(1 for e in log if e[2]["op"] == op) for op in OPS},
        "frequent_items": len(frequent),
        "daemon_cache": cache,
        "peak_rss_mib_per_daemon": peaks,
    })
    if tracer is not None:
        outcome.layers = _layers(log, traced_log, index, snap_dir, cache,
                                 readies, warmups)
    return outcome


def _layers(log, traced_log, index, snap_dir, cache, readies, warmups) -> dict:
    from repro.robustness.checkpoint import CheckpointStore
    from repro.serve import PatternEngine, decode_message, encode_message
    from repro.serve.snapshot import load_snapshot, snapshot_blob

    restores = []
    for _ in range(3):
        t0 = time.perf_counter()
        load_snapshot(CheckpointStore(snap_dir))
        restores.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        load_snapshot(CheckpointStore(snap_dir))
        index_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # in-process replay of the logged sequence, with the daemon's cache size
    engine = PatternEngine(index)
    in_process: dict[str, list[float]] = {op: [] for op in OPS}
    replay_deadline = time.perf_counter() + 8.0
    for _t0, _dt, payload, _env in log:
        t0 = time.perf_counter()
        engine.handle(payload)
        in_process[payload["op"]].append(time.perf_counter() - t0)
        if time.perf_counter() > replay_deadline:
            break
    socket_ms = {op: [dt for _t, dt, p, _e in log if p["op"] == op] for op in OPS}

    def p50_ms(values) -> float:
        return median(values) * 1e3 if values else 0.0

    # compress.index: the postings lookup a known-item frequency query makes
    table = index.rank_table
    support_s = []
    for _t0, _dt, payload, _env in log[:4000]:
        if payload["op"] == "frequency" and all(i in table for i in payload["items"]):
            ranks = table.encode_itemset(payload["items"])
            t0 = time.perf_counter()
            index.postings.support(ranks)
            support_s.append(time.perf_counter() - t0)

    # serve.protocol: framing + JSON on the run's own payloads
    encode_s, decode_s, sizes = [], [], []
    for seq, (_t0, _dt, payload, envelope) in enumerate(log[:4000], 1):
        request_bytes = 0
        for obj in (payload, envelope):
            t0 = time.perf_counter()
            message = encode_message(seq, obj)
            t1 = time.perf_counter()
            decode_message(message[4:])
            t2 = time.perf_counter()
            encode_s.append(t1 - t0)
            decode_s.append(t2 - t1)
            request_bytes += len(message)
        sizes.append(request_bytes)

    lookups = sum(cache.get(key, 0) for key in ("hits", "misses", "coalesced"))
    traced = [dt for _t0, dt, _p, _e in traced_log]
    untraced = [dt for _t0, dt, _p, _e in log]
    layers = {
        "serve.ready_s": median(readies),
        "serve.warmup_s": median(warmups),
        "serve.snapshot.restore_s": median(restores),
        "serve.snapshot.blob_bytes": len(snapshot_blob(index)),
        "serve.engine.index_peak_bytes": index_peak,
        "compress.index.support_us": median(support_s) * 1e6 if support_s else 0.0,
        "serve.protocol.encode_us": median(encode_s) * 1e6,
        "serve.protocol.decode_us": median(decode_s) * 1e6,
        "serve.protocol.bytes_per_request": sum(sizes) / len(sizes),
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache.evictions": cache.get("evictions", 0),
        "repro.import_s": median(common.time_fresh_interpreter(common.IMPORT_PROBE, 3)[1]),
        "perfbench.trace_overhead_ms": (median(traced) - median(untraced)) * 1e3,
    }
    for op in OPS:
        engine_ms = p50_ms(in_process[op])
        layers[f"serve.engine.{op}_ms"] = engine_ms
        layers[f"serve.server.wire_{op}_ms"] = (
            p50_ms(socket_ms[op]) - engine_ms if in_process[op] else 0.0
        )
    return layers

