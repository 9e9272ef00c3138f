"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``mine``      mine frequent (or closed/maximal) itemsets from a ``.dat`` file
``rules``     mine association rules
``generate``  produce a synthetic workload file (quest/dense/zipf/uniform)
``encode``    build a PLT from a ``.dat`` file and serialize it
``info``      dataset and PLT statistics
``datasets``  list the built-in benchmark workloads
``bench``     time the optimized kernels against the frozen references
``chaos``     run distributed mining under injected faults and verify it
``serve``     long-lived pattern-serving daemon (framed JSON over TCP)
``stream``    one-pass bounded-memory sketch ingestion with snapshots

All commands read/write the FIMI ``.dat`` format (gzip by extension).
Exit status is 0 on success, 2 on bad arguments, 1 on runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _support_value(text: str) -> float | int:
    """min-support argument: int count (``25``) or fraction (``0.01``)."""
    try:
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid support {text!r}") from None


def _size_value(text: str) -> int:
    """byte-size argument: plain int or with a k/m/g suffix (``64m``)."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, scale in (("g", 1 << 30), ("m", 1 << 20), ("k", 1 << 10)):
        if raw.endswith(suffix):
            raw, multiplier = raw[: -len(suffix)], scale
            break
    try:
        value = int(float(raw) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLT frequent-itemset mining (Boukerche & Samarah, ICPP 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine frequent itemsets from a .dat file")
    p_mine.add_argument("--input", required=True, help=".dat or .dat.gz file")
    p_mine.add_argument("--min-support", type=_support_value, required=True)
    p_mine.add_argument(
        "--method",
        default="plt",
        help="mining algorithm (default: plt; see repro.core.mining.METHODS)",
    )
    p_mine.add_argument("--max-len", type=int, default=None)
    p_mine.add_argument(
        "--kind",
        choices=["all", "closed", "maximal"],
        default="all",
        help="full frequent set, or a condensed representation",
    )
    p_mine.add_argument("--relative", action="store_true", help="print fractional supports")
    p_mine.add_argument("--output", default=None, help="write results here instead of stdout")
    p_mine.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry print the partial result mined so far",
    )
    p_mine.add_argument(
        "--max-itemsets",
        type=int,
        default=None,
        metavar="N",
        help="stop after emitting N itemsets",
    )
    p_mine.add_argument(
        "--memory-budget",
        type=_size_value,
        default=None,
        metavar="BYTES",
        help="approximate mining-state budget (accepts k/m/g suffixes)",
    )
    p_mine.add_argument(
        "--degrade",
        choices=["sampling", "topk", "sketch"],
        default=None,
        help="on budget exhaustion fall back to an approximate strategy "
        "instead of returning a partial result",
    )
    p_mine.add_argument(
        "--transport",
        choices=["pickle", "shm"],
        default=None,
        help="worker transport for --method plt-parallel (shm: zero-copy "
        "shared-memory columns; pickle: classic per-task serialization)",
    )
    p_mine.add_argument(
        "--backend",
        choices=["sim", "process"],
        default=None,
        help="cluster backend for --method plt-distributed "
        "(sim: in-process simulator; process: real worker processes)",
    )
    p_mine.add_argument(
        "--n-nodes",
        type=int,
        default=None,
        help="cluster size for --method plt-distributed (default 4)",
    )

    p_rules = sub.add_parser("rules", help="mine association rules")
    p_rules.add_argument("--input", required=True)
    p_rules.add_argument("--min-support", type=_support_value, required=True)
    p_rules.add_argument("--min-confidence", type=float, required=True)
    p_rules.add_argument("--min-lift", type=float, default=None)
    p_rules.add_argument("--method", default="plt")
    p_rules.add_argument("--top", type=int, default=None, help="print only the top-N rules")
    p_rules.add_argument("--output", default=None)

    p_gen = sub.add_parser("generate", help="generate a synthetic workload")
    p_gen.add_argument("--kind", choices=["quest", "dense", "zipf", "uniform"], required=True)
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--transactions", type=int, default=10_000)
    p_gen.add_argument("--items", type=int, default=500)
    p_gen.add_argument("--avg-len", type=float, default=10.0)
    p_gen.add_argument("--seed", type=int, default=0)

    p_enc = sub.add_parser("encode", help="build and serialize a PLT")
    p_enc.add_argument("--input", required=True)
    p_enc.add_argument("--min-support", type=_support_value, required=True)
    p_enc.add_argument("--output", required=True)
    p_enc.add_argument("--gzip", action="store_true")

    p_info = sub.add_parser("info", help="dataset / structure statistics")
    p_info.add_argument("--input", required=True)
    p_info.add_argument("--min-support", type=_support_value, default=None)

    sub.add_parser("datasets", help="list built-in benchmark workloads")

    p_bench = sub.add_parser(
        "bench",
        help="run the pinned kernel benchmark matrix (legacy vs optimized)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="one workload per group (the CI smoke subset)",
    )
    p_bench.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="best-of repeat count (default: 3, or 2 with --quick)",
    )
    p_bench.add_argument(
        "--output",
        default=None,
        help="write the JSON report here (e.g. BENCH_PR2.json)",
    )
    p_bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="fail (exit 1) if any workload's speedup ratio regressed "
        "more than the tolerance vs this committed baseline",
    )
    p_bench.add_argument(
        "--transport",
        choices=["both", "pickle", "shm"],
        default="both",
        help="which transports the parallel workloads exercise "
        "(default: both, which also checks the ipc_bytes_sent gate)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection check: distributed mining must match serial",
    )
    p_chaos.add_argument("--input", default=None, help=".dat file (default: synthetic)")
    p_chaos.add_argument("--min-support", type=_support_value, default=2)
    p_chaos.add_argument("--n-nodes", type=int, default=4)
    p_chaos.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p_chaos.add_argument("--drop-rate", type=float, default=0.08)
    p_chaos.add_argument("--corrupt-rate", type=float, default=0.04)
    p_chaos.add_argument("--duplicate-rate", type=float, default=0.05)
    p_chaos.add_argument("--delay-rate", type=float, default=0.05)
    p_chaos.add_argument(
        "--crash",
        action="append",
        default=None,
        metavar="NODE:SUPERSTEP",
        help="crash a node (repeatable), e.g. --crash 2:3",
    )
    p_chaos.add_argument(
        "--max-retries", type=int, default=6,
        help="channel retransmit budget before a peer is declared dead",
    )
    p_chaos.add_argument(
        "--backend",
        choices=["sim", "process"],
        default="sim",
        help="cluster backend: sim (in-process simulator, default) or "
        "process (real worker processes over localhost TCP; --crash "
        "becomes a real SIGKILL)",
    )
    p_chaos.add_argument(
        "--serve",
        action="store_true",
        help="serve-tier chaos instead of distributed mining: run a "
        "supervised daemon under seeded kills/hangs/torn snapshots and "
        "verify a ResilientClient's answers are bit-for-bit identical to "
        "an undisturbed engine (with no --input: synthetic data at "
        "min-support 10)",
    )
    p_chaos.add_argument(
        "--requests", type=int, default=36,
        help="scripted queries in the --serve differential workload",
    )
    p_chaos.add_argument(
        "--kills", type=int, default=3,
        help="scheduled worker SIGKILLs for --serve",
    )
    p_chaos.add_argument(
        "--no-hang", action="store_true",
        help="skip the scheduled worker hang in --serve",
    )
    p_chaos.add_argument(
        "--no-torn", action="store_true",
        help="skip the crash-mid-snapshot fault in --serve",
    )
    p_chaos.add_argument(
        "--workdir", default=None,
        help="scratch directory for --serve (default: a fresh temp dir)",
    )
    p_chaos.add_argument(
        "--echo", action="store_true",
        help="echo supervisor/worker output during --serve",
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="print the full --serve chaos report as JSON",
    )

    p_serve = sub.add_parser(
        "serve",
        help="start the pattern-serving daemon on a dataset or PLT store",
    )
    p_serve.add_argument(
        "--db",
        "--input",
        dest="input",
        default=None,
        help=".dat or .dat.gz transaction file to build the index from",
    )
    p_serve.add_argument(
        "--store",
        default=None,
        help="serve a pre-built PLT store file instead of raw transactions",
    )
    p_serve.add_argument(
        "--min-support",
        type=_support_value,
        default=None,
        help="build threshold (required with --db; the store's own with --store)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one; see READY line)"
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="bounded LRU entries for conditional/rule answers (0 disables)",
    )
    p_serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight deduplication of identical queries",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrent governed queries before shedding with 'overloaded'",
    )
    p_serve.add_argument(
        "--deadline-cap",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-query wall-clock ceiling (clamps client budgets)",
    )
    p_serve.add_argument(
        "--itemset-cap",
        type=int,
        default=None,
        metavar="N",
        help="hard per-query emitted-itemset ceiling",
    )
    p_serve.add_argument(
        "--memory-cap",
        type=_size_value,
        default=None,
        metavar="BYTES",
        help="hard per-query mining-memory ceiling (k/m/g suffixes ok)",
    )
    p_serve.add_argument(
        "--sketch",
        action="store_true",
        help="serve sketch estimates from fixed memory instead of the exact "
        "index (one ingest pass over --db, never materialises the PLT; "
        "answers via sketch_frequency/sketch_topk/sketch_frequent)",
    )
    p_serve.add_argument(
        "--epsilon",
        type=float,
        default=0.005,
        help="sketch additive-error rate for --sketch (bound = eps * updates)",
    )
    p_serve.add_argument(
        "--delta",
        type=float,
        default=0.01,
        help="sketch error-bound failure probability for --sketch",
    )
    p_serve.add_argument(
        "--hh-capacity",
        type=int,
        default=256,
        help="heavy-hitter slots per space-saving summary for --sketch",
    )
    p_serve.add_argument(
        "--snapshot",
        default=None,
        metavar="DIR",
        help="two-generation CheckpointStore directory for warm restarts: "
        "the worker restores its index/sketch from here when possible, and "
        "snapshots at startup, on SIGHUP, and on the --snapshot-every cadence",
    )
    p_serve.add_argument(
        "--snapshot-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="periodic snapshot cadence (0: startup + SIGHUP only)",
    )
    p_serve.add_argument(
        "--incarnation",
        type=int,
        default=1,
        help="lineage number assigned by the supervisor (reported in "
        "health/READY; scopes worker-side fault injection)",
    )
    p_serve.add_argument(
        "--supervise",
        action="store_true",
        help="run crash-recoverable: a supervisor parent probes the worker "
        "with deadline-bounded health pings, SIGKILLs hangs, and warm-"
        "restarts crashes from --snapshot under a backoff circuit breaker",
    )
    p_serve.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        help="seconds between supervisor health probes (--supervise)",
    )
    p_serve.add_argument(
        "--probe-deadline",
        type=float,
        default=2.0,
        help="per-probe answer deadline before it counts as a miss",
    )
    p_serve.add_argument(
        "--probe-misses",
        type=int,
        default=2,
        help="consecutive probe misses before the worker is declared hung",
    )
    p_serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="consecutive restarts without a healthy probe before the "
        "crash-loop circuit breaker trips",
    )
    p_serve.add_argument(
        "--startup-deadline",
        type=float,
        default=30.0,
        help="seconds a new incarnation gets to print READY",
    )

    p_stream = sub.add_parser(
        "stream",
        help="ingest a transaction stream into a bounded-memory sketch",
    )
    p_stream.add_argument(
        "--input",
        default="-",
        help=".dat/.dat.gz file, or '-' for stdin (single pass, unseekable ok)",
    )
    p_stream.add_argument(
        "--epsilon", type=float, default=0.005,
        help="additive-error rate: estimates overshoot by <= eps * updates",
    )
    p_stream.add_argument(
        "--delta", type=float, default=0.01,
        help="probability the error bound fails (per query)",
    )
    p_stream.add_argument(
        "--capacity", type=int, default=256,
        help="heavy-hitter slots per space-saving summary",
    )
    p_stream.add_argument("--seed", type=int, default=0, help="hash-family seed")
    p_stream.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="sliding-window mode: cover only the last N transactions",
    )
    p_stream.add_argument(
        "--buckets", type=int, default=4,
        help="window generations (eviction granularity; --window only)",
    )
    p_stream.add_argument(
        "--exact-tail", type=int, default=0, metavar="N",
        help="also mine the last N transactions exactly (--window only)",
    )
    p_stream.add_argument(
        "--top", type=int, default=10, help="heavy hitters in each report"
    )
    p_stream.add_argument(
        "--report-every", type=int, default=0, metavar="N",
        help="print a heavy-hitter report every N transactions (0: final only)",
    )
    p_stream.add_argument(
        "--min-support", type=_support_value, default=None,
        help="also print every monitored itemset estimated at/above this",
    )
    p_stream.add_argument(
        "--snapshot", default=None, metavar="DIR",
        help="persist the sketch into a CheckpointStore directory "
        "(at each report and at end of stream)",
    )
    p_stream.add_argument(
        "--restore", default=None, metavar="DIR",
        help="resume from the sketch snapshotted in DIR before ingesting",
    )
    p_stream.add_argument(
        "--json", action="store_true", help="machine-readable final report"
    )
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------
def _write(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n", encoding="utf-8")


def _cmd_mine(args) -> int:
    from repro.core.mining import (
        ApproximateResult,
        PartialResult,
        mine_closed_itemsets,
        mine_frequent_itemsets,
        mine_maximal_itemsets,
    )
    from repro.data.io import read_dat
    from repro.robustness.governor import DegradationPolicy
    from repro.viz import render_itemsets

    governed = (
        args.deadline is not None
        or args.max_itemsets is not None
        or args.memory_budget is not None
    )
    if args.transport is not None and args.method != "plt-parallel":
        raise ReproError("--transport only applies to --method plt-parallel")
    cluster_flags = args.backend is not None or args.n_nodes is not None
    if cluster_flags and args.method != "plt-distributed":
        raise ReproError(
            "--backend/--n-nodes only apply to --method plt-distributed"
        )
    if cluster_flags and args.kind != "all":
        raise ReproError("--backend/--n-nodes only apply to --kind all")
    if args.backend == "process" and governed:
        raise ReproError(
            "budget flags are not supported on the process backend "
            "(governors cannot span worker processes)"
        )
    db = read_dat(args.input)
    if args.kind in ("closed", "maximal"):
        if governed or args.degrade:
            raise ReproError(
                "budget flags (--deadline/--max-itemsets/--memory-budget/"
                "--degrade) only apply to --kind all"
            )
        if args.kind == "closed":
            result = mine_closed_itemsets(db, args.min_support)
        else:
            result = mine_maximal_itemsets(db, args.min_support)
    else:
        kwargs = {}
        if governed:
            kwargs.update(
                deadline=args.deadline,
                max_itemsets=args.max_itemsets,
                memory_budget=args.memory_budget,
            )
            if args.degrade:
                kwargs["degradation"] = DegradationPolicy(fallback=args.degrade)
        elif args.degrade:
            raise ReproError(
                "--degrade requires a budget flag "
                "(--deadline/--max-itemsets/--memory-budget)"
            )
        if args.transport is not None:
            kwargs["transport"] = args.transport
        if args.backend is not None:
            kwargs["backend"] = args.backend
        if args.n_nodes is not None:
            kwargs["n_nodes"] = args.n_nodes
        result = mine_frequent_itemsets(
            db, args.min_support, method=args.method, max_len=args.max_len, **kwargs
        )
    header = (
        f"# {len(result)} itemsets  method={result.method}  "
        f"min_support={result.min_support}/{result.n_transactions}"
    )
    if isinstance(result, PartialResult):
        header = (
            f"# PARTIAL ({result.stop_reason}) after {result.elapsed:.2f}s — "
            f"supports are exact, enumeration incomplete\n" + header
        )
    elif isinstance(result, ApproximateResult):
        header = f"# APPROXIMATE: {result.disclaimer}\n" + header
    _write(header + "\n" + render_itemsets(result, relative=args.relative), args.output)
    return 0


def _cmd_rules(args) -> int:
    from repro.core.mining import mine_frequent_itemsets
    from repro.data.io import read_dat
    from repro.rules import rules_from_result

    db = read_dat(args.input)
    result = mine_frequent_itemsets(db, args.min_support, method=args.method)
    rules = rules_from_result(
        result, args.min_confidence, min_lift=args.min_lift
    )
    if args.top is not None:
        rules = rules[: args.top]
    lines = [f"# {len(rules)} rules from {len(result)} frequent itemsets"]
    lines += [str(rule) for rule in rules]
    _write("\n".join(lines), args.output)
    return 0


def _cmd_generate(args) -> int:
    from repro.data.generators import generate_dense, generate_uniform, generate_zipf
    from repro.data.io import write_dat
    from repro.data.quest import QuestGenerator, QuestParameters

    if args.kind == "quest":
        db = QuestGenerator(
            QuestParameters(
                n_transactions=args.transactions,
                avg_transaction_len=args.avg_len,
                n_items=args.items,
                n_patterns=max(50, args.items // 2),
                seed=args.seed,
            )
        ).generate()
    elif args.kind == "dense":
        db = generate_dense(
            args.transactions, args.items, max(1, int(args.avg_len)), seed=args.seed
        )
    elif args.kind == "zipf":
        db = generate_zipf(args.transactions, args.items, args.avg_len, seed=args.seed)
    else:
        db = generate_uniform(
            args.transactions, args.items, max(1, int(args.avg_len)), seed=args.seed
        )
    write_dat(db, args.output)
    print(
        f"wrote {len(db)} transactions over {db.n_items()} items to {args.output}"
    )
    return 0


def _cmd_encode(args) -> int:
    from repro.compress import serialize_plt
    from repro.core.plt import PLT
    from repro.data.io import read_dat

    db = read_dat(args.input)
    plt = PLT.from_transactions(db, args.min_support)
    blob = serialize_plt(plt, gzip=args.gzip)
    Path(args.output).write_bytes(blob)
    stats = plt.stats()
    print(
        f"encoded {stats.n_vectors} vectors ({stats.n_frequent_items} items, "
        f"{stats.n_encoded_transactions} transactions) -> {len(blob)} bytes"
    )
    return 0


def _cmd_info(args) -> int:
    from repro.core.plt import PLT
    from repro.data.io import read_dat

    db = read_dat(args.input)
    print(f"transactions:       {len(db)}")
    print(f"distinct items:     {db.n_items()}")
    print(f"avg length:         {db.avg_transaction_length():.2f}")
    print(f"max length:         {db.max_transaction_length()}")
    print(f"density:            {db.density():.4f}")
    if args.min_support is not None:
        plt = PLT.from_transactions(db, args.min_support)
        stats = plt.stats()
        print(f"-- PLT @ min_support={plt.min_support} --")
        print(f"frequent items:     {stats.n_frequent_items}")
        print(f"aggregated vectors: {stats.n_vectors}")
        print(f"aggregation ratio:  {stats.compression_ratio:.2f}")
        print(f"max vector length:  {stats.max_vector_len}")
    return 0


def _cmd_datasets(args) -> int:
    from repro.data.datasets import available, load

    for name in available():
        db = load(name)
        print(
            f"{name:16s} {len(db):>7} tx  {db.n_items():>5} items  "
            f"avg {db.avg_transaction_length():5.1f}  density {db.density():.3f}"
        )
    return 0


def _cmd_bench(args) -> int:
    from repro.perf.bench import main as bench_main

    return bench_main(
        quick=args.quick,
        repeat=args.repeat,
        output=args.output,
        compare=args.compare,
        transport=args.transport,
    )


def _serve_chaos(args) -> int:
    """``repro chaos --serve``: supervised-daemon crash/recovery differential."""
    import json
    import tempfile

    from repro.serve.chaos import run_serve_chaos

    min_support = args.min_support
    if args.input is None and min_support == 2:
        min_support = 10  # the synthetic 300-transaction workload's default
    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        report = run_serve_chaos(
            args.workdir or tmp,
            seed=args.seed,
            dataset=args.input,
            min_support=min_support,
            n_requests=args.requests,
            kills=args.kills,
            hang=not args.no_hang,
            torn=not args.no_torn,
            echo=args.echo,
        )
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"fault plan: {json.dumps(report['plan'])}")
        print(
            f"incarnations: {len(report['incarnations'])} "
            f"(expected {report['expected_incarnations']}), "
            f"crashes: {report['crashes_observed']}, "
            f"hang kills: {report['hang_kills']}, "
            f"client: {json.dumps(report['client'])}"
        )
        if report["cold_restarts"]:
            print(f"COLD RESTARTS (should be none): {report['cold_restarts']}")
        for error in report["errors"]:
            print(f"ERROR: {error}", file=sys.stderr)
        for mismatch in report["mismatches"][:5]:
            print(
                f"MISMATCH at request {mismatch['index']}: "
                f"{json.dumps(mismatch['request'])}",
                file=sys.stderr,
            )
    if not report["ok"]:
        print(
            f"serve chaos FAILED: {len(report['mismatches'])} mismatches, "
            f"{len(report['errors'])} errors, "
            f"{len(report['cold_restarts'])} cold restarts",
            file=sys.stderr,
        )
        return 1
    print(
        f"verified: {report['n_requests']} answers bit-for-bit identical to "
        f"the undisturbed engine across {report['crashes_observed']} crashes"
    )
    return 0


def _cmd_chaos(args) -> int:
    import json

    if args.serve:
        return _serve_chaos(args)

    from repro.core.mining import mine_frequent_itemsets
    from repro.core.rank import sort_key
    from repro.parallel.distributed import mine_distributed
    from repro.parallel.faults import FaultPlan
    from repro.robustness.retry import RetryPolicy

    if args.input is not None:
        from repro.data.io import read_dat

        db = list(read_dat(args.input))
    else:
        from repro.data.generators import generate_zipf

        db = list(generate_zipf(200, 20, 6.0, seed=args.seed))
    crashes = {}
    for spec in args.crash or ():
        try:
            node, superstep = spec.split(":")
            crashes[int(node)] = int(superstep)
        except ValueError:
            raise ReproError(f"invalid --crash {spec!r}, expected NODE:SUPERSTEP") from None
    plan = FaultPlan(
        seed=args.seed,
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        crashes=crashes,
    )
    retry = RetryPolicy(max_retries=args.max_retries, base_delay=1.0, max_delay=8.0)
    print(f"fault plan: {json.dumps(plan.describe())}")
    print(f"backend: {args.backend}")
    pairs, stats, _ = mine_distributed(
        db,
        args.min_support,
        n_nodes=args.n_nodes,
        fault_plan=plan,
        retry=retry,
        backend=args.backend,
    )
    expected = sorted(
        (tuple(sorted(fi.items, key=sort_key)), fi.support)
        for fi in mine_frequent_itemsets(db, args.min_support)
    )
    print(f"stats: {json.dumps(stats.deterministic_summary())}")
    print(f"liveness: {json.dumps(stats.liveness_summary())}")
    if sorted(pairs) != expected:
        print(
            f"MISMATCH: distributed mined {len(pairs)} itemsets, "
            f"serial ground truth has {len(expected)}",
            file=sys.stderr,
        )
        return 1
    print(f"verified: {len(pairs)} itemsets identical to the serial miner")
    return 0


#: Serve flags consumed by the supervisor parent and not forwarded to the
#: worker child (value = number of following value tokens to strip too).
_SUPERVISOR_ONLY_FLAGS = {
    "--supervise": 0,
    "--probe-interval": 1,
    "--probe-deadline": 1,
    "--probe-misses": 1,
    "--max-restarts": 1,
    "--startup-deadline": 1,
    "--port": 1,  # the supervisor reserves and assigns the port itself
    "--incarnation": 1,
}


def _strip_supervisor_flags(argv: list[str]) -> list[str]:
    out: list[str] = []
    skip = 0
    for token in argv:
        if skip:
            skip -= 1
            continue
        flag = token.split("=", 1)[0]
        if flag in _SUPERVISOR_ONLY_FLAGS:
            if "=" not in token:
                skip = _SUPERVISOR_ONLY_FLAGS[flag]
            continue
        out.append(token)
    return out


def _serve_supervised(args) -> int:
    """``repro serve --supervise``: the crash-recoverable runtime."""
    import signal
    import threading

    from repro.serve.faults import ServeFaultPlan
    from repro.serve.supervisor import Supervisor, worker_command

    worker_args = _strip_supervisor_flags(list(getattr(args, "raw_argv", []))[1:])
    supervisor = Supervisor(
        worker_command(worker_args),
        host=args.host,
        port=args.port,
        snapshot_dir=args.snapshot,
        probe_interval=args.probe_interval,
        probe_deadline=args.probe_deadline,
        probe_misses=args.probe_misses,
        startup_deadline=args.startup_deadline,
        max_restarts=args.max_restarts,
        fault_plan=ServeFaultPlan.from_env(),
        echo=True,
    )
    supervisor.start()
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    if hasattr(signal, "SIGHUP"):
        # operators HUP the supervisor; it forwards to the worker, which
        # writes a fresh snapshot generation
        signal.signal(signal.SIGHUP, lambda s, f: supervisor.signal_snapshot())
    print(
        f"READY host={supervisor.host} port={supervisor.port} supervised=1",
        flush=True,
    )
    try:
        while not stop.is_set():
            stop.wait(0.2)
            if supervisor.tripped:
                print(
                    f"error: crash-loop circuit breaker tripped after "
                    f"{supervisor.restarts} restarts: {supervisor.last_lines()}",
                    file=sys.stderr,
                )
                return 1
    finally:
        supervisor.stop()
    stats = supervisor.stats()
    print(
        f"stopped after {len(stats['incarnations'])} incarnation(s), "
        f"{stats['restarts']} restart(s), {stats['hang_kills']} hang kill(s)",
        flush=True,
    )
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    if args.supervise:
        return _serve_supervised(args)

    from repro.robustness.checkpoint import CheckpointStore
    from repro.serve import PatternEngine, PatternServer, ServingIndex, SketchEngine
    from repro.serve.faults import ServeFaultPlan, WorkerFaultInjector
    from repro.serve.snapshot import SNAPSHOT_KEY, load_snapshot, save_snapshot
    from repro.stream import SlidingWindowSketch, StreamSummary

    # -- warm restore: a usable snapshot beats rebuilding from the input
    store = CheckpointStore(args.snapshot) if args.snapshot else None
    restored_state = None
    if store is not None:
        loaded = load_snapshot(store)
        if loaded is not None:
            state, _digest = loaded
            wants_sketch = isinstance(state, (StreamSummary, SlidingWindowSketch))
            if wants_sketch == bool(args.sketch):
                restored_state = state
    restored = restored_state is not None

    if args.sketch:
        if args.store is not None:
            raise ReproError(
                "--sketch ingests raw transactions; it cannot serve a --store"
            )
        if args.input is None:
            raise ReproError("--sketch requires --db/--input")
        if restored:
            summary = restored_state
        else:
            from repro.data.io import ParseReport, iter_dat_lines

            summary = StreamSummary(
                epsilon=args.epsilon, delta=args.delta, capacity=args.hh_capacity
            )
            report = ParseReport(path=str(args.input))
            # one pass, no TransactionDatabase: the sketch is the whole state
            for transaction in iter_dat_lines(args.input, report=report):
                summary.push(transaction)
        state = summary
        engine = SketchEngine(summary)
        ready = (
            f"READY host={{host}} port={{port}} engine=sketch "
            f"items={len(summary.registry)} "
            f"n_transactions={summary.n_transactions} "
            f"epsilon={summary.epsilon} error_bound={summary.error_bound(1)} "
            f"memory_bytes={summary.memory_bytes()}"
        )
    elif (args.input is None) == (args.store is None):
        raise ReproError("serve requires exactly one of --db/--input or --store")
    elif restored:
        index = restored_state
    elif args.store is not None:
        if args.min_support is not None:
            raise ReproError("--min-support conflicts with --store (the store has its own)")
        index = ServingIndex.from_store(args.store)
    else:
        if args.min_support is None:
            raise ReproError("--min-support is required with --db/--input")
        from repro.data.io import read_dat

        index = ServingIndex.from_transactions(read_dat(args.input), args.min_support)

    if not args.sketch:
        state = index
        engine = PatternEngine(
            index,
            cache_size=args.cache_size,
            coalesce=not args.no_coalesce,
            max_inflight=args.max_inflight,
            deadline_cap=args.deadline_cap,
            itemset_cap=args.itemset_cap,
            memory_cap=args.memory_cap,
        )
        ready = (
            f"READY host={{host}} port={{port}} "
            f"items={len(index.rank_table)} paths={index.postings.n_paths} "
            f"min_support={index.min_support} n_transactions={index.n_transactions}"
        )

    # -- fault injection (chaos runs): armed via REPRO_SERVE_FAULTS
    fault_plan = ServeFaultPlan.from_env()
    injector = None
    handler = engine
    if fault_plan is not None:
        injector = WorkerFaultInjector(fault_plan, engine, incarnation=args.incarnation)
        handler = injector

    snapshot_lock = threading.Lock()

    def _snapshot() -> str | None:
        """Write one generation; returns its digest (None when disabled)."""
        if store is None:
            return None
        with snapshot_lock:
            written, _nbytes = save_snapshot(store, state)
        if injector is not None:
            injector.on_snapshot(store, SNAPSHOT_KEY)
        return written

    # the startup snapshot: the newest generation always reflects the
    # serving state, so the *next* incarnation restores instead of rebuilds
    digest = _snapshot()
    engine.health_info.update(
        {
            "incarnation": args.incarnation,
            "restored": int(restored),
            "snapshot_digest": digest,
        }
    )
    ready += f" incarnation={args.incarnation} restored={int(restored)} digest={digest or '-'}"

    server = PatternServer(handler, host=args.host, port=args.port)
    server.start()
    stop = threading.Event()
    hup = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, lambda s, f: hup.set())

    if store is not None and args.snapshot_every > 0:

        def _cadence():
            while not stop.wait(args.snapshot_every):
                _snapshot()

        threading.Thread(target=_cadence, name="plt-serve-snapshot", daemon=True).start()

    # the READY line is the machine-readable startup contract: supervisors
    # (tests, CI) wait for it and read the bound port off it
    print(ready.format(host=server.host, port=server.port), flush=True)
    while not stop.is_set():
        stop.wait(0.2)
        if hup.is_set():
            hup.clear()
            written = _snapshot()
            if written is not None:
                print(f"SNAPSHOT digest={written}", flush=True)
    server.stop()
    stats = engine.stats()
    if args.sketch:
        print(
            f"stopped after {sum(stats['ops'].values())} queries "
            f"(sketch, {stats['memory_bytes']} bytes resident)",
            flush=True,
        )
    else:
        print(
            f"stopped after {stats['queries']} queries "
            f"({stats['cache']['hits']} cache hits)",
            flush=True,
        )
    return 0


def _cmd_stream(args) -> int:
    import json as jsonlib

    from repro.data.io import ParseReport, iter_dat_lines, iter_dat_stream
    from repro.robustness.checkpoint import CheckpointStore
    from repro.stream import (
        SlidingWindowSketch,
        StreamIngestor,
        StreamSummary,
        load_sketch,
        sketch_digest,
    )

    windowed_flags = args.exact_tail or args.buckets != 4
    if args.window is None and windowed_flags:
        raise ReproError("--buckets/--exact-tail require --window")
    if args.restore is not None:
        sketch = load_sketch(CheckpointStore(args.restore))
    elif args.window is not None:
        sketch = SlidingWindowSketch(
            args.window,
            buckets=args.buckets,
            epsilon=args.epsilon,
            delta=args.delta,
            capacity=args.capacity,
            seed=args.seed,
            exact_tail=args.exact_tail,
        )
    else:
        sketch = StreamSummary(
            epsilon=args.epsilon,
            delta=args.delta,
            capacity=args.capacity,
            seed=args.seed,
        )

    def _top_entries(sk, k):
        return [
            {"items": list(fi.items), "estimate": fi.support}
            for fi in sorted(sk.top_k(k), key=lambda fi: -fi.support)
        ]

    def _on_report(sk, n):
        if args.json:
            return  # quiet until the final machine-readable report
        hitters = ", ".join(
            f"{' '.join(str(i) for i in e['items'])}:{e['estimate']}"
            for e in _top_entries(sk, args.top)
        )
        print(f"# {n} transactions in, top-{args.top}: {hitters}", flush=True)

    ingestor = StreamIngestor(
        sketch,
        report_every=args.report_every,
        on_report=_on_report,
        checkpoint=CheckpointStore(args.snapshot) if args.snapshot else None,
    )
    report = ParseReport(path=str(args.input))
    if args.input == "-":
        transactions = iter_dat_stream(
            sys.stdin.buffer, report=report, label="<stdin>"
        )
    else:
        transactions = iter_dat_lines(args.input, report=report)
    ingestor.run(transactions)

    windowed = isinstance(sketch, SlidingWindowSketch)
    final = {
        "ingested": ingestor.n_ingested,
        "n_transactions": sketch.covered() if windowed else sketch.n_transactions,
        "n_items": len(sketch.registry),
        "windowed": windowed,
        "epsilon": sketch.epsilon,
        "delta": sketch.delta,
        "error_bound": sketch.error_bound(1),
        "pair_error_bound": sketch.error_bound(2),
        "memory_bytes": sketch.memory_bytes(),
        "snapshots": ingestor.n_snapshots,
        "digest": sketch_digest(sketch),
        "top": _top_entries(sketch, args.top),
        "parse": {
            "lines": report.n_lines,
            "transactions": report.n_transactions,
            "skipped": report.n_skipped,
            "truncated": report.truncated,
        },
    }
    if windowed:
        final["window"] = sketch.window
        final["n_seen"] = sketch.n_seen
    if args.min_support is not None:
        frequent = sketch.as_result(args.min_support)
        final["min_support"] = frequent.min_support
        final["frequent"] = [
            {"items": list(fi.items), "estimate": fi.support} for fi in frequent
        ]
    if args.json:
        print(jsonlib.dumps(final, sort_keys=True), flush=True)
    else:
        scope = (
            f"window {final['n_transactions']}/{final.get('n_seen', 0)} seen"
            if windowed
            else f"{final['n_transactions']} transactions"
        )
        print(
            f"# ingested {final['ingested']} ({scope}), "
            f"{final['n_items']} distinct items, "
            f"~{final['memory_bytes']} sketch bytes, "
            f"item bound +{final['error_bound']}"
        )
        if not report.ok():
            print(
                f"# parse: skipped={report.n_skipped} truncated={report.truncated}"
            )
        for entry in final["top"]:
            label = " ".join(str(i) for i in entry["items"])
            print(f"{label}\t<={entry['estimate']}")
        if "frequent" in final:
            print(f"# >= {final['min_support']} estimated support:")
            for entry in final["frequent"]:
                label = " ".join(str(i) for i in entry["items"])
                print(f"{label}\t<={entry['estimate']}")
        if args.snapshot:
            print(f"# snapshot: {args.snapshot} digest={final['digest']}")
    return 0


_COMMANDS = {
    "mine": _cmd_mine,
    "rules": _cmd_rules,
    "generate": _cmd_generate,
    "encode": _cmd_encode,
    "info": _cmd_info,
    "datasets": _cmd_datasets,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    # the supervisor re-execs the serve worker from the original argv
    # (minus its own flags), so keep it available to the command
    args.raw_argv = raw_argv
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early: standard Unix exit
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
