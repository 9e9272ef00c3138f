"""The benchmark's declared workloads and metrics, and ``BENCHMARK.json``.

This file is the single source of the names and units the workloads
report; ``python3 perfbench/spec.py`` rewrites ``BENCHMARK.json`` from it
and the self-test checks that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = [
    ("mine", "batch facade over four fixed jobs: read_dat then mine_frequent_itemsets; "
             "the only path through Algorithm 1, both miners and result materialization"),
    ("serve", "exact pattern daemon restored from its snapshot, one closed-loop connection; "
              "frequency/topk/recommend/rules mix whose topk keys overflow the 128-entry cache"),
    ("stream-ingest", "Quest transactions streamed into a sliding-window sketch with top_k "
                      "reports; the write path, sharing only data.io with the others"),
]

#: (name, unit, better, bound).  Every workload reports every one of these;
#: perfbench/README.md says what each means on each workload.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
]

#: (name, unit, better).  The traced run reports every one of these; a layer the
#: workload does not cross reads 0.  Names are ``<module under
#: src/repro>.<metric>``, except ``perfbench.*`` (the benchmark itself).
PER_LAYER = [
    # mine
    ("data.io.read_dat_s", "s", "lower"),
    ("data.transaction_db.build_s", "s", "lower"),
    ("core.rank.scan1_s", "s", "lower"),
    ("core.plt.build_s", "s", "lower"),
    ("core.plt.n_paths", "count", "lower"),
    ("core.plt.peak_bytes", "B", "lower"),
    ("core.conditional.mine_s", "s", "lower"),
    ("core.conditional.buckets_touched", "count", "lower"),
    ("core.conditional.work_items_merged", "count", "lower"),
    ("core.conditional.structures_built", "count", "lower"),
    ("core.conditional.single_path_shortcuts", "count", "lower"),
    ("core.topdown.mine_s", "s", "lower"),
    ("core.topdown.work_vectors", "count", "lower"),
    ("core.mining.materialize_s", "s", "lower"),
    ("core.mining.itemsets", "count", "higher"),
    ("core.mining.result_peak_bytes", "B", "lower"),
    ("core.mining.residual_s", "s", "lower"),
    # all workloads
    ("repro.import_s", "s", "lower"),
    # serve
    ("serve.ready_s", "s", "lower"),
    ("serve.warmup_s", "s", "lower"),
    ("serve.snapshot.restore_s", "s", "lower"),
    ("serve.snapshot.blob_bytes", "B", "lower"),
    ("serve.engine.index_peak_bytes", "B", "lower"),
    ("serve.engine.frequency_ms", "ms", "lower"),
    ("serve.engine.topk_ms", "ms", "lower"),
    ("serve.engine.recommend_ms", "ms", "lower"),
    ("serve.engine.rules_ms", "ms", "lower"),
    ("compress.index.support_us", "us", "lower"),
    ("serve.protocol.encode_us", "us", "lower"),
    ("serve.protocol.decode_us", "us", "lower"),
    ("serve.protocol.bytes_per_request", "B", "lower"),
    ("serve.server.wire_frequency_ms", "ms", "lower"),
    ("serve.server.wire_topk_ms", "ms", "lower"),
    ("serve.server.wire_recommend_ms", "ms", "lower"),
    ("serve.server.wire_rules_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    # stream-ingest
    ("data.io.iter_dat_stream_us", "us", "lower"),
    ("stream.window.push_us", "us", "lower"),
    ("stream.cms.add_ns", "ns", "lower"),
    ("stream.spacesaving.add_ns", "ns", "lower"),
    ("stream.keys_per_tx", "count", "lower"),
    ("stream.window.top_k_ms", "ms", "lower"),
    ("stream.sketch_bytes", "B", "lower"),
    ("stream.snapshot_bytes", "B", "lower"),
    ("stream.ingest.snapshot_s", "s", "lower"),
    # the benchmark's own cost
    ("perfbench.trace_overhead_ms", "ms", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render())
    print(f"wrote {target}")
