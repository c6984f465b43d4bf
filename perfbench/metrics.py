"""The benchmark's metric catalogue and the traced run's per-layer table.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

#: (name, unit) of every end-to-end metric, printed by untraced runs.
#: ``op`` is the workload's unit of work: one cold solve (cold-dense),
#: one verified update (update-stream), one served request
#: (serve-durable).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
)

#: layer name (perfbench.layers.LAYERS) -> its self-time metric
SELF_TIME: Dict[str, str] = {
    "graphs.load": "graphs.load_s",
    "core.min_cut": "core.self_s",
    "engine.min_cut": "engine.min_cut_self_s",
    "engine.min_cut_batch": "engine.batch_self_s",
    "engine.update": "engine.update_self_s",
    "approx": "approx.self_s",
    "packing.skeleton": "packing.skeleton_s",
    "packing.pack": "packing.pack_s",
    "packing.select": "packing.select_s",
    "primitives.mst": "primitives.mst_s",
    "tworespect": "tworespect.self_s",
    "tworespect.oracle_build": "tworespect.oracle_build_s",
    "tworespect.single_path": "tworespect.single_path_s",
    "tworespect.terminals": "tworespect.terminals_s",
    "tworespect.path_pairs": "tworespect.path_pairs_s",
    "trees.centroid": "trees.centroid_s",
    "kernels.query_many": "kernels.query_many_s",
    "verify": "verify.s",
    "solvers.stoer_wagner": "solvers.stoer_wagner_s",
    "executor.map": "executor.map_s",
    "durability.log_update": "durability.log_update_s",
    "durability.snapshot": "durability.snapshot_s",
}

#: (name, unit) of every per-layer metric, printed by traced runs
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((name, "s") for name in SELF_TIME.values()),
    ("approx.work", "work"),
    ("approx.inner_solves", "count"),
    ("packing.trees", "count"),
    ("primitives.mst_calls", "count"),
    ("tworespect.calls", "count"),
    ("tworespect.s_per_tree", "s"),
    ("kernels.query_many_calls", "count"),
    ("kernels.entries_per_call", "count"),
    ("kernels.small_batch_share", "ratio"),
    ("oracle.queries", "count"),
    ("oracle.nodes_visited", "count"),
    ("smawk.evals", "count"),
    ("engine.rebases", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("verify.calls", "count"),
    ("verify.exact_share", "ratio"),
    ("executor.items", "count"),
    ("serve.min_cut_p50_ms", "ms"),
    ("serve.update_p50_ms", "ms"),
    ("serve.min_cut_batch_p50_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes", "B"),
    ("ledger.work", "work"),
    ("ledger.ns_per_work", "ns"),
    ("trace.wall_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead", "ratio"),
    ("fail_share", "ratio"),
)

#: per-layer counts that must repeat exactly for a given seed
EXACT_COUNTS: Tuple[str, ...] = (
    "ledger.work",
    "oracle.queries",
    "kernels.query_many_calls",
    "smawk.evals",
    "engine.rebases",
    "wal.appends",
)

#: program counters (repro.obs) copied into the table under their own names
_COUNTERS = (
    "oracle.queries",
    "oracle.nodes_visited",
    "smawk.evals",
    "engine.rebases",
    "engine.cache_hits",
    "engine.cache_misses",
    "wal.appends",
    "wal.fsyncs",
    "wal.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_table(
    tracer,
    counters: Mapping[str, float],
    *,
    layer_wall_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    ledger_work: float,
    attempted: int,
    failed: int,
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``traced_wall_s`` and ``untraced_wall_s`` are the wall times of the
    same fixed work with and without tracing; ``layer_wall_s`` is the
    time the layers' self times are compared with (the traced wall time,
    or the summed caller time where requests run concurrently).
    ``extra`` supplies the workload-specific entries (the ``serve.*``
    latencies).  Layers a workload does not reach read 0.
    """
    stats = tracer.stats
    table = {name: 0.0 for name, _ in PER_LAYER}
    for layer, metric in SELF_TIME.items():
        table[metric] = stats[layer].self_s
    for name in _COUNTERS:
        table[name] = float(counters.get(name, 0.0))
    approx = stats["approx"]
    table["approx.work"] = approx.work
    table["approx.inner_solves"] = float(
        tracer.nested[("approx", "core.min_cut")]
        + tracer.nested[("approx", "solvers.stoer_wagner")]
    )
    table["packing.trees"] = stats["packing.select"].outcome
    table["primitives.mst_calls"] = float(stats["primitives.mst"].calls)
    two = stats["tworespect"]
    table["tworespect.calls"] = float(two.calls)
    table["tworespect.s_per_tree"] = _ratio(two.inclusive_s, two.calls)
    qm = stats["kernels.query_many"]
    table["kernels.query_many_calls"] = float(qm.calls)
    table["kernels.entries_per_call"] = _ratio(qm.items, qm.calls)
    table["kernels.small_batch_share"] = _ratio(qm.small, qm.calls)
    ver = stats["verify"]
    table["verify.calls"] = float(ver.calls)
    table["verify.exact_share"] = _ratio(ver.outcome, ver.calls)
    table["executor.items"] = float(stats["executor.map"].items)
    table["ledger.work"] = ledger_work
    table["ledger.ns_per_work"] = _ratio(untraced_wall_s * 1e9, ledger_work)
    layers_s = tracer.total_self_s()
    table["trace.wall_s"] = layer_wall_s
    table["trace.layers_s"] = layers_s
    table["trace.unaccounted_s"] = layer_wall_s - layers_s
    table["trace.overhead"] = _ratio(traced_wall_s, untraced_wall_s)
    table["fail_share"] = _ratio(failed, attempted)
    table.update(extra or {})
    return table


def exact_counts(table: Mapping[str, float]) -> Dict[str, float]:
    return {name: table[name] for name in EXACT_COUNTS}
