"""Which layer functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``, where ``<layer>`` is a ``repro``
subpackage.  Per-layer figures are normalised per unit of work — per pair
(``pair-cold``), per pass (``timeline-fleet``) or per session
(``serve-sessions``) — so a commit that completes more work in the same
run length does not read as slower.
"""

from __future__ import annotations

import importlib

from spans import BENCH_PREFIX, Shims, counting_wrapper, in_context_wrapper, self_times, trees

#: ``(span name, module path, owner name or None, attribute)``; an owner of
#: ``None`` means a module-level function
SPAN_TARGETS = (
    ("relational.numeric_column", "repro.relational.table", "Table", "numeric_column"),
    ("relational.take", "repro.relational.table", "Table", "take"),
    ("relational.mask", "repro.relational.table", "Table", "mask"),
    ("relational.restricted", "repro.relational.snapshot", "SnapshotPair", "restricted"),
    ("relational.read_csv_text", "repro.relational.csv_io", None, "read_csv_text"),
    ("ml.kmeans_fit", "repro.ml.kmeans", "KMeans", "fit"),
    ("ml.linreg_fit", "repro.ml.linreg", "LinearRegression", "fit"),
    ("core.charles.summarize_pair", "repro.core.charles", "Charles", "summarize_pair"),
    ("core.setup_assistant.suggest", "repro.core.setup_assistant", "SetupAssistant", "suggest"),
    ("core.partitioning.cluster", "repro.core.partitioning", None, "cluster_changed_rows"),
    ("core.partitioning.induce", "repro.core.partitioning", None, "partitions_from_labels"),
    ("core.transformation.snapped", "repro.core.transformation", "LinearTransformation", "snapped"),
    ("core.scoring.score", "repro.core.scoring", None, "score_summary"),
    ("core.scoring.accuracy", "repro.core.scoring", None, "accuracy"),
    ("search.discover", "repro.core.discovery", "DiffDiscoveryEngine", "discover_with_stats"),
    ("search.plan", "repro.search.bounds", "ScoreBoundIndex", "__init__"),
    ("search.bounds", "repro.search.bounds", "ScoreBoundIndex", "spec_bound"),
    ("search.evaluate", "repro.search.evaluator", "CandidateEvaluator", "evaluate"),
    ("timeline.summarize_timeline", "repro.timeline.session", "EngineSession", "summarize_timeline"),
    ("timeline.summarize_pair", "repro.timeline.session", "EngineSession", "summarize_pair"),
    ("cachestore.remote.get", "repro.cacheserver.fabric", "ShardedRemoteBackend", "get"),
    ("cachestore.remote.prefetch", "repro.cacheserver.fabric", "ShardedRemoteBackend", "prefetch"),
    ("cachestore.remote.put", "repro.cacheserver.fabric", "ShardedRemoteBackend", "put"),
)

#: the layers a span name can belong to, in the order the report lists them
LAYERS = ("relational", "ml", "core", "search", "timeline", "cachestore", "cacheserver", "serving")

REQUEST_HEADER = "X-Bench-Request"


def _resolve(module_path: str, owner: str | None):
    module = importlib.import_module(module_path)
    return module if owner is None else getattr(module, owner)


def _count_request(recorder, args, kwargs, body) -> None:
    from repro.cacheserver import protocol

    recorder.add("wire.request_bytes", len(body))
    verb = args[0] if args else kwargs.get("verb")
    if verb == protocol.PUT:
        payload = kwargs.get("payload", args[4] if len(args) > 4 else b"")
        recorder.add("wire.put_values")
        recorder.add("wire.put_value_bytes", len(payload))


def _count_response(recorder, args, kwargs, result) -> None:
    body = args[0] if args else kwargs["body"]
    recorder.add("wire.response_bytes", len(body))


def install(recorder) -> Shims:
    """Wrap every layer target; the caller removes the shims when done."""
    shims = Shims(recorder)
    try:
        for name, module_path, owner, attribute in SPAN_TARGETS:
            shims.wrap(name, _resolve(module_path, owner), attribute)
        protocol = _resolve("repro.cacheserver.protocol", None)
        shims.wrap("wire.encode", protocol, "encode_request", kind=counting_wrapper(_count_request))
        # decode_response delegates to decode_response_full, so wrapping the
        # latter sees every response frame exactly once
        shims.wrap(
            "wire.decode", protocol, "decode_response_full", kind=counting_wrapper(_count_response)
        )
        service = _resolve("repro.serving.service", "CharlesServingService")
        shims.wrap_async(
            "serving.request",
            service,
            "_respond",
            request_of=lambda args: args[1].headers.get(REQUEST_HEADER.lower()),
        )
        shims.wrap("serving.engine", service, "_run_in_pool", kind=in_context_wrapper("serving.engine"))
    except BaseException:
        shims.remove()
        raise
    return shims


# -- turning spans into figures ------------------------------------------------------


def span_figures(spans) -> dict:
    """Calls and self seconds per span name, plus trace totals.

    Only spans reachable from a benchmark request root count toward self
    time, so ``layer self + unattributed == wall`` holds exactly: ``wall`` is
    the summed duration of the request roots and ``unattributed`` is the
    roots' own self time.
    """
    reached = trees(spans)
    selfs = self_times(reached)
    figures: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = figures.setdefault(span[1], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
    for span in reached:
        figures[span[1]]["self_s"] += selfs[span[0]]
    wall = sum(span[3] - span[2] for span in reached if span[4] is None)
    unattributed = sum(
        selfs[span[0]] for span in reached if span[1].startswith(BENCH_PREFIX)
    )
    layer_self = sum(
        selfs[span[0]] for span in reached if not span[1].startswith(BENCH_PREFIX)
    )
    return {
        "names": figures,
        "wall_s": wall,
        "unattributed_s": unattributed,
        "layer_self_s": layer_self,
    }


def adds_up(figures) -> bool:
    """Layer self time plus unattributed time equals the traced wall time."""
    wall = figures["wall_s"]
    total = figures["layer_self_s"] + figures["unattributed_s"]
    return abs(total - wall) <= 1e-6 * max(wall, 1.0)


def per_unit(figures, units: int) -> dict[str, float]:
    """``<span>.calls`` and ``<span>.self_s`` per unit of work."""
    units = max(units, 1)
    out = {}
    for name, entry in figures["names"].items():
        out[f"{name}.calls"] = entry["calls"] / units
        out[f"{name}.self_s"] = entry["self_s"] / units
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in figures["names"].items()
            if name.split(".", 1)[0] == layer
        ) / units
    wall = figures["wall_s"]
    out["trace.unattributed_frac"] = figures["unattributed_s"] / wall if wall > 0 else 0.0
    out["trace.wall_s"] = wall / units
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def search_figures(stats_dicts, units: int) -> dict[str, float]:
    """Memo lookups and pruning from ``SearchStats.as_dict()`` records."""
    hits = lookups = pruned = planned = 0
    for stats in stats_dicts:
        hits += stats["fit_cache_hits"] + stats["partition_cache_hits"]
        lookups += (
            stats["fit_cache_hits"] + stats["fit_cache_misses"]
            + stats["partition_cache_hits"] + stats["partition_cache_misses"]
        )
        pruned += stats["candidates_pruned"]
        planned += stats["candidates_enumerated"]
    return {
        "search.memo.lookups": lookups / max(units, 1),
        "search.memo.hit_rate": ratio(hits, lookups),
        "search.specs_pruned_frac": ratio(pruned, planned),
    }


def remote_figures(stats_dicts, units: int) -> dict[str, float]:
    """Fabric hit rate and round trips from the ``remote`` backend counters."""
    hits = misses = round_trips = 0
    for stats in stats_dicts:
        remote = stats["backend_counters"].get("remote")
        if remote is None:
            continue
        hits += remote["hits"]
        misses += remote["misses"]
        round_trips += remote["round_trips"]
    return {
        "cachestore.remote.hit_rate": ratio(hits, hits + misses),
        "cacheserver.round_trips": round_trips / max(units, 1),
    }


def wire_figures(recorder, units: int) -> dict[str, float]:
    """Frame bytes seen through the client's encode/decode, per unit."""
    units = max(units, 1)
    return {
        "cacheserver.request_bytes": recorder.counter("wire.request_bytes") / units,
        "cacheserver.response_bytes": recorder.counter("wire.response_bytes") / units,
        "cacheserver.put_value_bytes_mean": ratio(
            recorder.counter("wire.put_value_bytes"), recorder.counter("wire.put_values")
        ),
    }


def resolution_figures(before: dict, after: dict) -> dict[str, float]:
    """Share of top-level partition lookups answered by a delta patch."""
    prefix = "charles_partition_resolution_total"
    delta = {
        name: after.get(name, 0.0) - before.get(name, 0.0)
        for name in after
        if name.startswith(prefix)
    }
    total = sum(delta.values())
    patched = delta.get(f'{prefix}{{outcome="patched"}}', 0.0)
    return {"timeline.partitions_patched_frac": ratio(patched, total)}
