"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pair-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/`` beside this directory, and the run exits with an error, printing no
result, when that source tree is missing.

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics.  ``--trace 1`` runs each unit of work untraced and then
under timing shims around every layer, and reports the per-layer metrics;
its spans are written to ``.bench_traces/`` once the run ends.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

Lines before it give the same figures for reading, the input digest, sample
counts and the workload-specific metrics that are not in the JSON.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".bench_traces"

#: set-ups per run; ``setup_s`` is the median import time plus the median
#: set-up time, each over this many repeats
SETUP_REPEATS = 5

#: what a fresh interpreter runs to time the import of the benchmark's modules
_IMPORT_PROBE = (
    "import sys, time; started = time.perf_counter(); "
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]; import loads; "
    "print(time.perf_counter() - started)"
)

#: ``(name, unit)`` of the end-to-end metrics every workload reports
END_TO_END = (
    ("setup_s", "s"),
    ("summarize_p50_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_LAYER_SPANS = (
    # relational substrate
    ("relational.numeric_column.calls", "count"),
    ("relational.numeric_column.self_s", "s"),
    ("relational.take.self_s", "s"),
    ("relational.mask.self_s", "s"),
    ("relational.restricted.calls", "count"),
    ("relational.restricted.self_s", "s"),
    ("relational.read_csv_text.self_s", "s"),
    # ML kernels
    ("ml.kmeans_fit.calls", "count"),
    ("ml.kmeans_fit.self_s", "s"),
    ("ml.linreg_fit.calls", "count"),
    ("ml.linreg_fit.self_s", "s"),
    # engine core
    ("core.setup_assistant.suggest.self_s", "s"),
    ("core.partitioning.cluster.calls", "count"),
    ("core.partitioning.cluster.self_s", "s"),
    ("core.partitioning.induce.calls", "count"),
    ("core.partitioning.induce.self_s", "s"),
    ("core.transformation.snapped.calls", "count"),
    ("core.transformation.snapped.self_s", "s"),
    ("core.scoring.score.calls", "count"),
    ("core.scoring.score.self_s", "s"),
    ("core.scoring.accuracy.calls", "count"),
    ("core.scoring.accuracy.self_s", "s"),
    # search
    ("search.discover.self_s", "s"),
    ("search.plan.self_s", "s"),
    ("search.bounds.self_s", "s"),
    ("search.evaluate.calls", "count"),
    ("search.evaluate.self_s", "s"),
    ("search.memo.lookups", "count"),
    ("search.memo.hit_rate", "frac"),
    ("search.specs_pruned_frac", "frac"),
    # timeline
    ("timeline.summarize_pair.self_s", "s"),
    ("timeline.summarize_timeline.self_s", "s"),
    ("timeline.partitions_patched_frac", "frac"),
    # cache store (the fabric's client side)
    ("cachestore.remote.get.calls", "count"),
    ("cachestore.remote.get.self_s", "s"),
    ("cachestore.remote.prefetch.self_s", "s"),
    ("cachestore.remote.put.calls", "count"),
    ("cachestore.remote.put.self_s", "s"),
    ("cachestore.remote.hit_rate", "frac"),
    # cache server (the wire)
    ("cacheserver.round_trips", "count"),
    ("cacheserver.request_bytes", "bytes"),
    ("cacheserver.response_bytes", "bytes"),
    ("cacheserver.put_value_bytes_mean", "bytes"),
    ("cacheserver.entries", "count"),
    # serving
    ("serving.route.summarize_s", "s"),
    ("serving.route.advance_s", "s"),
    ("serving.request.self_s", "s"),
    ("serving.engine.self_s", "s"),
    ("serving.overhead_s", "s"),
    ("serving.dedup_hit_rate", "frac"),
    ("serving.shed", "count"),
    # whole layers and the trace itself
    ("layer.relational.self_s", "s"),
    ("layer.ml.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.search.self_s", "s"),
    ("layer.timeline.self_s", "s"),
    ("layer.cachestore.self_s", "s"),
    ("layer.serving.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

#: the ``timeline-fleet`` warm pass, where cached work should not rerun
_WARM = (
    ("warm.relational.numeric_column.calls", "count"),
    ("warm.relational.restricted.calls", "count"),
    ("warm.ml.kmeans_fit.calls", "count"),
    ("warm.ml.linreg_fit.calls", "count"),
    ("warm.core.partitioning.cluster.calls", "count"),
    ("warm.core.partitioning.induce.calls", "count"),
    ("warm.core.transformation.snapped.calls", "count"),
    ("warm.timeline.summarize_pair.self_s", "s"),
    ("warm.cachestore.remote.get.calls", "count"),
    ("warm.cachestore.remote.get.self_s", "s"),
    ("warm.cachestore.remote.prefetch.self_s", "s"),
    ("warm.cachestore.remote.hit_rate", "frac"),
    ("warm.cacheserver.round_trips", "count"),
    ("warm.cacheserver.response_bytes", "bytes"),
    ("warm.layer.relational.self_s", "s"),
    ("warm.trace.wall_s", "s"),
    ("warm.trace.unattributed_frac", "frac"),
)

#: ``(name, unit)`` of the per-layer metrics every traced run reports; a
#: layer the workload never enters reads 0
PER_LAYER = _LAYER_SPANS + _WARM

#: workload-specific figures printed for reading (not in the JSON line)
_EXTRA_UNITS = {
    "cold_timeline_s": "s",
    "warm_timeline_s": "s",
    "summarize_p90_s": "s",
    "advance_p50_s": "s",
    "advance_p90_s": "s",
}


def parse_args(argv):
    from loads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports kibibytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(first: float, src: Path) -> float:
    """Median import time: this run's, plus fresh interpreters for the rest."""
    seconds = [first]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(seconds)


def set_up(workload):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last set-up."""
    seconds = []
    inputs = services = None
    for attempt in range(SETUP_REPEATS):
        if services is not None:
            workload.stop(services)
        begun = time.perf_counter()
        inputs = workload.inputs()
        services = workload.start(inputs)
        seconds.append(time.perf_counter() - begun)
    return inputs, services, statistics.median(seconds)


def write_traces(workload, seed, recorders) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    for phase, recorder in recorders.items():
        recorder.dump(TRACE_DIR / f"{workload}-seed{seed}-{phase}.json")


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)
    import repro
    from loads import WORKLOADS

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = import_seconds(time.perf_counter() - STARTED, src)

    workload = WORKLOADS[args.workload](args.seed)
    inputs, services, setup_median = set_up(workload)
    digest = workload.digest(inputs)
    try:
        tally, report = workload.run(inputs, services, args.seconds, bool(args.trace))
    finally:
        workload.stop(services)

    if args.trace and not report["adds_up"]:
        tally.record(False, "trace: layer self times plus unattributed time miss the wall time")
    figures = {
        "setup_s": import_s + setup_median,
        "summarize_p50_s": report["summarize_p50_s"],
        "requests_per_s": report["requests_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload} seed {args.seed} input_digest sha256:{digest}")
    print(f"attempted {tally.attempted} failed {tally.failed} "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.6f}")
    for note in tally.notes:
        print(f"failure: {note}")
    samples = {key: value for key, value in report.items() if key.endswith(("_samples", "_p90"))}
    print("samples " + " ".join(f"{key}={value}" for key, value in sorted(samples.items())))
    if args.trace:
        write_traces(args.workload, args.seed, report["recorders"])
        values = report["per_layer"]
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER
        }
    else:
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in _EXTRA_UNITS.items():
            if name in report:
                print(f"{name} {report[name]:.6f} {unit}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
