"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vgg-phase-burst --seed 1 --seconds 20 --trace 0

The workloads are described in ``perfbench/workloads.py``; the benchmark's
own arithmetic is tested by ``python3 -m pytest perfbench``.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run, prints the per-layer metrics and
writes its spans to ``perfbench/out/``.  Every line before the last is for
people; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output check
passed.  ``perfbench/metric_map.json`` says which end-to-end metric and
workload each per-layer metric should move.

``--write-reference`` re-records the offline workloads' reference outputs
(``perfbench/reference.json``) from the program as it stands.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def main(argv: List[str] = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import OFFLINE, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.write_reference:
        if args.workload not in OFFLINE:
            parser.error("--write-reference applies to the offline workloads")
        write_reference(args.workload)
        return 0

    from context import run_context
    from workloads import Outcome, peak_rss_mb, run_offline, run_serve

    outcome = Outcome()
    if args.workload in OFFLINE:
        tracer = run_offline(args.workload, args.seconds, bool(args.trace), outcome)
    else:
        tracer = run_serve(args.workload, args.seconds, args.seed, bool(args.trace), outcome)
    context = run_context(ROOT, args.seed)

    absent = set()
    if args.trace:
        listed = benchmark["per_layer"]
        values, absent = per_layer_metrics(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"context": context, "workload": args.workload})
        outcome.notes.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        listed = benchmark["end_to_end"]
        values = dict(outcome.metrics, peak_rss_mb=peak_rss_mb())

    metrics: Dict[str, Dict[str, object]] = {}
    for entry in listed:
        name = entry["name"]
        if name.split(".")[0] in absent:
            outcome.notes.append(f"{name}: absent, its hook is gone from the program")
            continue
        if name not in values:
            # per-layer: this workload never enters that layer (e.g. a VGG-only
            # conv, or serving on an offline workload); end to end: a bug
            values[name] = 0.0 if args.trace else math.nan
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    print(f"context: {json.dumps(context)}")
    for note in outcome.notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    finite = all(math.isfinite(metric["value"]) for metric in metrics.values())
    if not finite:
        print("FAILED: a metric could not be measured")
    correct = outcome.failed == 0 and finite
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": {
                    name: {
                        "value": metric["value"] if math.isfinite(metric["value"]) else None,
                        "unit": metric["unit"],
                    }
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def per_layer_metrics(tracer) -> Tuple[Dict[str, float], Set[str]]:
    """Per-layer metrics from one traced run's spans, counts and samples.

    Span-derived times are self times.  Also returns the metric prefixes
    whose hook the program no longer has, so those are reported absent.
    """
    from stats import median, tail

    self_times = tracer.self_times()
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + self_times[span.id]
        calls[span.name] = calls.get(span.name, 0) + 1
    counts = tracer.counts
    samples = tracer.samples
    images = counts.get("engine.images", 0)

    values: Dict[str, float] = {
        "workloads.build_s": totals.get("workloads.build", 0.0),
        "conversion.normalize_s": totals.get("conversion.normalize", 0.0),
        "conversion.build_network_s": totals.get("conversion.build_network", 0.0),
        "conversion.builds": calls.get("conversion.build_network", 0),
        "engine.prepares": calls.get("engine.prepare", 0),
        "engine.prepare_ms": 1000.0 * totals.get("engine.prepare", 0.0)
        / max(calls.get("engine.prepare", 0), 1),
        "engine.execute_s": totals.get("engine.execute", 0.0),
        "engine.steps_per_image": counts.get("engine.steps", 0) / max(images, 1),
        # the replay does execute's work under per-call spans and counting
        "trace.overhead_share": tracer.total("snn.replay") / tracer.total("engine.execute") - 1.0,
    }
    for name, total in totals.items():
        if name.startswith("snn.") and name.endswith(".step"):
            values[f"{name}_s"] = total
    for name, count in counts.items():
        if name.startswith("snn.") and name.endswith(".spikes"):
            values[f"{name}_per_image"] = count / max(images, 1)
        if name.startswith("backends.") and name != "backends.recorded":
            values[name] = count
    branches = {key: n for key, n in counts.items() if key.startswith("sparsity.")}
    if branches:
        steps = sum(branches.values())
        for branch in ("dense", "sparse", "empty"):
            values[f"sparsity.{branch}_share"] = branches.get(f"sparsity.{branch}", 0) / steps
    if "serving.batch_count" in counts:
        values.update(
            {
                "serving.queue_ms.p50": median(samples["serving.queue_ms"]),
                "serving.queue_ms.tail": tail(samples["serving.queue_ms"])[0],
                "serving.batch_size.mean": counts["serving.images"] / counts["serving.batch_count"],
                "serving.batches": counts["serving.batches"],
                "serving.replica_utilisation": counts["serving.busy_s"] / counts["serving.wall_s"],
                "serving.batch_ms.p50": median(samples["serving.batch_ms"]),
                "serving.rejected": counts["serving.rejected"],
                "loadgen.late_ms.tail": tail(samples["loadgen.late_ms"])[0],
            }
        )
    absent = set()
    if "backends.recorded" not in counts:
        absent.add("backends")
    if not branches:
        absent.add("sparsity")
    return values, absent


def write_reference(name: str) -> None:
    """Record the offline workload's per-scheme predictions and spike totals."""
    from workloads import OFFLINE, REFERENCE_PATH, cold_caches, load_reference, offline_setup
    from spans import Tracer

    cold_caches()
    _, _, runs, _ = offline_setup(OFFLINE[name], Tracer(enabled=False))
    reference = load_reference()
    reference[name] = {
        run.scheme: {
            "predictions": run.outputs_final.argmax(axis=1).tolist(),
            "total_spikes": run.total_spikes,
        }
        for run in runs
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} scheme references for {name} to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    sys.exit(main())
