"""Time the Table 2 VGG phase-burst run of one engine tree, one run per request.

The perf gates in ``test_perf_engine.py`` start one worker per engine they
compare against (the seed, the previous revision), each with ``PYTHONPATH``
set to nothing but an exported ``src/`` tree of that revision::

    PYTHONPATH=<tree>/src python benchmarks/perf/vgg_worker.py '{"time_steps": 150, "num_images": 16, "samples_per_class": 30}'

The worker builds the workload and pipeline as ``record_baseline.py`` does
(only APIs the seed has), then writes one JSON line to stdout,
``{"repro_file": ...}``, naming the package it imported.  Each ``run`` line
on stdin then times one phase-burst scheme run and answers
``{"seconds": ..., "accuracy": ..., "total_spikes": ...}``.  End of input
ends the worker.  Whatever the engine itself prints goes to stderr, so
stdout carries only the replies.
"""

import json
import os
import sys

import record_baseline


def main() -> None:
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # stray prints, Python's or C's, go to stderr

    import repro

    scale = json.loads(sys.argv[1])
    workload = record_baseline.vgg_workload(scale["samples_per_class"])
    pipeline = record_baseline.vgg_pipeline(
        workload, scale["time_steps"], scale["num_images"]
    )

    def reply(message: dict) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    reply({"repro_file": repro.__file__})
    for line in sys.stdin:
        if line.strip() != "run":
            raise ValueError(f"unknown request {line!r}")
        seconds, run = record_baseline.time_phase_burst(pipeline)
        reply(
            {
                "seconds": seconds,
                "accuracy": float(run.accuracy),
                "total_spikes": int(run.total_spikes),
            }
        )


if __name__ == "__main__":
    main()
