"""Command-line interface.

Four subcommands cover the common workflows:

* ``repro experiment <name>`` — regenerate one (or all) of the paper's tables
  and figures and print the rendered text (optionally saving it to a file);
* ``repro compare`` — evaluate a list of coding schemes on a workload and
  print a Table-1-style comparison.  ``--schemes`` accepts registry products
  (``all``, ``all-input:burst``, ``phase:all``) resolved by querying the
  scheme registry;
* ``repro serve`` — start the concurrent batching inference server
  (:mod:`repro.serving`): micro-batched ``/v1/classify`` over a trained
  workload, replica session pools (``--num-replicas``), per-client rate
  limits and quotas (``--max-rps`` / ``--client-quota``), with graceful
  drain on SIGTERM/SIGINT;
* ``repro info`` — print the installed version and the available experiments,
  datasets, models and coding schemes.

Cross-cutting flags: ``--dtype`` pins the simulation precision,
``--list-schemes`` prints the coding-scheme registry.

The module is also the ``repro`` console-script entry point declared in
``pyproject.toml``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import __version__
from repro.core.hybrid import HybridCodingScheme
from repro.core.pipeline import PipelineConfig, SNNInferencePipeline
from repro.experiments.runner import EXPERIMENT_NAMES, RunnerConfig, run_all, run_experiment
from repro.experiments.workloads import build_workload
from repro.utils.tables import Table


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fast and Efficient Information Transmission with "
        "Burst Spikes in Deep Spiking Neural Networks' (DAC 2019)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--dtype",
        choices=["float32", "float64"],
        default=None,
        help="simulation precision for every run in this invocation "
        "(default: the project dtype policy, float32)",
    )
    parser.add_argument(
        "--list-schemes",
        action="store_true",
        help="list the registered coding schemes (including extensions) and exit",
    )
    subparsers = parser.add_subparsers(dest="command")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "name",
        choices=list(EXPERIMENT_NAMES) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    experiment.add_argument("--fast", action="store_true", help="use the small/fast preset")
    experiment.add_argument("--time-steps", type=int, default=None, help="simulation horizon")
    experiment.add_argument("--images", type=int, default=None, help="number of test images")
    experiment.add_argument("--seed", type=int, default=0, help="random seed")
    experiment.add_argument(
        "--output", type=Path, default=None, help="also write the rendered output to this file"
    )

    compare = subparsers.add_parser("compare", help="compare coding schemes on a workload")
    compare.add_argument(
        "--schemes",
        nargs="+",
        default=["real-rate", "phase-phase", "phase-burst"],
        help="coding schemes in 'input-hidden' notation, or registry products: "
        "'all' (every input x hidden combination), 'all-input:burst', 'phase:all'",
    )
    compare.add_argument("--dataset", default="cifar10", choices=["mnist", "cifar10", "cifar100"])
    compare.add_argument("--model", default="vgg_small",
                         choices=["mlp", "small_cnn", "cnn", "vgg_small", "vgg16"])
    compare.add_argument("--time-steps", type=int, default=120)
    compare.add_argument("--images", type=int, default=16)
    compare.add_argument("--v-th", type=float, default=0.125, help="burst base threshold")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help="shard batch evaluation across this many worker processes "
        "(falls back to in-process execution on single-CPU machines)",
    )
    compare.add_argument(
        "--early-exit-patience",
        type=int,
        default=None,
        help="freeze images whose output ranking has been stable for this many "
        "steps (default: simulate every image for the full time budget)",
    )
    compare.add_argument(
        "--early-exit-margin",
        type=float,
        default=None,
        help="adaptive early exit: additionally require the per-step output "
        "margin (top1 - top2 accumulated score, per step) to stay at or above "
        "this threshold throughout the patience window (requires "
        "--early-exit-patience; default: argmax stability only)",
    )

    serve = subparsers.add_parser(
        "serve", help="start the concurrent batching inference server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument(
        "--scheme",
        dest="schemes",
        nargs="+",
        default=["phase-burst"],
        help="coding scheme(s) to preload; the first is the default for "
        "requests that omit 'scheme' (registry products like 'all-input:burst' work)",
    )
    serve.add_argument("--dataset", default="mnist", choices=["mnist", "cifar10", "cifar100"])
    serve.add_argument("--model", default="small_cnn",
                       choices=["mlp", "small_cnn", "cnn", "vgg_small", "vgg16"])
    serve.add_argument("--time-steps", type=int, default=100, help="simulation horizon per request")
    serve.add_argument("--max-batch-size", type=int, default=8,
                       help="most queued requests a free replica takes as one batch")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission-control bound per scheme queue (beyond it: 429)")
    serve.add_argument("--num-replicas", type=int, default=1,
                       help="inference session replicas (and batcher workers) per "
                       "scheme; N replicas serve N micro-batches concurrently "
                       "on a multi-core machine")
    serve.add_argument("--max-rps", type=float, default=None,
                       help="per-client token-bucket rate limit in requests/s "
                       "(default: unlimited; over-rate requests get 429 + Retry-After)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       help="token-bucket capacity: requests a quiet client may "
                       "fire at once (default: ceil(max-rps))")
    serve.add_argument("--client-quota", type=int, default=None,
                       help="admitted requests per client per quota window "
                       "(default: unlimited)")
    serve.add_argument("--quota-window-s", type=float, default=60.0,
                       help="length of the fixed per-client quota window, seconds")
    serve.add_argument("--early-exit-patience", type=int, default=None,
                       help="converged-image early exit patience (default: off)")
    serve.add_argument("--samples-per-class", type=int, default=30,
                       help="synthetic training-set size per class for the served model")
    serve.add_argument("--epochs", type=int, default=12, help="DNN training epochs")
    serve.add_argument("--seed", type=int, default=0)

    subparsers.add_parser("info", help="print version and available components")
    return parser


def _runner_config(args: argparse.Namespace) -> RunnerConfig:
    config = RunnerConfig.fast() if args.fast else RunnerConfig()
    if args.time_steps is not None:
        config.time_steps = args.time_steps
    if args.images is not None:
        config.num_images = args.images
    config.seed = args.seed
    return config


def _command_experiment(args: argparse.Namespace) -> int:
    config = _runner_config(args)
    if args.name == "all":
        outputs = run_all(config)
        text = "\n\n".join(outputs[name] for name in outputs)
    else:
        text = run_experiment(args.name, config)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
        print(f"\n[saved to {args.output}]")
    return 0


def _parse_schemes(
    specs: Sequence[str], v_th: Optional[float] = None
) -> Optional[List[HybridCodingScheme]]:
    """Resolve ``--schemes`` specs through the coding registry.

    Registry products (``all``, ``all-input:burst``, ``phase:all``) are
    expanded by querying the registry first; every resulting notation is then
    built normally.  Returns ``None`` after printing a helpful error (with
    the registry's did-you-mean hint and the list of available codings) when
    a spec is unknown or malformed — instead of surfacing a raw traceback.
    """
    from repro.core.registry import expand_scheme_specs

    try:
        notations = expand_scheme_specs(specs)
    except ValueError as exc:
        print(f"error: invalid scheme spec: {exc}", file=sys.stderr)
        print("use --list-schemes to see the registered codings", file=sys.stderr)
        return None
    schemes: List[HybridCodingScheme] = []
    for notation in notations:
        try:
            schemes.append(
                HybridCodingScheme.from_notation(
                    notation, v_th=v_th if notation.endswith("burst") else None
                )
            )
        except ValueError as exc:
            print(f"error: invalid scheme {notation!r}: {exc}", file=sys.stderr)
            print("use --list-schemes to see the registered codings", file=sys.stderr)
            return None
    return schemes


def _command_list_schemes() -> int:
    """Print the coding registry (the ``--list-schemes`` flag).

    Rendered from :func:`repro.core.registry.scheme_metadata` — the same
    rows the serving API's ``/v1/schemes`` endpoint returns.
    """
    from repro.core.registry import notation_help, scheme_metadata

    table = Table(
        ["coding", "input", "hidden", "default v_th", "description"],
        title="Registered coding schemes",
    )
    for row in scheme_metadata():
        table.add_row(
            {
                "coding": row["coding"],
                "input": "yes" if row["input"] else "-",
                "hidden": "yes" if row["hidden"] else "-",
                "default v_th": row["default_v_th"],
                "description": row["description"],
            }
        )
    print(table.render())
    print("\n" + notation_help())
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    schemes = _parse_schemes(args.schemes, v_th=args.v_th)
    if schemes is None:
        return 2
    workload = build_workload(dataset=args.dataset, model=args.model, seed=args.seed)
    pipeline = SNNInferencePipeline(
        workload.model,
        workload.data,
        PipelineConfig(
            time_steps=args.time_steps,
            batch_size=16,
            max_test_images=args.images,
            seed=args.seed,
            num_workers=args.num_workers,
            early_exit_patience=args.early_exit_patience,
            early_exit_margin=args.early_exit_margin,
        ),
    )
    table = Table(
        ["scheme", "SNN acc %", "DNN acc %", "latency", "spikes/image", "density"],
        title=f"Coding comparison on {workload.name}",
    )
    for scheme in schemes:
        run = pipeline.run_scheme(scheme)
        metrics = run.metrics(target_accuracy=run.dnn_accuracy)
        table.add_row(
            {
                "scheme": scheme.notation,
                "SNN acc %": round(run.accuracy * 100, 2),
                "DNN acc %": round(run.dnn_accuracy * 100, 2),
                "latency": metrics.latency if metrics.latency else f">{run.time_steps}",
                "spikes/image": round(run.spikes_per_image, 1),
                "density": round(metrics.density, 5),
            }
        )
    print(table.render())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Train/build the workload and run the batching inference server.

    Blocks in the HTTP accept loop until SIGTERM/SIGINT, then drains
    gracefully: the socket stops accepting, in-flight requests finish, every
    queued request is answered, and the process exits 0.
    """
    import signal
    import threading

    from repro.serving.engine import ServingConfig, ServingEngine
    from repro.serving.http import ServingHTTPServer

    schemes = _parse_schemes(args.schemes)
    if schemes is None:
        return 2
    workload = build_workload(
        dataset=args.dataset,
        model=args.model,
        seed=args.seed,
        samples_per_class=args.samples_per_class,
        epochs=args.epochs,
    )
    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        max_queue=args.max_queue,
        num_replicas=args.num_replicas,
        max_rps=args.max_rps,
        rate_burst=args.rate_burst,
        client_quota=args.client_quota,
        quota_window_s=args.quota_window_s,
        time_steps=args.time_steps,
        early_exit_patience=args.early_exit_patience,
        seed=args.seed,
    )
    if len(schemes) > config.session_cache_size:
        # keep every preloaded scheme resident — otherwise the warm loop
        # below would evict the sessions it just built
        config = config.replace(session_cache_size=len(schemes))
    engine = ServingEngine(workload.model, workload.data.train.x, config)
    for scheme in schemes:
        print(f"preparing scheme {scheme.notation} ...", flush=True)
        engine.warm(scheme)
    server = ServingHTTPServer(
        engine, host=args.host, port=args.port, default_scheme=schemes[0].notation
    )

    def _drain(signum: int, frame: object) -> None:
        del frame
        print(f"\nsignal {signum}: draining ...", flush=True)
        # shutdown() must not run on the thread blocked in serve_forever()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    limits = (
        f", max_rps={args.max_rps:g}" if args.max_rps is not None else ""
    ) + (
        f", client_quota={args.client_quota}/{args.quota_window_s:g}s"
        if args.client_quota is not None else ""
    )
    print(
        f"repro serve listening on {server.url} "
        f"(workload {workload.name}, default scheme {schemes[0].notation}, "
        f"num_replicas={args.num_replicas}, "
        f"max_batch_size={args.max_batch_size}{limits})",
        flush=True,
    )
    server.serve_forever()
    server.close()
    print(f"drained cleanly ({engine.metrics.requests_total} requests served)", flush=True)
    return 0


def _command_info() -> int:
    from repro.core.registry import hidden_codings, input_codings

    print(f"repro {__version__}")
    print(f"experiments : {', '.join(EXPERIMENT_NAMES)}")
    print("datasets    : mnist, cifar10, cifar100 (synthetic look-alikes)")
    print("models      : mlp, small_cnn, cnn, vgg_small, vgg16")
    print(
        f"codings     : input = {' | '.join(input_codings())} ; "
        f"hidden = {' | '.join(hidden_codings())}"
    )
    print("notation    : '<input>-<hidden>', e.g. phase-burst (the paper's proposal)")
    print("              (--list-schemes prints the full registry)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dtype is not None:
        from repro.utils.dtypes import set_simulation_dtype

        set_simulation_dtype(args.dtype)
    if args.list_schemes:
        return _command_list_schemes()
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "info":
        return _command_info()
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
