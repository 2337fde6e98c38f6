"""Command-line experiment runner and serving demo.

Regenerate any registered table/figure/study from a shell::

    python -m repro table1 --scale fast
    python -m repro fig8 --scale standard
    python -m repro all --scale fast --out results/

The names are the keys of :data:`repro.analysis.EXPERIMENTS`.  ``--scale``
selects an :class:`repro.analysis.ExperimentScale` preset (fast / standard
/ full); ``--out`` saves each rendered table next to printing it.  After
each table the entry's check runs and prints every violated claim; the
exit code is 1 if any claim failed (``all`` still runs every entry).

``serve`` is the one entry point to the serving stack; what it serves
is :func:`repro.serving.demo.build_demo_server`.  Without ``--http`` it
runs the in-process demo — open-loop Poisson arrivals, every served
output asserted bit-identical to the serial single-image forward, then
per-request receipts, the per-class summary and one request's span
tree.  ``--models 2`` switches from one network behind a FIFO queue to
two tenants on one shared pool under the two-class SLA policy
(interactive deadlines via ``--deadline-ms``, a bulk latency bound,
shed receipts)::

    python -m repro serve --requests 24 --rate 200 --max-batch 4 --workers 2
    python -m repro serve --models 2 --requests 32 --rate 400 --deadline-ms 50

``--http PORT`` puts the same server on a socket — the wire protocol of
``docs/serving.md`` (``--http 0`` picks an ephemeral port) — prints the
walkthrough curl lines and serves until Ctrl-C.  ``--async`` swaps the
threaded front end for the asyncio one (same protocol plus SSE
streaming and connection / inflight-byte backpressure), ``--sla-mode
weighted_fair`` switches the scheduler to deficit-round-robin across
the classes (scheduling only; served bits are identical either way)::

    python -m repro serve --http 8100                 # curl me
    python -m repro serve --async --http 8100 --models 2 \
        --sla-mode weighted_fair

``--cluster N`` puts a sharded cluster behind the same wire protocol:
N subprocess replicas of the identical demo build under a
:class:`repro.serving.ClusterRouter` (consistent-hash placement with
``--cluster-replication`` preferred replicas per model, health-checked
failover, optional ``--hedge-ms`` hedged attempts, explicit
``cluster_unavailable`` receipts when every replica is down)::

    python -m repro serve --cluster 3 --http 8100     # curl the router

Performance is not measured here: ``benchmarks/e2e/run.py`` is the
benchmark.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .analysis import EXPERIMENTS, SCALES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate and check FORMS (ISCA 2021) evaluation "
                    "tables, figures and studies (exit 1 if a claim "
                    "fails), or run the inference server ('serve').")
    choices = sorted(EXPERIMENTS) + ["all", "report", "serve"]
    parser.add_argument("experiment", choices=choices,
                        help="which artifact to regenerate ('report' builds "
                             "a combined markdown report of the fast ones; "
                             "'serve' runs the serving demo or server)")
    parser.add_argument("--scale", default="fast", choices=sorted(SCALES),
                        help="experiment scale preset (default: fast)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to save rendered tables into")
    serve = parser.add_argument_group("serve options")
    serve.add_argument("--requests", type=int, default=16,
                       help="number of synthetic requests (serve only)")
    serve.add_argument("--rate", type=float, default=200.0,
                       help="Poisson arrival rate in requests/s (serve only)")
    serve.add_argument("--max-batch", type=int, default=4,
                       help="batch coalescing cap (serve only)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="coalescing latency budget in ms (serve only)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker-pool size (serve only; default: "
                            "FORMS_WORKERS or CPU count)")
    serve.add_argument("--backend", default=None,
                       choices=("thread", "process"),
                       help="repro.runtime execution backend for the "
                            "serving pool: 'thread' shares one in-process "
                            "pool, 'process' fans tiles out to worker "
                            "processes over shared-memory planes — served "
                            "bits are identical either way (serve only; "
                            "default: FORMS_BACKEND or thread; the "
                            "--http server stays on threads)")
    serve.add_argument("--models", type=int, default=1, choices=(1, 2),
                       help="number of tenant models: 2 serves the "
                            "fast/batch pair under the two-class SLA "
                            "policy (serve only)")
    serve.add_argument("--deadline-ms", type=float, default=50.0,
                       help="per-request deadline of the interactive "
                            "class in the SLA demo; <= 0 disables "
                            "(serve only)")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="expose the demo server over HTTP on PORT "
                            "(0 = ephemeral) and serve until Ctrl-C; "
                            "wire protocol in docs/serving.md (serve only)")
    serve.add_argument("--http-host", default="127.0.0.1",
                       help="bind address for --http (default: loopback "
                            "only; serve only)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="with --http: serve through the asyncio front "
                            "end instead of the threaded one — same wire "
                            "protocol plus SSE streaming "
                            "(POST /v1/infer_batch?stream=1) and "
                            "connection/inflight-byte backpressure; not "
                            "compatible with --cluster (serve only)")
    serve.add_argument("--sla-mode", choices=("strict", "weighted_fair"),
                       default="strict",
                       help="cross-class arbitration of the single-process "
                            "server: 'strict' is class precedence "
                            "(bulk can starve), 'weighted_fair' is "
                            "deficit-round-robin over the class weights "
                            "with aging — scheduling only, served bits are "
                            "identical (serve only)")
    serve.add_argument("--cluster", type=int, default=None, metavar="N",
                       help="with --http: serve through a cluster router "
                            "over N subprocess replicas (health-checked "
                            "failover, consistent-hash placement; "
                            "serve only)")
    serve.add_argument("--cluster-replication", type=int, default=2,
                       metavar="R",
                       help="preferred replicas per model on the cluster's "
                            "hash ring (serve only; default 2)")
    serve.add_argument("--hedge-ms", type=float, default=None,
                       help="cluster router hedging delay in ms: fire a "
                            "duplicate attempt at the next replica when "
                            "the first answer is this late (default: off; "
                            "serve only)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the metrics registry and /metrics "
                            "exposition (tracing and usage metering stay "
                            "on; single-process serve only)")
    serve.add_argument("--trace-ring", type=int, default=256, metavar="N",
                       help="capacity of the /v1/trace/<id> ring: how many "
                            "recent request span trees stay queryable "
                            "(0 disables tracing; default 256; "
                            "single-process serve only)")
    return parser


def _serve(args) -> int:
    """``python -m repro serve``: validate the flag mix, pick the mode."""
    from .obs import Observability
    from .serving.demo import run_cluster_server, run_demo, run_http_server

    error = None
    if args.trace_ring < 0:
        error = "--trace-ring must be >= 0 (0 disables tracing)"
    elif args.cluster is not None and args.http is None:
        error = "--cluster requires --http PORT (the router's bind port)"
    elif args.cluster is not None and args.cluster < 1:
        error = "--cluster needs at least one replica"
    elif args.cluster is not None and args.use_async:
        error = ("--async serves a single process; the cluster router keeps "
                 "the threaded front end (drop --async or --cluster)")
    elif args.use_async and args.http is None:
        error = ("--async requires --http PORT (it is the wire front end's "
                 "event loop)")
    elif args.backend == "process" and args.http is not None:
        error = ("--http serves from the thread backend (the cluster already "
                 "isolates replicas as subprocesses); drop --backend process")
    if error is not None:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    if args.cluster is not None:
        # the subprocess replicas boot their own default Observability:
        # --no-metrics / --trace-ring do not reach across the fork
        run_cluster_server(
            args.cluster, host=args.http_host, port=args.http,
            workers=args.workers if args.workers is not None else 1,
            seed=args.seed, replication=args.cluster_replication,
            hedge_delay_s=(args.hedge_ms / 1e3 if args.hedge_ms is not None
                           else None))
        return 0
    if args.models > 1 and (args.max_batch, args.max_wait_ms) != (4, 2.0):
        print("note: --max-batch/--max-wait-ms are FIFO knobs; the SLA "
              "classes carry their own coalescing budgets (ignored here)")
    build = dict(
        deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        workers=args.workers, seed=args.seed, sla_mode=args.sla_mode,
        obs=Observability(metrics=not args.no_metrics,
                          trace_ring=args.trace_ring))
    if args.http is not None:
        run_http_server(args.models, host=args.http_host, port=args.http,
                        use_async=args.use_async, **build)
    else:
        run_demo(args.requests, args.rate, args.models,
                 backend=args.backend, **build)
    return 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scale = SCALES[args.scale]
    if args.experiment == "serve":
        return _serve(args)
    if args.experiment == "report":
        from .analysis.report import generate_report

        report = generate_report(scale=scale, seed=args.seed)
        print(report)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / "report.md").write_text(report)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    failed = []
    for name in names:
        entry = EXPERIMENTS[name]
        print(f"== {name}: {entry.description} (scale={scale.name}) ==")
        start = time.perf_counter()
        table = entry.driver(scale, args.seed)
        elapsed = time.perf_counter() - start
        print(table.rendered)
        violations = entry.check(table)
        for violation in violations:
            print(f"VIOLATED {violation}")
        print(f"check: {len(violations)} claim(s) violated" if violations
              else "check: ok")
        print(f"[{elapsed:.1f}s]\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(table.rendered + "\n")
        if violations:
            failed.append(name)
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
