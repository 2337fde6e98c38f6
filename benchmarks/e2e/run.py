"""End-to-end benchmark of the FORMS stack: one command, six workloads.

    python3 benchmarks/e2e/run.py --seed 0                  # all six, untraced
    python3 benchmarks/e2e/run.py --workload offline_ideal --seed 3 \
            --seconds 10 --trace 0                           # the driver's form
    python3 benchmarks/e2e/run.py --traced --trace-out spans.jsonl
    python3 benchmarks/e2e/run.py --repeat-check
    python3 benchmarks/e2e/run.py --spread 10

Every workload runs in a fresh child interpreter of this same file
(``--child``).  An untraced run starts two more children that only set up
and tear down, so ``setup_s`` is the median of three set-ups.  The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when any check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SETUP_RUNS = 3

if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def digest(array) -> str:
    import numpy as np
    array = np.ascontiguousarray(array)
    head = f"{array.dtype}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# the child: one workload, one process
def host_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "loadavg_at_start": list(os.getloadavg())}


def build_workload(name: str, seed: int):
    import drivers
    import workloads
    from models import build_models
    common = workloads.load_config()
    models, config = build_models(common["model_seed"])
    return drivers.WORKLOADS[name](name, common["workloads"][name], common,
                                   models, config, seed, os.cpu_count() or 1)


def golden_failures(workload, seed: int, arrays: dict) -> list:
    """At the golden seed, the serial forward's first outputs must hash to
    what the independent ``matvec_int_reference`` path produced once."""
    with open(HERE / "golden.json") as handle:
        golden = json.load(handle)
    if (seed != golden["seed"]
            or workload.common["model_seed"] != golden["model_seed"]):
        return []
    return [f"golden digest mismatch: {key}" for key, array in arrays.items()
            if golden["digests"].get(key) != digest(array)]


def offline_ideal_probes(workload) -> dict:
    """``runtime.speedup_vs_serial`` (the same tiling through
    ``run_network_serial``) and ``runtime.process_speedup`` (process backend
    against threads, pool start-up excluded), each on a few batches."""
    from multiprocessing import resource_tracker
    from repro.runtime import WorkerPool, infer_tiled
    clock = time.perf_counter
    params = workload.params

    def timed(call, batches):
        start = clock()
        for index in range(batches):
            call(workload.inputs[index % len(workload.inputs)])
        return clock() - start

    def tiled(pool):
        return lambda batch: infer_tiled(workload.network, batch,
                                         tile_size=workload.tile_size,
                                         pool=pool)

    batches = params["serial_probe_batches"]
    probes = {"speedup_vs_serial":
              timed(workload.serial, batches) / timed(tiled(workload.pool),
                                                      batches)}
    batches = params["process_probe_batches"]
    with WorkerPool(workload.nproc, "process") as pool:
        tiled(pool)(workload.inputs[0])           # spawn and ship, untimed
        on_processes = timed(tiled(pool), batches)
    # the spawn start method leaves a resource-tracker helper process (and
    # its pipe) alive until the interpreter exits; stop and reap it now so
    # every process this run started has ended before the leak count
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    probes["process_speedup"] = (timed(tiled(workload.pool), batches)
                                 / on_processes)
    return probes


def run_child(args) -> int:
    import resource
    import report
    from measure import leak_snapshot, leaks_since
    from spans import EngineShims

    host = host_facts()
    leaks_before = leak_snapshot()
    workload = build_workload(args.workload[0], args.seed)
    workload.set_up()
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        workload.tear_down()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    shims, tile_records, probes, span_store = EngineShims(), [], {}, None
    if not args.trace:
        sections = [workload.run(args.seconds, 0)]
    else:
        # untraced quarter, traced half, untraced quarter: the two reference
        # legs bracket the traced one, so a host that drifts faster or
        # slower over the run does not read as tracing overhead
        quarter = args.seconds / 4
        before = workload.run(quarter, 0)
        shims.arm(workload.engines())
        timers = [] if workload.serving else workload.time_tiles()
        workload.sample_depth = True
        stats = workload.server.server_stats() if workload.serving else None
        traced = workload.run(2 * quarter, 1)
        if workload.serving:
            probes.update(report.server_probes(
                workload, traced, stats, workload.server.server_stats()))
        workload.sample_depth = False
        workload.untime_tiles()
        shims.disarm()
        after = workload.run(quarter, 2)
        tile_records = [row for timer in timers for row in timer.records]
        if workload.serving and not workload.open_loop:
            probes.update(report.codec_probe(workload))
        if workload.name == "offline_ideal":
            probes.update(offline_ideal_probes(workload))
        sections = [traced, before, after]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.tear_down()
    leaks = leaks_since(leaks_before)

    verified = workload.verify(sections)
    attempted, failed, details = report.tally(sections)
    failures = [f"{failed} of {attempted} operations failed: {details}"] \
        if failed else []
    failures += golden_failures(workload, args.seed, verified["golden"])
    failures += [f"leak: {count:+d} {kind} after teardown"
                 for kind, count in leaks.items() if count]
    out = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "host": host,
           "attempted": attempted, "failed": failed,
           "counts": verified["counts"], "leaks": leaks}
    if not args.trace:
        metrics = report.end_to_end(workload, sections[0])
        metrics["setup_s"] = {"value": setup_s}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb}
        out["end_to_end"] = metrics
    else:
        layers = report.layer_metrics(workload, sections[0], sections[1:],
                                      shims.records, tile_records, verified,
                                      probes)
        for kind, count in leaks.items():
            layers[f"leak.{kind}"] = count
        if layers["trace.sum_check_fail_share"] > 0.05:
            failures.append(
                "sum(layers) != rtt for "
                f"{layers['trace.sum_check_fail_share']:.1%} of requests")
        out["per_layer"] = layers
        out["applicable"] = report.applicable_layers(workload)
        if args.trace_out:
            span_store = report.span_rows(workload, sections[0],
                                          shims.records, tile_records)
    out["failures"] = failures
    print(json.dumps(out))
    if span_store is not None:
        span_store.dump(args.trace_out)
    return 0


# ---------------------------------------------------------------------------
# the parent: orchestration, printing, checks
class CheckFailed(Exception):
    pass


def spawn_child(name: str, seed: int, seconds: float, trace: int, *,
                setup_only: bool = False, trace_out: str = "") -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--spawned-at", repr(time.monotonic())]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckFailed(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(contract: dict, name: str, seed: int, seconds: float,
                 trace: int, trace_out: str = "") -> dict:
    """One workload -> ``{"line": the contract's result object, "child":
    the child's full report}``; raises :class:`CheckFailed` on a schema
    mismatch between what was measured and what BENCHMARK.json names."""
    setups = []
    if not trace:
        setups = [spawn_child(name, seed, seconds, trace,
                              setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    child = spawn_child(name, seed, seconds, trace, trace_out=trace_out)
    declared = contract["per_layer" if trace else "end_to_end"]
    if trace:
        values = child["per_layer"]
    else:
        setups.append(child["end_to_end"]["setup_s"]["value"])
        child["end_to_end"]["setup_s"] = {
            "value": statistics.median(setups), "runs": setups}
        values = {key: row["value"] for key, row in child["end_to_end"].items()}
    if set(values) != {row["name"] for row in declared}:
        raise CheckFailed(
            f"{name}: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ {row['name'] for row in declared})}")
    line = {"correct": not child["failures"],
            "attempted": child["attempted"], "failed": child["failed"],
            "metrics": {row["name"]: {"value": values[row["name"]],
                                      "unit": row["unit"]}
                        for row in declared}}
    return {"line": line, "child": child}


def print_workload(contract: dict, name: str, result: dict) -> None:
    child = result["child"]
    why = next(row["why"] for row in contract["workloads"]
               if row["name"] == name)
    host = child["host"]
    print(f"== {name}  seed {child['seed']}  {child['seconds']:g} s  "
          f"{'traced' if child['trace'] else 'untraced'}")
    print(f"   why: {why}")
    print(f"   host: nproc {host['nproc']}, python {host['python']}, numpy "
          f"{host['numpy']}, load {host['loadavg_at_start'][0]:.2f}")
    print(f"   attempted {child['attempted']}, failed {child['failed']}")
    if child["trace"]:
        shown = tuple(child["applicable"])
        for row in contract["per_layer"]:
            if row["name"].startswith(shown):
                print(f"   {row['name']:<32} "
                      f"{child['per_layer'][row['name']]:>14.6g} {row['unit']}")
    else:
        for row in contract["end_to_end"]:
            metric = child["end_to_end"][row["name"]]
            extra = ""
            if "q1" in metric:
                extra = (f"   [segments q1 {metric['q1']:.6g}, q3 "
                         f"{metric['q3']:.6g}; n {metric['n']}]")
            elif "runs" in metric:
                extra = "   [set-ups " + ", ".join(
                    f"{value:.3f}" for value in metric["runs"]) + "]"
            print(f"   {row['name']:<14} {metric['value']:>12.6g} "
                  f"{row['unit']}{extra}")
    counts = child["counts"]
    print("   exact counts over one pass of the seeded inputs: "
          + ", ".join(f"{key} {counts[key]}" for key in sorted(counts)))
    for failure in child["failures"]:
        print(f"   CHECK FAILED: {failure}")


def run_set(contract: dict, names, seed: int, seconds: float, trace: int,
            trace_out: str = "", quiet: bool = False) -> dict:
    results = {}
    for name in names:
        out = trace_out
        if trace_out and len(names) > 1:
            out = f"{trace_out}.{name}"
        results[name] = run_workload(contract, name, seed, seconds, trace, out)
        if not quiet:
            print_workload(contract, name, results[name])
            sys.stdout.flush()
    return results


def final_line(results: dict) -> dict:
    """One workload: its own result object.  Several: the same four keys
    with every metric prefixed by its workload."""
    if len(results) == 1:
        return next(iter(results.values()))["line"]
    lines = {name: result["line"] for name, result in results.items()}
    return {"correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": row
                        for name, line in lines.items()
                        for metric, row in line["metrics"].items()}}


def worse_by(row: dict, first: float, second: float) -> float:
    """How much worse ``second`` reads than ``first``, as a share of it."""
    change = (second - first) / first
    return change if row["better"] == "lower" else -change


def repeat_check(contract: dict, names, seed: int, seconds: float) -> bool:
    """The full untraced set twice, back to back, same seed: every
    end-to-end metric must agree within its bound in either direction, and
    the exact counts must be identical."""
    first = run_set(contract, names, seed, seconds, 0, quiet=True)
    second = run_set(contract, names, seed, seconds, 0, quiet=True)
    agreed = True
    print(f"{'workload':<22} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'differ':>8} {'bound':>6}")
    for name in names:
        for row in contract["end_to_end"]:
            a = first[name]["line"]["metrics"][row["name"]]["value"]
            b = second[name]["line"]["metrics"][row["name"]]["value"]
            differ = max(worse_by(row, a, b), worse_by(row, b, a))
            held = differ <= row["bound"]
            agreed &= held
            print(f"{name:<22} {row['name']:<14} {a:>12.6g} {b:>12.6g} "
                  f"{differ:>8.2%} {row['bound']:>6.0%}"
                  f"{'' if held else '   OUT OF BOUND'}")
        if first[name]["child"]["counts"] != second[name]["child"]["counts"]:
            agreed = False
            print(f"{name}: exact engine counts differ between the two runs")
        for result in (first[name], second[name]):
            agreed &= result["line"]["correct"]
            for failure in result["child"]["failures"]:
                print(f"{name}: CHECK FAILED: {failure}")
    return agreed


def spread_check(contract: dict, names, seed: int, seconds: float,
                 runs: int, out_path: str) -> bool:
    """``runs`` runs per workload, each with another seed: the distance
    between the quartiles of each end-to-end metric as a share of its
    median, beside a third of the metric's bound.  The workloads take
    turns, so a workload's runs are spread over the whole session and its
    spread holds the host's drift over minutes, as the driver's check does
    (ten runs back to back read two to four times steadier)."""
    from measure import spread
    steady = True
    table = {}
    taken = {name: [] for name in names}
    for index in range(runs):
        for name in names:
            taken[name].append(run_workload(contract, name, seed + index,
                                            seconds, 0)["line"])
    print(f"{'workload':<22} {'metric':<14} {'median':>12} {'spread':>8} "
          f"{'bound/3':>8}")
    for name, lines in taken.items():
        steady &= all(line["correct"] for line in lines)
        table[name] = {}
        for row in contract["end_to_end"]:
            values = [line["metrics"][row["name"]]["value"] for line in lines]
            share = spread(values)
            table[name][row["name"]] = {"median": statistics.median(values),
                                        "spread": share, "values": values}
            wide = row["name"] != "setup_s" and share > row["bound"] / 3
            steady &= not wide
            print(f"{name:<22} {row['name']:<14} "
                  f"{statistics.median(values):>12.6g} {share:>8.2%} "
                  f"{row['bound'] / 3:>8.2%}{'   WIDE' if wide else ''}")
        sys.stdout.flush()
    if out_path:
        with open(out_path, "w") as handle:
            json.dump({"seed": seed, "runs": runs, "seconds": seconds,
                       "spreads": table}, handle, indent=1)
            handle.write("\n")
    return steady


def regen_golden(contract: dict) -> None:
    """Forward the golden sample with every engine pointed at the retained
    cycle-by-cycle loop (``matvec_int_reference``) — a slow path independent
    of the kernels the benchmark times — and record the output digests."""
    import workloads
    common = workloads.load_config()
    seed = 0
    digests = {}
    for row in contract["workloads"]:
        workload = build_workload(row["name"], seed)
        workload.set_up()
        try:
            engines = workload.engines().values()
            if all(engine.dispatch_tier() in ("exact", "integer")
                   for engine in engines):
                for engine in engines:
                    engine.matvec_int = engine.matvec_int_reference
                for key, array in workload.golden_forward().items():
                    digests[key] = digest(array)
        finally:
            workload.tear_down()
    with open(HERE / "golden.json", "w") as handle:
        json.dump({"seed": seed, "model_seed": common["model_seed"],
                   "sample": common["golden_sample"], "digests": digests},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {HERE / 'golden.json'}")


def parse_args(contract: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[row["name"] for row in contract["workloads"]],
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of each measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_true",
                        help="--trace 1 at a quarter of --seconds")
    parser.add_argument("--trace-out", default="",
                        help="write the traced run's span rows here (JSONL)")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--spread", type=int, default=0, metavar="RUNS")
    parser.add_argument("--spread-out", default="")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args()


def main() -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: {SOURCE / 'repro'} is missing: the benchmark drives "
              "the repository's own package and has nothing to run without "
              "it", file=sys.stderr)
        return 2
    contract = load_contract()
    args = parse_args(contract)
    if args.child:
        return run_child(args)
    names = args.workload or [row["name"] for row in contract["workloads"]]
    if args.regen_golden:
        regen_golden(contract)
        return 0
    try:
        if args.repeat_check:
            return 0 if repeat_check(contract, names, args.seed,
                                     args.seconds) else 1
        if args.spread:
            return 0 if spread_check(contract, names, args.seed, args.seconds,
                                     args.spread, args.spread_out) else 1
        trace, seconds = args.trace, args.seconds
        if args.traced:
            trace, seconds = 1, args.seconds / 4
        results = run_set(contract, names, args.seed, seconds, trace,
                          args.trace_out)
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    line = final_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
