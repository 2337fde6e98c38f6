"""From ops, receipts and shim records to the numbers the benchmark prints.

``end_to_end`` reduces one measured section to the per-workload end-to-end
metrics (median over equal-count segments); ``layer_metrics`` reduces the
traced leg to the per-layer table; ``span_rows`` lays the same records out
as ``name, start, end, parent, request`` rows for ``--trace-out``.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.serving import WireResult
from repro.serving.http import decode_array_b64, decode_input, encode_array, \
    result_body

from drivers import ERROR, SERVED, SHED, Op, Section, Workload
from measure import median_of_segments, percentile, samples_beyond, \
    self_time, split_segments
from spans import SpanStore

clock = time.perf_counter

#: sum-of-layers check: the layers must explain a request's rtt to within
#: this share of it, or this many seconds, whichever is larger
SUM_TOLERANCE_SHARE = 0.05
SUM_TOLERANCE_S = 0.0005

TIERS = ("exact", "integer", "analog_irdrop", "analog_variation",
         "dense_noise")
COUNT_KEYS = ("conversions", "saturated", "macs", "cycles_fed",
              "pairs_scheduled", "pairs_skipped")


# ---------------------------------------------------------------------------
# end to end
def ordered_ops(workload: Workload, section: Section) -> List[Op]:
    """Schedule order for an open loop, completion order for a closed one."""
    if workload.open_loop:
        return sorted(section.ops, key=lambda op: op.ref_t)
    return sorted(section.ops, key=lambda op: op.done_t)


def segment_bounds(workload: Workload, count: int) -> List[Tuple[int, int]]:
    """The workload's segment count, or fewer when a very short run did
    fewer operations than that."""
    return split_segments(count, min(workload.segments, count))


def segment_windows(workload: Workload, section: Section,
                    ops: Sequence[Op]) -> List[Tuple[int, int, float]]:
    """``(lo, hi, seconds)`` per segment: a segment lasts from the last
    completion of the segments before it (the section's start for the
    first) to its own last completion, so rates are output rates measured
    where results arrive — on an open loop too, where they track the
    schedule only as long as the program keeps up."""
    windows = []
    edge = section.start
    for lo, hi in segment_bounds(workload, len(ops)):
        finish = max(op.done_t for op in ops[lo:hi])
        # a sub-second open loop can finish a segment before the one ahead
        # of it; a microsecond keeps its rates finite (and absurd)
        windows.append((lo, hi, max(finish - edge, 1e-6)))
        edge = max(edge, finish)
    return windows


def end_to_end(workload: Workload, section: Section) -> Dict[str, Dict]:
    ops = ordered_ops(workload, section)
    per_segment: Dict[str, List[float]] = {
        "images_per_s": [], "rtt_p50_ms": [], "rtt_tail_ms": [],
        "goodput_rps": [], "ok_share": []}
    rtt_samples = 0
    for lo, hi, seconds in segment_windows(workload, section, ops):
        segment = ops[lo:hi]
        good = [op for op in segment if op.correct]
        within = [op for op in good if op.rtt_s <= workload.limit_s(op)]
        per_segment["images_per_s"].append(
            sum(op.images for op in good) / seconds)
        per_segment["goodput_rps"].append(len(within) / seconds)
        per_segment["ok_share"].append(len(within) / len(segment))
        rtts = [op.rtt_s * 1e3 for op in segment
                if workload.counts_for_rtt(op)]
        if rtts:
            rtt_samples += len(rtts)
            per_segment["rtt_p50_ms"].append(percentile(rtts, 50))
            per_segment["rtt_tail_ms"].append(
                percentile(rtts, workload.tail_percentile))
    if not per_segment["rtt_p50_ms"]:
        raise RuntimeError("no operation was served, so there is no rtt")
    metrics = {}
    for name, values in per_segment.items():
        metrics[name] = median_of_segments(values)
        metrics[name]["n"] = (rtt_samples if name.startswith("rtt_")
                              else len(ops))
    return metrics


def tally(sections: Sequence[Section]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, details)``: an operation *fails* when it errors
    or is served with bits (or a receipt) that differ from the serial
    forward.  A shed request that carries its receipt is the program doing
    what it documents; it misses every latency limit (``ok_share``,
    ``goodput_rps``) but is not a failure of the program."""
    attempted = failed = 0
    details: List[str] = []
    for section in sections:
        for op in section.ops:
            attempted += 1
            bad = (op.outcome == ERROR
                   or (op.outcome == SERVED and not op.correct)
                   or (op.outcome == SHED and not (op.receipt or {}).get("reason")))
            if bad:
                failed += 1
                if len(details) < 5:
                    details.append(f"{op.cls} {op.key}: {op.outcome} "
                                   f"{op.detail}".strip())
    return attempted, failed, details


# ---------------------------------------------------------------------------
# per layer
def flat_receipts(op: Op) -> List[Dict]:
    return op.receipt if isinstance(op.receipt, list) else [op.receipt]


def batches_of(ops: Sequence[Op]) -> Dict[int, Tuple[int, float]]:
    """``batch id -> (size, service seconds)`` from the served receipts."""
    seen: Dict[int, Tuple[int, float]] = {}
    for op in ops:
        if op.outcome == SERVED:
            for receipt in flat_receipts(op):
                seen[receipt["batch_id"]] = (receipt["batch_size"],
                                             receipt["service_s"])
    return seen


def slowest_receipt(op: Op) -> Dict:
    return max(flat_receipts(op), key=lambda receipt: receipt["latency_s"])


def sum_check_fails(op: Op) -> bool:
    """transport + queue_wait + service must explain the rtt, where
    transport is what the benchmark measured outside the receipt."""
    receipt = slowest_receipt(op)
    tolerance = max(SUM_TOLERANCE_SHARE * op.rtt_s, SUM_TOLERANCE_S)
    transport = op.rtt_s - receipt["latency_s"]
    inner = receipt["queue_wait_s"] + receipt["service_s"]
    return (transport < -tolerance
            or abs(transport + inner - op.rtt_s) > tolerance)


def in_section(mvm_records, section: Section) -> List[Tuple]:
    """The shim's rows that started inside the section (an open loop's
    lead-in traffic runs with the shims armed but is not part of it)."""
    return [row for row in mvm_records if row[3] >= section.start]


def mvm_by_thread(records) -> Dict[int, Tuple[List[float], List[Tuple]]]:
    grouped: Dict[int, List[Tuple]] = {}
    for record in records:
        grouped.setdefault(record[2], []).append(record)
    out = {}
    for thread, rows in grouped.items():
        rows.sort(key=lambda row: row[3])
        out[thread] = ([row[3] for row in rows], rows)
    return out


def children_within(index, thread: int, start: float, end: float) -> List[Tuple]:
    starts, rows = index.get(thread, ([], []))
    lo = bisect.bisect_left(starts, start)
    hi = bisect.bisect_right(starts, end)
    return [row for row in rows[lo:hi] if row[4] <= end]


def forward_split(workload: Workload, section: Section, mvm_records,
                  tile_records) -> Tuple[float, float]:
    """``(engine busy seconds, glue seconds)`` of the traced leg.

    Offline, the benchmark times each tile itself, so glue is the tiles'
    self time (tile minus the MVM calls inside it).  On ``serve_*`` the
    forward runs inside the server: glue is then the service thread-seconds
    the receipts report minus MVM busy — an upper bound that also holds the
    pool's idle time at the tail of each batch."""
    busy = sum(row[4] - row[3] for row in mvm_records)
    if tile_records:
        index = mvm_by_thread(mvm_records)
        glue = sum(
            self_time(start, end, [(row[3], row[4]) for row in
                                   children_within(index, thread, start, end)])
            for thread, start, end in tile_records)
        return busy, glue
    thread_seconds = sum(service * min(size, workload.workers)
                         for size, service in batches_of(section.ops).values())
    return busy, max(0.0, thread_seconds - busy)


def layer_metrics(workload: Workload, traced: Section,
                  references: Sequence[Section], mvm_records, tile_records,
                  verified: Dict, probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of the table; a metric that does not apply to
    the workload reads 0 (``applicable_layers`` says which are printed)."""
    metrics: Dict[str, float] = {}
    mvm_records = in_section(mvm_records, traced)
    ops = traced.ops
    served = [op for op in ops if op.outcome == SERVED]
    wall = traced.end - traced.start

    # reram.engine
    busy, glue = forward_split(workload, traced, mvm_records, tile_records)
    metrics["engine.mvm_calls"] = len(mvm_records)
    metrics["engine.mvm_busy_s"] = busy
    metrics["engine.busy_share"] = busy / (busy + glue) if busy + glue else 0.0
    for tier in TIERS:
        calls = [(row[4] - row[3]) * 1e6 for row in mvm_records
                 if row[1] == tier]
        metrics[f"engine.mvm_us.{tier}"] = (statistics.median(calls)
                                            if calls else 0.0)
    counts = verified["counts"]
    for key in COUNT_KEYS:
        metrics[f"engine.{key}"] = counts[key]
    metrics["engine.skip_ratio"] = skip_ratio(counts)
    halves = verified.get("halves", {})
    for half in ("sparse", "dense"):
        metrics[f"engine.skip_ratio.{half}"] = (
            skip_ratio(halves[half]) if half in halves else 0.0)

    # reram.inference + nn, runtime
    hits, misses = workload.die_cache_stats()
    metrics["insitu.glue_s"] = glue
    metrics["insitu.build_s"] = workload.timings["build_s"]
    metrics["die_cache.hits"] = hits
    metrics["die_cache.misses"] = misses
    metrics["runtime.tiles"] = sum(workload.tiles_of(op) for op in served)
    metrics["runtime.pool_start_s"] = workload.timings["pool_start_s"]
    metrics["runtime.speedup_vs_serial"] = probes.get("speedup_vs_serial", 0.0)
    metrics["runtime.process_speedup"] = probes.get("process_speedup", 0.0)

    # serving.*
    serving = dict.fromkeys(SERVING_METRICS, 0.0)
    if workload.serving:
        serving.update(serving_metrics(workload, traced, served, wall, probes))
    metrics.update(serving)

    # harness
    rtts = [op.rtt_s * 1e3 for op in ops if workload.counts_for_rtt(op)]
    metrics["gen.sent"] = len(ops)
    if workload.open_loop:
        sends = [op.send_t for op in ops]
        metrics["gen.offered_rps_realized"] = (
            (len(ops) - 1) / (max(sends) - min(sends)) if len(ops) > 1 else 0.0)
        metrics["gen.late_ms_p95"] = percentile(
            [(op.send_t - op.ref_t) * 1e3 for op in ops], 95)
    else:
        metrics["gen.offered_rps_realized"] = len(ops) / wall
        metrics["gen.late_ms_p95"] = 0.0
    metrics["tail.rtt_p99_ms"] = percentile(rtts, 99)
    in_order = ordered_ops(workload, traced)
    metrics["tail.samples_beyond"] = min(
        samples_beyond(sum(workload.counts_for_rtt(op)
                           for op in in_order[lo:hi]),
                       workload.tail_percentile)
        for lo, hi in segment_bounds(workload, len(ops)))
    metrics["trace.overhead_pct"] = overhead_pct(workload, references, traced)
    checked = served if workload.serving else []
    metrics["trace.sum_check_fail_share"] = (
        sum(sum_check_fails(op) for op in checked) / len(checked)
        if checked else 0.0)
    return metrics


def skip_ratio(counts: Dict[str, int]) -> float:
    total = counts["pairs_scheduled"] + counts["pairs_skipped"]
    return counts["pairs_skipped"] / total if total else 0.0


def leg_figure(workload: Workload, section: Section) -> float:
    """One leg in one number: median rtt on an open loop (whose throughput
    is the schedule's, not the program's), images per second otherwise."""
    if workload.open_loop:
        return statistics.median(op.rtt_s for op in section.ops
                                 if workload.counts_for_rtt(op))
    return (sum(op.images for op in section.ops if op.outcome == SERVED)
            / (section.end - section.start))


def overhead_pct(workload: Workload, references: Sequence[Section],
                 traced: Section) -> float:
    """The traced leg against the mean of the untraced legs that ran just
    before and just after it in the same process: median rtt gained on an
    open loop, throughput lost on a closed one."""
    base = statistics.fmean(leg_figure(workload, section)
                            for section in references)
    change = leg_figure(workload, traced) / base - 1.0
    return 100.0 * (change if workload.open_loop else -change)


SERVING_METRICS = (
    "queue.wait_ms_p50", "queue.wait_ms_p95", "queue.depth_max",
    "batch.count", "batch.size_mean", "sched.shed_deadline",
    "sched.shed_latency_bound", "sched.shed_admission", "sched.shed_share",
    "sched.late_served",
    "server.service_ms_p50", "server.occupancy", "server.submit_us",
    "server.completed", "server.failed",
    "http.transport_ms_p50", "http.codec_us_per_request",
    "http.bytes_in_per_request", "http.bytes_out_per_request", "http.errors",
    "aio.transport_ms_p50", "aio.first_event_ms_p50", "aio.stream_events",
    "aio.codec_us_per_batch", "aio.errors",
    "obs.scrape_ms", "obs.series", "obs.trace_found_share")


def serving_metrics(workload: Workload, traced: Section, served: List[Op],
                    wall: float, probes: Dict[str, float]) -> Dict[str, float]:
    ops = traced.ops
    receipts = [receipt for op in served for receipt in flat_receipts(op)]
    waits = [receipt["queue_wait_s"] * 1e3 for receipt in receipts]
    batches = batches_of(served)
    sheds = [op for op in ops if op.outcome == SHED]
    reasons = [(op.receipt or {}).get("reason") for op in sheds]
    out = {
        "queue.wait_ms_p50": percentile(waits, 50),
        "queue.wait_ms_p95": percentile(waits, 95),
        "queue.depth_max": traced.depth_max,
        "batch.count": len(batches),
        "batch.size_mean": statistics.fmean(size for size, _ in
                                            batches.values()),
        "sched.shed_deadline": reasons.count("deadline"),
        "sched.shed_latency_bound": reasons.count("latency_bound"),
        "sched.shed_admission": reasons.count("admission"),
        "sched.shed_share": len(sheds) / len(ops),
        "sched.late_served": sum(op.rtt_s > workload.limit_s(op)
                                 for op in served),
        "server.service_ms_p50": statistics.median(
            service for _, service in batches.values()) * 1e3,
        "server.occupancy": sum(service for _, service in
                                batches.values()) / wall,
        "server.completed": probes["server_completed"],
        "server.failed": probes["server_failed"],
        "obs.scrape_ms": probes["obs_scrape_ms"],
        "obs.series": probes["obs_series"],
        "obs.trace_found_share": probes["obs_trace_found_share"],
    }
    if workload.open_loop:
        out["server.submit_us"] = statistics.median(
            (op.send_end_t - op.send_t) * 1e6 for op in ops)
        return out
    layer = "http" if workload.name == "serve_http_single" else "aio"
    out[f"{layer}.transport_ms_p50"] = statistics.median(
        (op.rtt_s - slowest_receipt(op)["latency_s"]) * 1e3 for op in served)
    out[f"{layer}.errors"] = sum(op.outcome == ERROR for op in ops)
    if layer == "http":
        out["http.codec_us_per_request"] = probes["codec_us"]
        out["http.bytes_in_per_request"] = probes["bytes_in"]
        out["http.bytes_out_per_request"] = probes["bytes_out"]
    else:
        out["aio.codec_us_per_batch"] = probes["codec_us"]
        out["aio.first_event_ms_p50"] = statistics.median(
            (op.first_event_t - op.ref_t) * 1e3 for op in served)
        out["aio.stream_events"] = sum(op.events for op in ops)
    return out


def applicable_layers(workload: Workload) -> List[str]:
    """Metric-name prefixes that mean something on this workload; nothing
    under ``serving.*`` (queue, batch, sched, server, http, aio, obs) is
    printed for an offline workload."""
    prefixes = ["engine.", "insitu.", "die_cache.", "runtime.", "gen.",
                "tail.", "trace.", "leak."]
    if workload.serving:
        prefixes += ["queue.", "batch.", "sched.", "server.", "obs."]
        if not workload.open_loop:
            prefixes.append("http." if workload.name == "serve_http_single"
                            else "aio.")
    return prefixes


# ---------------------------------------------------------------------------
# probes the traced run makes with the program still up
def server_probes(workload: Workload, traced: Section,
                  before: Dict, after: Dict) -> Dict[str, float]:
    """``server_stats()`` deltas over the traced leg, one ``/metrics``
    scrape, and the trace ring looked up for up to 100 served ids."""
    server = workload.server
    start = clock()
    text = server.metrics_text()
    scrape_ms = (clock() - start) * 1e3
    ids = [receipt["trace_id"] for op in traced.ops if op.outcome == SERVED
           for receipt in flat_receipts(op)][-100:]
    found = sum(server.trace(trace_id) is not None for trace_id in ids)
    return {
        "server_completed": (after["requests_completed"]
                             - before["requests_completed"]),
        "server_failed": after["requests_failed"] - before["requests_failed"],
        "obs_scrape_ms": scrape_ms,
        "obs_series": sum(1 for line in text.splitlines()
                          if line and not line.startswith("#")),
        "obs_trace_found_share": found / len(ids) if ids else 0.0,
    }


def codec_probe(workload: Workload) -> Dict[str, float]:
    """Time the wire codecs directly on the workload's own payloads: what
    the client encodes, the server decodes, the server encodes and the
    client decodes for one request (``serve_http_single``: JSON single) or
    one streamed batch (``serve_async_stream``: ``npy_b64``).  Bytes in and
    out are the lengths of those bodies, computed here, not read off the
    socket."""
    stream = workload.name == "serve_async_stream"
    size = workload.params.get("stream_batch", 1)
    kwargs = workload.submit_kwargs(workload.cls_name)
    count = workload.params["codec_probe_requests"]
    spent = bytes_in = bytes_out = 0.0
    for step in range(count):
        images = workload.images[step * size:(step + 1) * size]
        results = workload.server.submit_many(list(images), **kwargs)
        start = clock()
        if stream:
            body = json.dumps({"inputs_b64": [encode_array(image)
                                              for image in images],
                               "model": kwargs["model"],
                               "priority": kwargs["priority"]})
            payload = json.loads(body)
            for item in payload["inputs_b64"]:
                decode_array_b64(item)
            replies = [json.dumps(dict(result_body(result, True), index=index))
                       for index, result in enumerate(results)]
        else:
            body = json.dumps({"input": images[0].tolist(),
                               "model": kwargs["model"],
                               "priority": kwargs["priority"]})
            decode_input(json.loads(body))
            replies = [json.dumps(result_body(results[0], False))]
        for reply in replies:
            WireResult.from_body(json.loads(reply))
        spent += clock() - start
        bytes_in += len(body)
        bytes_out += sum(len(reply) for reply in replies)
    return {"codec_us": spent / count * 1e6, "bytes_in": bytes_in / count,
            "bytes_out": bytes_out / count}


# ---------------------------------------------------------------------------
# span rows
def span_rows(workload: Workload, section: Section, mvm_records,
              tile_records) -> SpanStore:
    """``request -> transport | queue_wait | batch.service -> engine.mvm``
    (``serve_*``) or ``request -> runtime.tile -> engine.mvm`` (offline).

    Durations come from the benchmark's clocks and the program's receipts.
    Receipts carry durations, not clock times, so inside a served request
    the children are *placed* back from its completion: service ends where
    the request does, queue wait ends where service starts, and transport
    takes what is left at the front.  ``engine.mvm`` rows carry the times
    the shim read; they hang off the tile (offline) or the batch (serving)
    whose interval holds their midpoint."""
    store = SpanStore()
    mvm_records = in_section(mvm_records, section)
    mvm_index = mvm_by_thread(mvm_records)
    if tile_records:
        tiles = sorted(tile_records, key=lambda row: row[1])
        tile_starts = [row[1] for row in tiles]
        for number, op in enumerate(ordered_ops(workload, section)):
            request = f"{workload.name}-{number}"
            parent = store.add("request", op.ref_t, op.done_t, request=request,
                               outcome=op.outcome)
            lo = bisect.bisect_left(tile_starts, op.ref_t)
            hi = bisect.bisect_right(tile_starts, op.done_t)
            for thread, start, end in tiles[lo:hi]:
                tile = store.add("runtime.tile", start, end, parent=parent,
                                 request=request)
                for row in children_within(mvm_index, thread, start, end):
                    store.add("engine.mvm", row[3], row[4], parent=tile,
                              request=request, layer=row[0], tier=row[1])
        return store
    batch_spans: Dict[int, int] = {}
    batch_windows: List[Tuple[float, float, int]] = []
    for number, op in enumerate(ordered_ops(workload, section)):
        request = (flat_receipts(op)[0] or {}).get("trace_id") \
            or f"{workload.name}-{number}"
        parent = store.add("request", op.ref_t, op.done_t, request=request,
                           outcome=op.outcome, cls=op.cls)
        if op.outcome != SERVED:
            continue
        receipt = slowest_receipt(op)
        service_start = op.done_t - receipt["service_s"]
        queue_start = op.done_t - receipt["latency_s"]
        store.add("transport", op.ref_t, queue_start, parent=parent,
                  request=request)
        store.add("queue_wait", queue_start, service_start, parent=parent,
                  request=request)
        service = store.add("batch.service", service_start, op.done_t,
                            parent=parent, request=request,
                            batch=receipt["batch_id"])
        if receipt["batch_id"] not in batch_spans:
            batch_spans[receipt["batch_id"]] = service
            batch_windows.append((service_start, op.done_t, service))
    batch_windows.sort()
    starts = [window[0] for window in batch_windows]
    for row in mvm_records:
        middle = (row[3] + row[4]) / 2
        at = bisect.bisect_right(starts, middle) - 1
        parent = (batch_windows[at][2]
                  if at >= 0 and middle <= batch_windows[at][1] else None)
        store.add("engine.mvm", row[3], row[4], parent=parent,
                  request=None, layer=row[0], tier=row[1])
    return store
