"""The six workloads: set-up, warm-up, measured section, teardown, reference.

Each class drives the stack through public entry points only and keeps what
the report needs — one :class:`Op` per operation the caller waited for (an
``infer_tiled`` call, a round of non-ideal forwards, a request, a streamed
batch) with its times, its outputs and the receipt the program returned.
Nothing here reads a clock inside the program or edits it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.reram import (CellIV, DeviceSpec, DieCache, NonidealEngine,
                         ReadNoise, ReRAMDevice, WireModel,
                         build_insitu_network)
from repro.runtime import WorkerPool, infer_tiled, run_network_serial
from repro.serving import (AsyncFrontend, HttpClient, HttpError, HttpFrontend,
                           InferenceServer, ModelRegistry, PriorityClass,
                           RequestShed, SlaPolicy, WireResult)

import workloads as gen
from measure import run_open_loop
from models import ideal_device, lowering_kwargs
from spans import TileTimer

clock = time.perf_counter

SERVED, SHED, ERROR = "served", "shed", "error"


@dataclass
class Op:
    """One operation a caller waited for."""

    ref_t: float                 # due time (open loop) or send time (closed)
    done_t: float
    key: object                  # which generated input(s) it carried
    cls: str                     # priority class / engine configuration
    outcome: str
    images: int
    output: object = None        # array, or list of arrays for a stream
    receipt: object = None       # receipt dict(s) the program returned
    send_t: float = 0.0          # open loop: when submit was called ...
    send_end_t: float = 0.0      # ... and when it returned
    first_event_t: float = 0.0   # stream: first server-sent event
    events: int = 0
    correct: bool = False        # set by verify()
    detail: str = ""

    @property
    def rtt_s(self) -> float:
        return self.done_t - self.ref_t


@dataclass
class Section:
    """One measured leg: its ops and the window they ran in."""

    ops: List[Op]
    start: float
    end: float
    depth_max: int = 0                   # deepest queue seen at a send


def engine_counts(engines: Dict[str, object]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for engine in engines.values():
        for key, value in engine.stats.as_dict().items():
            total[key] = total.get(key, 0) + value
    return total


def counted(engines: Dict[str, object], call: Callable):
    """``(call(), exact engine-counter delta of the call)``."""
    before = engine_counts(engines)
    out = call()
    after = engine_counts(engines)
    return out, {key: after[key] - before[key] for key in after}


def add_counts(total: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


class Workload:
    """Common shape; subclasses fill in the five phases."""

    open_loop = False
    serving = False

    def __init__(self, name: str, params: Dict, common: Dict, models: Dict,
                 config, seed: int, nproc: int):
        self.name = name
        self.params = params
        self.common = common
        self.models = models
        self.config = config
        self.seed = seed
        self.nproc = nproc
        self.workers = common["pool_workers"]
        self.segments = params.get("segments", common["segments"])
        self.tail_percentile = params["tail_percentile"]
        self.timings: Dict[str, float] = {}
        self.sample_depth = False
        self.networks: Dict[str, Callable] = {}   # offline: what run() forwards
        self.forward: Dict[str, Callable] = {}

    # -- phases ----------------------------------------------------------
    def set_up(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, leg: int) -> Section:
        raise NotImplementedError

    def tear_down(self) -> None:
        raise NotImplementedError

    def verify(self, sections: List[Section]) -> Dict:
        """Mark every op ``correct`` against the serial reference and
        return ``{"counts": exact engine counts over one pass of the seeded
        inputs, "golden": {key: first reference outputs}}``."""
        raise NotImplementedError

    # -- facts the report asks for -----------------------------------------
    def engines(self) -> Dict[str, object]:
        """Every engine the workload runs on, keyed ``<network>/<layer>``."""
        raise NotImplementedError

    def limit_s(self, op: Op) -> float:
        return float("inf")

    def counts_for_rtt(self, op: Op) -> bool:
        return op.outcome == SERVED

    def tiles_of(self, op: Op) -> int:
        return op.images

    def die_cache_stats(self) -> Tuple[int, int]:
        return self.die_cache.hits, self.die_cache.misses

    def time_tiles(self) -> List[TileTimer]:
        """Offline workloads pass the network callable to the runtime
        themselves, so the traced leg can pass one that times each tile."""
        timers = {key: TileTimer(network)
                  for key, network in self.networks.items()}
        self.forward = timers
        return list(timers.values())

    def untime_tiles(self) -> None:
        self.forward = dict(self.networks)

    def golden_forward(self) -> Dict[str, np.ndarray]:
        """The serial forward of the golden sample, keyed as in
        ``golden.json`` (``--regen-golden`` calls this with the engines
        pointed at ``matvec_int_reference``)."""
        return {}


# ---------------------------------------------------------------------------
class OfflineWorkload(Workload):
    """Closed work: one caller cycles through ``inputs`` (the distinct
    seeded batches or rounds), one ``one(index)`` call per op."""

    op_name = ""
    inputs: List

    def one(self, index: int):
        raise NotImplementedError

    def images_in(self, index: int) -> int:
        raise NotImplementedError

    def warm_up(self) -> None:
        for count in range(self.params["warmup_ops"]):
            self.one(count % len(self.inputs))

    def run(self, seconds: float, leg: int) -> Section:
        ops: List[Op] = []
        start = clock()
        while True:
            sent = clock()
            if sent - start >= seconds:
                break
            index = len(ops) % len(self.inputs)
            out = self.one(index)
            ops.append(Op(ref_t=sent, done_t=clock(), key=index,
                          cls=self.op_name, outcome=SERVED,
                          images=self.images_in(index), output=out))
        return Section(ops, start, clock())


class OfflineIdeal(OfflineWorkload):
    """Mixed batches through ``infer_tiled`` on a thread pool."""

    op_name = "batch"

    def set_up(self) -> None:
        start = clock()
        self.pool = WorkerPool(self.workers, "thread")
        self.timings["pool_start_s"] = clock() - start
        self.die_cache = DieCache()
        start = clock()
        self.network, self._engines = build_insitu_network(
            self.models[self.params["model"]], self.config, ideal_device(),
            die_cache=self.die_cache, **lowering_kwargs())
        self.timings["build_s"] = clock() - start
        self.networks = {"bulk": self.network}
        self.forward = dict(self.networks)
        self.inputs = gen.offline_batches(self.seed, self.name, self.params)
        self.tile_size = self.params["tile_size"]

    def one(self, index: int) -> np.ndarray:
        return infer_tiled(self.forward["bulk"], self.inputs[index],
                           tile_size=self.tile_size, pool=self.pool)

    def images_in(self, index: int) -> int:
        return self.inputs[index].shape[0]

    def tear_down(self) -> None:
        self.pool.close()

    def engines(self) -> Dict[str, object]:
        return {f"bulk/{layer}": engine
                for layer, engine in self._engines.items()}

    def tiles_of(self, op: Op) -> int:
        return -(-op.images // self.tile_size)

    def serial(self, images: np.ndarray) -> np.ndarray:
        return run_network_serial(self.network, images,
                                  tile_size=self.tile_size)

    def golden_forward(self) -> Dict[str, np.ndarray]:
        sample = self.common["golden_sample"]
        return {self.name: self.serial(self.inputs[0][:sample])}

    def verify(self, sections: List[Section]) -> Dict:
        half = self.params["batch"] // 2
        totals = {"sparse": {}, "dense": {}}
        reference = []
        for batch in self.inputs:
            sparse, delta = counted(self._engines,
                                    lambda: self.serial(batch[:half]))
            add_counts(totals["sparse"], delta)
            dense, delta = counted(self._engines,
                                   lambda: self.serial(batch[half:]))
            add_counts(totals["dense"], delta)
            reference.append(np.concatenate([sparse, dense]))
        for section in sections:
            for op in section.ops:
                op.correct = np.array_equal(op.output, reference[op.key])
        counts = dict(totals["sparse"])
        add_counts(counts, totals["dense"])
        sample = self.common["golden_sample"]
        return {"counts": counts, "halves": totals,
                "golden": {self.name: reference[0][:sample]}}


# ---------------------------------------------------------------------------
class OfflineNonideal(OfflineWorkload):
    """Three non-ideal engine configurations, one round of each per op,
    forwarded inline (no pool, no tiling, no serving)."""

    op_name = "round"
    CONFIGS = ("irdrop", "variation", "read_noise")

    def set_up(self) -> None:
        self.timings["pool_start_s"] = 0.0
        self.die_cache = DieCache()
        model = self.models[self.params["model"]]
        spec = self.params
        lowered = {
            "irdrop": dict(device=ideal_device(), engine_cls=NonidealEngine,
                           wire=WireModel(spec["irdrop"]["wire_ohm"]),
                           cell_iv=CellIV(spec["irdrop"]["cell_iv"])),
            "variation": dict(device=ReRAMDevice(
                DeviceSpec(), spec["variation"]["sigma"],
                seed=spec["variation"]["device_seed"])),
            "read_noise": dict(device=ideal_device(),
                               engine_cls=NonidealEngine,
                               read_noise=ReadNoise(
                                   spec["read_noise"]["relative_sigma"],
                                   seed=spec["read_noise"]["noise_seed"])),
        }
        start = clock()
        self.networks, self._engines = {}, {}
        for config, kwargs in lowered.items():
            device = kwargs.pop("device")
            self.networks[config], self._engines[config] = \
                build_insitu_network(model, self.config, device,
                                     die_cache=self.die_cache,
                                     **lowering_kwargs(), **kwargs)
        self.timings["build_s"] = clock() - start
        self.forward = dict(self.networks)
        self.inputs = gen.nonideal_rounds(self.seed, self.name, self.params)

    def one(self, index: int) -> Dict[str, np.ndarray]:
        return {config: run_network_serial(self.forward[config], images,
                                           tile_size=1)
                for config, images in self.inputs[index].items()}

    def images_in(self, index: int) -> int:
        return sum(len(images) for images in self.inputs[index].values())

    def tear_down(self) -> None:
        pass

    def engines(self) -> Dict[str, object]:
        return {f"{config}/{layer}": engine
                for config, engines in self._engines.items()
                for layer, engine in engines.items()}

    def verify(self, sections: List[Section]) -> Dict:
        counts: Dict[str, int] = {}
        reference = []
        for images in self.inputs:
            row = {}
            for config in self.CONFIGS:
                row[config], delta = counted(
                    self._engines[config],
                    lambda: run_network_serial(self.networks[config],
                                               images[config], tile_size=1))
                add_counts(counts, delta)
            reference.append(row)
        for section in sections:
            for op in section.ops:
                op.correct = all(
                    np.array_equal(op.output[config], reference[op.key][config])
                    for config in self.CONFIGS)
        return {"counts": counts, "golden": {}}


# ---------------------------------------------------------------------------
class ServeWorkload(Workload):
    """Shared by the four ``serve_*``: one registry on one thread pool, the
    server in its default shape (``Observability()`` armed)."""

    serving = True

    def set_up(self) -> None:
        self.classes: Dict[str, Dict] = self.params["policy"]
        start = clock()
        self.pool = WorkerPool(self.workers, "thread")
        self.timings["pool_start_s"] = clock() - start
        self.registry = ModelRegistry(pool=self.pool)
        self.die_cache = self.registry.die_cache
        start = clock()
        for model in sorted({cls["model"] for cls in self.classes.values()}):
            self.registry.register(model, self.models[model], self.config,
                                   ideal_device(), **lowering_kwargs())
        self.timings["build_s"] = clock() - start
        self.server = InferenceServer(registry=self.registry,
                                      policy=self._policy())
        self.images = gen.mixed_pool(
            gen.stream(self.seed, self.name, "images"),
            self.params["pool_images"])

    def _policy(self) -> SlaPolicy:
        if list(self.classes) == ["default"]:
            cls = self.classes["default"]
            return SlaPolicy.fifo(max_batch=cls["max_batch"],
                                  max_wait_s=cls["max_wait_ms"] / 1e3)
        return SlaPolicy(tuple(
            PriorityClass(name, max_batch=cls["max_batch"],
                          max_wait_s=cls["max_wait_ms"] / 1e3,
                          shed_after_s=(cls["shed_after_ms"] / 1e3
                                        if "shed_after_ms" in cls else None))
            for name, cls in self.classes.items()))

    def submit_kwargs(self, cls_name: str) -> Dict:
        cls = self.classes[cls_name]
        kwargs = {"model": cls["model"], "priority": cls_name}
        if "deadline_ms" in cls:
            kwargs["deadline_s"] = cls["deadline_ms"] / 1e3
        return kwargs

    def tear_down(self) -> None:
        self.server.shutdown()
        self.registry.close()
        self.pool.close()

    def engines(self) -> Dict[str, object]:
        return {f"{name}/{layer}": engine
                for name in self.registry.names()
                for layer, engine in self.registry.get(name).engines.items()}

    def limit_s(self, op: Op) -> float:
        return self.classes[op.cls]["limit_ms"] / 1e3

    def sample_queue_depth(self, section_depth: List[int]) -> None:
        if self.sample_depth:
            section_depth[0] = max(section_depth[0], self.server.queue.depth)

    # -- reference -----------------------------------------------------------
    def golden_forward(self) -> Dict[str, np.ndarray]:
        sample = self.images[:self.common["golden_sample"]]
        return {f"{self.name}/{model}": run_network_serial(
                    self.registry.get(model).network, sample, tile_size=1)
                for model in self.registry.names()}

    def verify(self, sections: List[Section]) -> Dict:
        counts: Dict[str, int] = {}
        outputs: Dict[str, np.ndarray] = {}
        per_image: Dict[str, List[Dict[str, int]]] = {}
        for model in self.registry.names():
            entry = self.registry.get(model)
            rows, deltas = [], []
            for index in range(self.images.shape[0]):
                row, delta = counted(
                    entry.engines,
                    lambda: run_network_serial(
                        entry.network, self.images[index:index + 1],
                        tile_size=1))
                rows.append(row[0])
                deltas.append(delta)
                add_counts(counts, delta)
            outputs[model] = np.stack(rows)
            per_image[model] = deltas
        for section in sections:
            for op in section.ops:
                if op.outcome != SERVED:
                    continue
                model = self.classes[op.cls]["model"]
                op.correct, op.detail = self._check(
                    op, outputs[model], per_image[model])
        sample = self.common["golden_sample"]
        return {"counts": counts,
                "golden": {f"{self.name}/{model}": outputs[model][:sample]
                           for model in outputs}}

    @staticmethod
    def _check(op: Op, outputs: np.ndarray,
               per_image: List[Dict[str, int]]) -> Tuple[bool, str]:
        keys = op.key if isinstance(op.key, tuple) else (op.key,)
        served = op.output if isinstance(op.output, list) else [op.output]
        receipts = op.receipt if isinstance(op.receipt, list) else [op.receipt]
        for key, output, receipt in zip(keys, served, receipts):
            if not np.array_equal(output, outputs[key]):
                return False, f"output of pool image {key} != serial forward"
            if dict(receipt["engine_stats"]) != per_image[key]:
                return False, f"receipt engine_stats of pool image {key} " \
                              "!= serial forward's counters"
        return True, ""


def receipt_of(stats) -> Dict:
    """The fields of a ``RequestStats`` the report reads (the span tree it
    also carries stays with the server)."""
    return {"batch_id": stats.batch_id, "batch_size": stats.batch_size,
            "queue_wait_s": stats.queue_wait_s, "service_s": stats.service_s,
            "latency_s": stats.latency_s, "engine_stats": stats.engine_stats,
            "trace_id": stats.trace_id}


class ServeInproc(ServeWorkload):
    """Open loop: one generator thread calls ``submit_async`` on schedule.

    Every leg opens with ``lead_in_s`` of the same traffic that is sent,
    resolved and then left out of the section, so the measured part starts
    with the queue the offered rate sustains, not an empty one."""

    open_loop = True

    def warm_up(self) -> None:
        names = list(self.classes)
        futures = [self.server.submit_async(
            self.images[index % self.images.shape[0]],
            model=self.classes[names[index % len(names)]]["model"],
            priority=names[index % len(names)])
            for index in range(self.params["warmup_ops"])]
        for future in futures:
            try:
                future.result(self.common["drain_timeout_s"])
            except RequestShed:
                pass      # a burst may overrun a class bound; it still warms

    def counts_for_rtt(self, op: Op) -> bool:
        rtt_class = self.params.get("rtt_class")
        return op.outcome == SERVED and rtt_class in (None, op.cls)

    def run(self, seconds: float, leg: int) -> Section:
        lead_in = self.params["lead_in_s"]
        due, indices, classes = gen.open_loop_plan(
            self.seed, self.name, self.params, seconds, self.segments, leg)
        count = len(due)
        futures: List[Optional[object]] = [None] * count
        errors: List[Optional[str]] = [None] * count
        done_t = [0.0] * count
        depth = [0]
        kwargs = {name: self.submit_kwargs(name) for name in self.classes}
        submit = self.server.submit_async
        images = self.images

        def send(index: int) -> None:
            try:
                future = submit(images[indices[index]],
                                **kwargs[classes[index]])
            except (ValueError, RuntimeError, KeyError) as exc:
                errors[index] = repr(exc)
                return
            futures[index] = future
            future.add_done_callback(
                lambda _, index=index: done_t.__setitem__(index, clock()))
            self.sample_queue_depth(depth)

        start, started, ended = run_open_loop(due, send)
        give_up = clock() + self.common["drain_timeout_s"]
        ops: List[Op] = []
        for index in range(count):
            op = Op(ref_t=float(start + due[index]), done_t=ended[index],
                    key=int(indices[index]), cls=classes[index],
                    outcome=ERROR, images=1, send_t=started[index],
                    send_end_t=ended[index])
            future = futures[index]
            if future is None:
                op.detail = errors[index]
            else:
                try:
                    result = future.result(max(0.0, give_up - clock()))
                    op.outcome = SERVED
                    op.output = result.output
                    op.receipt = receipt_of(result.stats)
                except RequestShed as exc:
                    op.outcome = SHED
                    op.receipt = exc.receipt.as_dict()
                except Exception as exc:   # every future must resolve
                    op.detail = repr(exc)
                op.done_t = done_t[index] or clock()
            if due[index] >= lead_in:
                ops.append(op)
        return Section(ops, start + lead_in, clock(), depth_max=depth[0])


class ClosedLoopClients(ServeWorkload):
    """Closed loop over the wire: each client sends its next request when
    the previous one has answered."""

    frontend_cls: type = None

    def set_up(self) -> None:
        super().set_up()
        self.frontend = self.frontend_cls(self.server).start()
        self.clients = min(self.params["clients"], self.nproc)
        self.cls_name = next(iter(self.classes))

    def tear_down(self) -> None:
        self.frontend.shutdown()
        super().tear_down()

    def client(self) -> HttpClient:
        return HttpClient(self.frontend.host, self.frontend.port)

    def one(self, client: HttpClient, order: np.ndarray, step: int) -> Op:
        raise NotImplementedError

    def warm_up(self) -> None:
        client = self.client()
        order = np.arange(self.images.shape[0])
        for step in range(self.params["warmup_ops"]):
            op = self.one(client, order, step)
            if op.outcome != SERVED:
                raise RuntimeError(f"warm-up request failed: {op.detail}")

    def run(self, seconds: float, leg: int) -> Section:
        per_client: List[List[Op]] = [[] for _ in range(self.clients)]
        depth = [0]
        start = clock()
        stop_at = start + seconds

        def loop(index: int) -> None:
            client = self.client()
            order = gen.client_indices(self.seed, self.name, self.params,
                                       index, leg)
            step = 0
            while clock() < stop_at:
                self.sample_queue_depth(depth)
                per_client[index].append(self.one(client, order, step))
                step += 1

        threads = [threading.Thread(target=loop, args=(index,),
                                    name=f"e2e-client-{index}")
                   for index in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = [op for ops in per_client for op in ops]
        return Section(ops, start, clock(), depth_max=depth[0])


def wire_failure(exc: Exception) -> Tuple[str, object, str]:
    """``(outcome, receipt, detail)`` of a request the wire refused."""
    if isinstance(exc, HttpError) and exc.code == "shed":
        return SHED, exc.receipt, ""
    return ERROR, None, repr(exc)


class ServeHttpSingle(ClosedLoopClients):
    """``HttpClient.infer`` (JSON) against the threaded front end."""

    frontend_cls = HttpFrontend

    def one(self, client: HttpClient, order: np.ndarray, step: int) -> Op:
        key = int(order[step % len(order)])
        kwargs = self.submit_kwargs(self.cls_name)
        sent = clock()
        try:
            result = client.infer(self.images[key], model=kwargs["model"],
                                  priority=kwargs["priority"])
        except (HttpError, OSError, ValueError) as exc:
            outcome, receipt, detail = wire_failure(exc)
            return Op(ref_t=sent, done_t=clock(), key=key, cls=self.cls_name,
                      outcome=outcome, images=1, receipt=receipt,
                      detail=detail)
        return Op(ref_t=sent, done_t=clock(), key=key, cls=self.cls_name,
                  outcome=SERVED, images=1, output=result.output,
                  receipt=result.stats)


class ServeAsyncStream(ClosedLoopClients):
    """Streamed ``npy_b64`` batches against the asyncio front end; the op
    ends at the ``done`` event."""

    frontend_cls = AsyncFrontend

    def one(self, client: HttpClient, order: np.ndarray, step: int) -> Op:
        size = self.params["stream_batch"]
        key = tuple(int(order[(step * size + offset) % len(order)])
                    for offset in range(size))
        kwargs = self.submit_kwargs(self.cls_name)
        results: List[Optional[WireResult]] = [None] * size
        op = Op(ref_t=clock(), done_t=0.0, key=key, cls=self.cls_name,
                outcome=ERROR, images=size)
        shed = None
        try:
            for event, data in client.infer_batch_stream(
                    self.images[list(key)], model=kwargs["model"],
                    priority=kwargs["priority"], binary=True):
                now = clock()
                op.events += 1
                if not op.first_event_t:
                    op.first_event_t = now
                if event == "result":
                    results[data["index"]] = WireResult.from_body(data)
                elif event == "shed":
                    shed = data
                elif event == "done":
                    op.done_t = now
        except (HttpError, OSError, ValueError) as exc:
            op.outcome, op.receipt, op.detail = wire_failure(exc)
        if not op.done_t:
            op.done_t = clock()
            op.detail = op.detail or "stream ended without a done event"
        elif shed is not None:
            op.outcome, op.receipt = SHED, shed
        elif all(result is not None for result in results):
            op.outcome = SERVED
            op.output = [result.output for result in results]
            op.receipt = [result.stats for result in results]
        else:
            op.detail = "done event before every result"
        return op


WORKLOADS = {
    "offline_ideal": OfflineIdeal,
    "offline_nonideal": OfflineNonideal,
    "serve_inproc_steady": ServeInproc,
    "serve_inproc_overload": ServeInproc,
    "serve_http_single": ServeHttpSingle,
    "serve_async_stream": ServeAsyncStream,
}
