"""Traced-run instrumentation, installed from outside the program.

Two shims, armed only for the traced leg: a timing closure over the public
``matvec_int`` of each engine object the program handed back, and (offline
workloads) a timing wrapper around the network callable the benchmark
itself passes to ``infer_tiled``.  Records stay in memory; ``SpanStore``
turns them into ``name, start, end, parent, request`` rows at exit.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


def tier_label(engine) -> str:
    """``dispatch_tier()``, with the analog tier split by its physics."""
    tier = engine.dispatch_tier()
    if tier == "analog":
        return ("analog_irdrop" if getattr(engine, "wire", None) is not None
                else "analog_variation")
    return tier


class EngineShims:
    """Times every ``matvec_int`` call of the armed engines.

    ``records`` rows are ``(layer, tier, thread id, start, end)``; list
    appends are atomic under the interpreter lock, so worker threads share
    one list without a lock of their own.
    """

    def __init__(self):
        self.records: List[Tuple[str, str, int, float, float]] = []
        self._armed: List[object] = []

    def arm(self, engines: Dict[str, object], prefix: str = "") -> None:
        for layer, engine in engines.items():
            self._arm_one(engine, prefix + layer, tier_label(engine))

    def _arm_one(self, engine, layer: str, tier: str) -> None:
        inner = engine.matvec_int
        records = self.records

        def matvec_int(x_int, pool=None):
            start = time.perf_counter()
            out = inner(x_int, pool)
            records.append((layer, tier, threading.get_ident(), start,
                            time.perf_counter()))
            return out

        engine.matvec_int = matvec_int     # instance attribute shadows the method
        self._armed.append(engine)

    def disarm(self) -> None:
        for engine in self._armed:
            del engine.matvec_int
        self._armed.clear()


class TileTimer:
    """A network callable that times each call (one call = one tile)."""

    def __init__(self, network: Callable):
        self.network = network
        self.records: List[Tuple[int, float, float]] = []

    def __call__(self, x):
        start = time.perf_counter()
        out = self.network(x)
        self.records.append((threading.get_ident(), start,
                             time.perf_counter()))
        return out


class SpanStore:
    """In-memory span rows, written out once when the benchmark ends."""

    def __init__(self):
        self.rows: List[Dict] = []

    def add(self, name: str, start: float, end: float, *,
            parent: Optional[int] = None, request: Optional[str] = None,
            **attrs) -> int:
        row = {"id": len(self.rows), "name": name, "start": start, "end": end,
               "parent": parent, "request": request}
        row.update(attrs)
        self.rows.append(row)
        return row["id"]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")
