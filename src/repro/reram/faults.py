"""Online die-fault injection, checksum detection and live recovery.

The static fault-tolerance machinery (``repro.core.fault_tolerance``,
paper Sec. V-E) assumes the die's fault map is known at programming time.
This module supplies the *online* half for the serving stack:

* :class:`DieGuard` — an ABFT-style checksum guard attached to one
  :class:`~repro.reram.engine.InSituLayerEngine`.  At attach (and after
  every re-program) it records per-fragment **sentinel column sums** of the
  programmed code planes — the simulation image of an all-ones audit read
  driven through the crossbar, exactly what a hardware checksum row yields.
  Every MVM re-derives the audited fragments' sums from the live die and
  raises :class:`DieFaultDetected` on any mismatch, *before* a wrong answer
  can be computed.  Audit placement is **sensitivity-weighted**: fragments
  are ranked by the effective weight mass they carry
  (:func:`fragment_sensitivity`, cf. the sensitivity-aware precision work
  in PAPERS.md), a ``coverage`` fraction of the heaviest fragments is
  audited on every MVM, and a periodic full audit bounds the detection
  latency for the light tail.
* :class:`FaultInjector` — a seeded, deterministic chaos driver that flips
  a live die to a stuck-at fault map (:data:`~repro.reram.nonideal.
  FAULT_SA0` / :data:`~repro.reram.nonideal.FAULT_SA1` semantics via
  :class:`~repro.reram.nonideal.FaultModel`), delays or crashes a dispatch,
  and scripts multi-event scenarios keyed to dispatch counts
  (:class:`FaultEvent`).
* the recovery hand-off — :meth:`DieGuard.diagnose` re-reads the
  quarantined die against the healthy reference and classifies the stuck
  cells (:func:`repro.core.fault_tolerance.diagnose_stuck_codes`);
  :meth:`DieGuard.plan_remap` runs the [29]-style column-remapping /
  differential-encoding planner on the diagnosis; :meth:`DieGuard.restore`
  programs the replacement die through the shared
  :class:`~repro.reram.engine.DieCache` (a cache *hit* — the healthy codes
  are still keyed there — which is exactly why the online re-program is
  cheap) and swaps it in via
  :meth:`~repro.reram.engine.InSituLayerEngine.swap_planes`.

Because recovery restores the exact healthy code planes and conductance,
every request served after (or retried across) a recovery is bit-identical
to a fault-free serial forward — the serving stack's contract, proven in
``tests/serving/test_fault_recovery.py``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .nonideal import FaultModel

__all__ = [
    "DieFaultDetected", "DieGuard", "FaultEvent", "FaultInjector",
    "InjectedDispatchError", "fragment_sensitivity", "rank_engines_by_sensitivity",
]

#: event kinds a :class:`FaultInjector` scenario may script
EVENT_STUCK_AT = "stuck_at"
EVENT_DELAY = "delay"
EVENT_CRASH = "crash"
_EVENT_KINDS = (EVENT_STUCK_AT, EVENT_DELAY, EVENT_CRASH)


class DieFaultDetected(RuntimeError):
    """A checksum audit found the programmed die diverged from its sentinel.

    ``engine`` is the guarded engine that tripped; ``planes`` the code
    planes whose sentinel sums mismatched; ``fragments`` maps each such
    plane to the indices of its corrupted fragments.  Raised from the MVM
    entry point *before* the faulty die computes anything — detection is
    fail-stop, never a silent wrong answer.
    """

    def __init__(self, engine, planes: Sequence[str],
                 fragments: Dict[str, np.ndarray]):
        detail = ", ".join(
            f"{plane}:{np.asarray(fragments[plane]).tolist()}"
            for plane in planes)
        super().__init__(
            f"die checksum mismatch on plane(s) [{detail}] — "
            f"fragment sentinel sums diverged from the programmed reference")
        self.engine = engine
        self.planes = tuple(planes)
        self.fragments = fragments


class InjectedDispatchError(RuntimeError):
    """A scripted chaos event crashed this dispatch on purpose."""


def fragment_sensitivity(engine) -> np.ndarray:
    """Effective weight mass per fragment — the audit-placement weight.

    Recombines each fragment's code planes through the engine's
    shift-and-add place values and sums the magnitudes: fragments carrying
    the most effective weight corrupt outputs the most when stuck, so they
    are audited first (and always, at any ``coverage``).
    """
    planes = engine.mapped.code_planes
    place = engine._place.astype(np.float64)
    n_frag = next(iter(planes.values())).shape[0]
    weight = np.zeros(n_frag, dtype=np.float64)
    for codes in planes.values():
        weight += (codes.astype(np.float64) * place).sum(axis=(1, 2, 3))
    return weight


def rank_engines_by_sensitivity(engines: Dict[str, object]) -> List[str]:
    """Engine names ordered by total effective weight mass, heaviest first.

    The default targeting order of :class:`FaultInjector` (hit where it
    hurts) and a reasonable arming order when only a budgeted subset of
    layers can carry guards.
    """
    totals = {name: float(fragment_sensitivity(engine).sum())
              for name, engine in engines.items()}
    return sorted(totals, key=lambda name: (-totals[name], name))


class DieGuard:
    """Checksum guard over one engine's programmed die.

    Parameters
    ----------
    engine:
        The :class:`~repro.reram.engine.InSituLayerEngine` to guard.  The
        guard snapshots the healthy code planes (the re-read reference and
        the recovery source) and their sentinel sums at attach time.
    coverage:
        Fraction of fragments audited on *every* MVM, chosen
        sensitivity-first (1.0 = every fragment every MVM — the chaos
        harness default, making detection immediate and deterministic).
    full_audit_every:
        Every Nth check audits all fragments regardless of ``coverage``,
        bounding detection latency for fragments outside the hot set.

    The guard does not attach itself: setting ``engine.guard = guard`` is
    the caller's decision (the serving stack arms guards per model).
    """

    def __init__(self, engine, coverage: float = 1.0,
                 full_audit_every: int = 16):
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if full_audit_every < 1:
            raise ValueError("full_audit_every must be >= 1")
        self.coverage = coverage
        self.full_audit_every = full_audit_every
        self.reference: Dict[str, np.ndarray] = {
            plane: codes.copy()
            for plane, codes in engine.mapped.code_planes.items()}
        # healthy conductance is retained by reference, not copied: plane
        # arrays are rebound, never mutated (swap_planes contract), so these
        # are exactly the arrays the engine served healthy traffic from
        self._healthy_conductance: Dict[str, np.ndarray] = dict(
            engine.conductance)
        self._sentinels: Dict[str, np.ndarray] = {
            plane: codes.sum(axis=1, dtype=np.int64)
            for plane, codes in self.reference.items()}
        weight = fragment_sensitivity(engine)
        n_frag = weight.shape[0]
        n_audit = max(1, int(math.ceil(coverage * n_frag)))
        order = np.argsort(-weight, kind="stable")
        self.audit_fragments = np.sort(order[:n_audit])
        self._audits_all = n_audit >= n_frag
        self._lock = threading.Lock()
        self.checks = 0
        self.faults_detected = 0

    # ------------------------------------------------------------------
    def check(self, engine) -> None:
        """One per-MVM audit; raises :class:`DieFaultDetected` on mismatch."""
        with self._lock:
            self.checks += 1
            full = self._audits_all or (self.checks % self.full_audit_every
                                        == 0)
        frags = None if full else self.audit_fragments
        bad_planes: List[str] = []
        bad_fragments: Dict[str, np.ndarray] = {}
        for plane, sentinel in self._sentinels.items():
            codes = engine.mapped.code_planes[plane]
            if frags is None:
                observed = codes.sum(axis=1, dtype=np.int64)
                expected = sentinel
                index = np.arange(sentinel.shape[0])
            else:
                observed = codes[frags].sum(axis=1, dtype=np.int64)
                expected = sentinel[frags]
                index = frags
            mismatch = (observed != expected).any(axis=(1, 2))
            if mismatch.any():
                bad_planes.append(plane)
                bad_fragments[plane] = index[mismatch]
        if bad_planes:
            with self._lock:
                self.faults_detected += 1
            raise DieFaultDetected(engine, bad_planes, bad_fragments)

    # ------------------------------------------------------------------
    def diagnose(self, engine) -> Dict[str, np.ndarray]:
        """Re-read the suspect die: per-plane cell-granularity stuck masks."""
        from ..core.fault_tolerance import diagnose_stuck_codes
        levels = 1 << engine.mapped.spec.cell_bits
        return {plane: diagnose_stuck_codes(reference,
                                            engine.mapped.code_planes[plane],
                                            levels)
                for plane, reference in self.reference.items()}

    def plan_remap(self, engine, config=None) -> Dict[str, object]:
        """[29]-style mitigation plans for the quarantined die, per plane.

        Runs :func:`repro.core.fault_tolerance.plan_die_recovery` on every
        plane that diverged — the online re-map decision (could this die be
        rehabilitated in place, and at what residual impact?) recorded on
        the recovery receipt while the replacement is programmed.
        """
        from ..core.fault_tolerance import MitigationConfig, plan_die_recovery
        if config is None:
            config = MitigationConfig()
        levels = 1 << engine.mapped.spec.cell_bits
        plans: Dict[str, object] = {}
        for plane, reference in self.reference.items():
            observed = engine.mapped.code_planes[plane]
            if observed is reference or np.array_equal(observed, reference):
                continue
            _, plan = plan_die_recovery(reference, observed, engine._place,
                                        levels, config)
            plans[plane] = plan
        return plans

    def restore(self, engine, die_cache=None) -> Dict[str, object]:
        """Swap the healthy replacement die in; returns re-program info.

        With ``die_cache`` (the serving path), the replacement conductance
        is programmed through :meth:`DieCache.get_or_program` — the healthy
        codes are still keyed in the cache, so this is a cache *hit*
        returning the very plane the engine served healthy traffic from.
        Without a cache, the retained healthy conductance is re-bound
        directly.  Either way the restored die is bit-identical to the
        original, which is what makes retried requests provably equal to a
        fault-free forward.
        """
        hits_before = die_cache.hits if die_cache is not None else 0
        conductance: Dict[str, np.ndarray] = {}
        for plane, reference in self.reference.items():
            if die_cache is not None:
                conductance[plane] = die_cache.get_or_program(engine.device,
                                                              reference)
            else:
                conductance[plane] = self._healthy_conductance[plane]
        engine.swap_planes(dict(self.reference), conductance)
        return {
            "planes": sorted(self.reference),
            "via_die_cache": die_cache is not None,
            "cache_hits": (die_cache.hits - hits_before
                           if die_cache is not None else 0),
        }


# ---------------------------------------------------------------------------
# Scripted chaos
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One scripted chaos event, keyed to a dispatch count.

    ``at_dispatch`` triggers the event at the first dispatch boundary whose
    zero-based dispatch count reaches it (dispatch counts, not wall time,
    keep scenarios deterministic under scheduling jitter).  ``kind``:

    * ``"stuck_at"`` — flip ``model``'s die (``layer``, or the most
      sensitive engine) to a stuck-at fault map sampled at
      ``sa0_rate`` / ``sa1_rate``;
    * ``"delay"`` — sleep ``delay_s`` on the dispatch path (a slow die /
      stalled worker stand-in);
    * ``"crash"`` — raise :class:`InjectedDispatchError` from the dispatch
      (worker-failure containment: the batch fails fast and loud, the
      server keeps serving).
    """

    kind: str
    at_dispatch: int = 0
    model: Optional[str] = None
    layer: Optional[str] = None
    sa0_rate: float = 0.01
    sa1_rate: float = 0.002
    delay_s: float = 0.0

    def __post_init__(self):
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"expected one of {_EVENT_KINDS}")
        if self.at_dispatch < 0:
            raise ValueError("at_dispatch must be >= 0")
        if not 0.0 <= self.sa0_rate <= 1.0 or not 0.0 <= self.sa1_rate <= 1.0:
            raise ValueError("fault rates must lie in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "at_dispatch": self.at_dispatch,
                "model": self.model, "layer": self.layer,
                "sa0_rate": self.sa0_rate, "sa1_rate": self.sa1_rate,
                "delay_s": self.delay_s}


class FaultInjector:
    """Seeded, deterministic chaos driver for the serving stack.

    The server calls :meth:`on_dispatch` at every dispatch boundary (on the
    batcher thread — the only safe point to mutate dies, since no MVMs are
    in flight between dispatches).  Scripted :class:`FaultEvent`\\ s whose
    ``at_dispatch`` has come due are applied there, each exactly once.
    Fault maps are sampled from per-event substreams of ``seed``, so a
    scenario replays the same stuck cells on every run.

    :meth:`flip_die` is also directly callable (tests, notebooks): it
    samples a stuck-at map, realizes it on the engine's code planes,
    re-programs the die's conductance from the faulty codes and invalidates
    the engine's folded rung constants — every rung of the dispatch ladder
    then serves the faulty die, which is what makes checksum detection (and
    nothing else) the thing standing between a stuck cell and a wrong
    answer.
    """

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0):
        self.seed = seed
        self._pending: List[Tuple[int, FaultEvent]] = sorted(
            enumerate(events), key=lambda pair: (pair[1].at_dispatch, pair[0]))
        self._lock = threading.Lock()
        self.dispatch_count = 0
        #: application log, one dict per applied event (JSON-ready)
        self.injected: List[Dict] = []

    # ------------------------------------------------------------------
    def flip_die(self, engine, *, sa0_rate: float = 0.01,
                 sa1_rate: float = 0.002, plane: Optional[str] = None,
                 substream: int = 0) -> Dict:
        """Flip a live die to a sampled stuck-at fault map; returns a log
        entry with the per-plane stuck-cell counts."""
        levels = 1 << engine.mapped.spec.cell_bits
        planes = ([plane] if plane is not None
                  else sorted(engine.mapped.code_planes))
        faulty_codes: Dict[str, np.ndarray] = {}
        conductance: Dict[str, np.ndarray] = {}
        cells: Dict[str, int] = {}
        for index, name in enumerate(planes):
            codes = engine.mapped.code_planes[name]
            model = FaultModel(sa0_rate, sa1_rate,
                               seed=self.seed * 1000003 + substream * 101
                               + index)
            mask = model.sample(codes.shape)
            faulty = FaultModel.apply_to_codes(codes, mask, levels)
            faulty_codes[name] = faulty
            conductance[name] = engine.device.program(faulty)
            cells[name] = int((mask != 0).sum())
        engine.swap_planes(faulty_codes, conductance)
        return {"planes": planes, "stuck_cells": cells,
                "stuck_cells_total": int(sum(cells.values()))}

    # ------------------------------------------------------------------
    def _resolve_engine(self, server, event: FaultEvent):
        entry = server.registry.get(event.model)
        if not entry.engines:
            return entry.name, None, None
        if event.layer is not None:
            return entry.name, event.layer, entry.engines[event.layer]
        layer = rank_engines_by_sensitivity(entry.engines)[0]
        return entry.name, layer, entry.engines[layer]

    def on_dispatch(self, server) -> None:
        """Apply every scripted event that has come due (exactly once).

        Runs on the batcher thread at a dispatch boundary.  A ``"crash"``
        event raises after any earlier due events applied — the dispatch
        dies, the batch's futures fail with
        :class:`InjectedDispatchError`, and the server keeps serving.
        """
        with self._lock:
            count = self.dispatch_count
            self.dispatch_count += 1
            due = [pair for pair in self._pending
                   if pair[1].at_dispatch <= count]
            for pair in due:
                self._pending.remove(pair)
        crash: Optional[FaultEvent] = None
        for index, event in due:
            entry = dict(event.as_dict(), dispatch=count)
            if event.kind == EVENT_STUCK_AT:
                name, layer, engine = self._resolve_engine(server, event)
                entry["model"] = name
                entry["layer"] = layer
                if engine is None:
                    entry["skipped"] = "model has no in-situ engines"
                else:
                    entry.update(self.flip_die(engine,
                                               sa0_rate=event.sa0_rate,
                                               sa1_rate=event.sa1_rate,
                                               substream=index))
            elif event.kind == EVENT_DELAY:
                time.sleep(event.delay_s)
            else:
                crash = event
            with self._lock:
                self.injected.append(entry)
        if crash is not None:
            raise InjectedDispatchError(
                f"chaos event crashed dispatch {count} on purpose "
                f"(scripted at_dispatch={crash.at_dispatch})")

    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[FaultEvent]:
        """Events not yet applied (scenario progress gauge)."""
        with self._lock:
            return [event for _, event in self._pending]

    def log(self) -> List[Dict]:
        """JSON-ready copy of everything applied so far."""
        with self._lock:
            return [dict(entry) for entry in self.injected]
