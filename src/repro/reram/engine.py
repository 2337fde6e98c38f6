"""Bit-serial in-situ computation engine (paper Figs. 5, 11, 12).

:class:`InSituLayerEngine` executes one layer's matrix-vector products the way
the hardware does:

1. activations arrive as unsigned integers; each cycle the DACs drive one bit
   of every input onto the word lines (LSB first);
2. each fragment's column current is sampled, pedestal-corrected and
   digitized by the fragment's ADC;
3. shift-and-add recombines cell slices (x4 for 8-bit weights on 2-bit cells)
   and input bits (x2 per cycle);
4. the accumulation block adds or subtracts the fragment result according to
   the sign-indicator bit (FORMS), applies the offset correction (ISAAC), or
   subtracts the negative-plane result (PRIME dual);
5. fragment results accumulate into the layer output.

With ideal devices and sufficiently wide ADCs the engine reproduces the
integer matmul **exactly** — the anchor correctness property of the simulator
(see ``tests/reram/test_engine.py``).  With device variation or undersized
ADCs, the deviation is the physically meaningful error the paper's Table VI
and our ADC ablation measure.  The rest of the non-ideal physics of
:mod:`repro.reram.nonideal` — stuck-at faults, IR drop with nonlinear cell
I-V, read noise — is constructor data of the same class, not a subclass.

Simulation strategy
-------------------
The hardware is bit-serial, but the simulator is not.  :meth:`matvec_int`
schedules the activation block's *nonzero structure* instead of its dense
shape: a CSR-style job list is built directly from the per-fragment OR of
the activation bits, so all-zero bit-planes, silent fragments **and** silent
positions never materialize — the simulator-side image of the zero-skip
shift registers, now at (bit-plane, fragment, position) granularity.

Which kernel runs is one ordered table, :data:`TIERS`: the rungs
``dense_noise``, ``analog`` and ``integer``, each a name, an applicability
predicate and an executor, picked by :meth:`InSituLayerEngine.
dispatch_tier`.  On an ideal die (``integer``) the pipeline telescopes into
one value-level matmul wherever a per-(fragment, position) bound proves no
conversion can clip — the paper's "typical partial sums do not saturate
the ADC" — and only the remaining pairs are expanded bit by bit, clipped
and applied as a correction.  The ``analog`` rung runs the float signal
path once per distinct (fragment, drive pattern) read of the block — a
1-bit DAC makes every read a pure function of that pair — and shift-adds
the results back; independent chunks of distinct reads can fan out
across a :class:`repro.runtime.WorkerPool`.

The dense decomposition — the whole block expanded into a ``(bits, n_frag,
m, positions)`` bit-plane tensor with (bit-plane, fragment) masking only —
survives as :meth:`matvec_int_dense` (the scheduling baseline, and the path
taken when read noise forces the full conversion grid), and the original
cycle-by-cycle loop survives as :meth:`matvec_int_reference`, the
forever-testable bit-exactness oracle.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array

from ..core.fragments import FragmentGeometry
from ..core.quantization import QuantizationSpec
from .bitslice import slice_weights
from .converters import ADCSpec, DACSpec, SampleHold, required_adc_bits
from .device import ReRAMDevice
from .mapping import MappedLayer, map_layer
from .nonideal import (CellIV, FaultModel, ReadNoise, WireModel,
                       first_order_currents)

#: per-kernel-call element budget of the fused bit-plane contraction
#: (elements of the ``(jobs, positions, cols, slices)`` current tensor).
#: Chunking along the jobs/positions axes bounds peak memory *and* keeps each
#: einsum -> pedestal -> ADC -> recombine pipeline stage cache-resident;
#: 2**18 elements (2 MiB of float64) measures fastest on the elementwise-
#: bound analog path.  Changing it never changes any result.
FUSED_KERNEL_MAX_ELEMENTS = 1 << 18


class SignIndicator:
    """1R array holding one sign bit per fragment (paper Fig. 5).

    The accumulation block consults it to run its adder in add or subtract
    mode; cost-wise it is a single resistive cell per fragment (Table III's
    0.012 mW / 3.1e-6 mm2 row).
    """

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs)
        if not np.isin(signs, (-1.0, 1.0)).all():
            raise ValueError("signs must be +1/-1")
        self.bits = (signs < 0).astype(np.int8)  # 1 encodes negative

    def apply(self, fragment_values: np.ndarray) -> np.ndarray:
        """Negate values of fragments whose sign bit is set.

        ``fragment_values`` shaped ``(n_frag, cols, ...)`` — the leading two
        axes must match the sign array.
        """
        signs = np.where(self.bits == 1, -1, 1).astype(fragment_values.dtype)
        extra = fragment_values.ndim - signs.ndim
        return fragment_values * signs.reshape(signs.shape + (1,) * extra)


@dataclass
class EngineStats:
    """Non-ideality and throughput accounting of one engine run.

    ``conversions`` / ``cycles_fed`` keep the hardware's view: every
    bit-cycle up to the highest live bit is fed and every fed cycle converts
    every fragment column (zero planes included), exactly as the original
    per-bit loop counted them.  ``jobs_scheduled`` / ``jobs_skipped`` expose
    the simulator's view at (bit-plane, fragment) granularity: how many
    kernel jobs the scheduler emitted versus masked out as all-zero.
    ``pairs_scheduled`` / ``pairs_skipped`` refine that to (bit-plane,
    fragment, position) granularity — the accounting that is exact under the
    sparse CSR scheduler, where silent positions are skipped inside an
    otherwise-live job.  ``macs`` is the metering view: every conversion
    integrates one fragment's worth of cell currents, so the commit path
    derives ``macs = conversions x fragment_size`` — the analog
    multiply-accumulates billed to tenants by ``/v1/usage``.

    Kernel paths accumulate into a per-call (or per-worker) local instance
    and :meth:`merge` it into the engine's stats once at the end; ``merge``
    takes the target's lock, so engines are safe to share across worker
    threads.
    """

    conversions: int = 0
    saturated: int = 0
    cycles_fed: int = 0
    jobs_scheduled: int = 0
    jobs_skipped: int = 0
    pairs_scheduled: int = 0
    pairs_skipped: int = 0
    macs: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    @property
    def saturation_fraction(self) -> float:
        return self.saturated / self.conversions if self.conversions else 0.0

    @property
    def skip_fraction(self) -> float:
        """Fraction of kernel jobs eliminated by bit-plane/fragment masking."""
        total = self.jobs_scheduled + self.jobs_skipped
        return self.jobs_skipped / total if total else 0.0

    @property
    def pair_skip_fraction(self) -> float:
        """Fraction of (job, position) conversion groups never evaluated."""
        total = self.pairs_scheduled + self.pairs_skipped
        return self.pairs_skipped / total if total else 0.0

    def merge(self, other: "EngineStats") -> None:
        with self._lock:
            for name in _COUNTERS:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        """The eight counters as a plain JSON-ready dict."""
        return {name: getattr(self, name) for name in _COUNTERS}

    # Stats cross the process-backend boundary by value; the lock is a
    # per-process concern and must never be pickled (spawn-safe contract).
    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


#: the counters of :class:`EngineStats`, in declaration order
_COUNTERS = ("conversions", "saturated", "cycles_fed", "jobs_scheduled",
             "jobs_skipped", "pairs_scheduled", "pairs_skipped", "macs")

_STATS_SCOPES = threading.local()


class StatsScope:
    """Collects every engine-stats commit made by the *current thread*.

    Kernel paths accumulate a per-call :class:`EngineStats` local and commit
    it once, on the calling thread, when the MVM finishes (worker-side chunk
    stats are merged into that local before the commit).  A ``StatsScope``
    entered on a thread therefore observes exactly the engine activity of
    the calls issued from that thread — across *all* engines — which is how
    the serving layer slices one shared network's stats per request: each
    request's tile runs inside its own scope on its worker thread.

    Scopes nest (every active scope on the thread observes the commit) and
    are thread-local, so concurrent tiles on different workers never see
    each other's work::

        with StatsScope() as scope:
            engine.matvec_int(x)
        scope.stats.conversions   # just this call's conversions
    """

    def __init__(self):
        self.stats = EngineStats()

    def __enter__(self) -> "StatsScope":
        stack = getattr(_STATS_SCOPES, "stack", None)
        if stack is None:
            stack = _STATS_SCOPES.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _STATS_SCOPES.stack.pop()


def _active_scopes() -> List["StatsScope"]:
    return getattr(_STATS_SCOPES, "stack", [])


def _noise_keys(digest: int, plane: int, bit, fragment) -> np.ndarray:
    """One ``(digest, plane, bit, fragment)`` identity row per kernel job.

    ``bit`` / ``fragment`` are scalars or equal-length arrays.  The first
    three columns name a :class:`~repro.reram.nonideal.ReadNoise` row
    substream, the fragment is the job's block in it.
    """
    keys = np.empty((max(np.size(bit), np.size(fragment)), 4), dtype=np.uint64)
    keys[:, 0], keys[:, 1], keys[:, 2], keys[:, 3] = digest, plane, bit, fragment
    return keys


class DieCache:
    """Memoizes programmed conductance planes across engine constructions.

    Sweeps (ADC sizing, fragment ablations, design-space exploration) build
    many engines over the *same* weight codes and the *same* device
    configuration; re-programming a fresh die for each is the dominant setup
    cost and — for deterministic (``variation_sigma == 0``) devices — pure
    waste.  The cache keys on the device identity (spec, sigma, seed) and a
    content hash of the code plane, so identical ``(codes, device-seed)``
    pairs share one programmed die.

    For noisy devices this deliberately changes semantics from "a fresh die
    per engine" to "one die reused across the sweep" — which is what
    block-wise mixed-precision sweeps need to be affordable (and what a real
    lab would do: program once, measure many).  Devices constructed without
    a seed draw irreproducible variation, so they are keyed by object
    identity instead and only share dies with themselves.

    All cache operations hold an internal lock, so one cache can back
    engine construction fanned out across ``repro.runtime`` workers
    (programming is serialized under the lock — the point of the cache is
    that it happens once per die anyway).
    """

    def __init__(self, maxsize: Optional[int] = 64):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None for unbounded)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._planes: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._planes)

    @staticmethod
    def _device_key(device: ReRAMDevice) -> Tuple:
        seed = getattr(device, "seed", None)
        if seed is None and device.variation_sigma > 0.0:
            # Key on the object itself (identity hash): the cache entry then
            # pins the device alive, so a freed address can never alias two
            # different anonymous devices.
            return ("anon", device)
        return (device.spec, device.variation_sigma, seed)

    @staticmethod
    def _codes_key(codes: np.ndarray) -> Tuple:
        codes = np.ascontiguousarray(codes)
        digest = hashlib.sha1(codes.tobytes()).hexdigest()
        return (codes.shape, str(codes.dtype), digest)

    def get_or_program(self, device: ReRAMDevice, codes: np.ndarray) -> np.ndarray:
        """Return the programmed conductances for ``codes``, caching the die.

        Cached dies of noisy *seeded* devices are programmed from an RNG
        derived deterministically from ``(device seed, codes)``, so a
        re-program after LRU eviction reproduces the identical die — the
        one-die-per-(codes, device-seed) guarantee survives any eviction
        order.  (Unseeded devices draw from their own stream; they are keyed
        by identity and irreproducible by definition.)
        """
        codes_key = self._codes_key(codes)
        key = (self._device_key(device), codes_key)
        with self._lock:
            plane = self._planes.get(key)
            if plane is not None:
                self.hits += 1
                self._planes.move_to_end(key)
                return plane
            self.misses += 1
            seed = getattr(device, "seed", None)
            if device.variation_sigma > 0.0 and seed is not None:
                digest = int(codes_key[-1][:16], 16)
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), digest]))
                plane = device.program(codes, rng=rng)
            else:
                plane = device.program(codes)
            self._planes[key] = plane
            if self.maxsize is not None and len(self._planes) > self.maxsize:
                self._planes.popitem(last=False)
            return plane

    def clear(self) -> None:
        with self._lock:
            self._planes.clear()

    # A cache never crosses the process boundary by content: workers get a
    # *fresh, empty* per-process cache (configuration only — no lock, no
    # planes, no device references).  Deterministic devices re-program
    # bit-identical dies from ``SeedSequence([seed, codes digest])``, so
    # sharing bits never required sharing state.
    def __getstate__(self):
        return {"maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(maxsize=state.get("maxsize", 64))


class _IdealConstants(NamedTuple):
    """Code-derived constants of the ``integer`` rung."""

    #: each fragment's worst per-conversion partial sum (every input bit
    #: on), ``(n_frag,)``: a fragment whose headroom fits the ADC provably
    #: never clips, so none of its pairs is bounded
    frag_headroom: np.ndarray
    #: per-fragment code planes as one float64 GEMM operand, ``(n_frag, m,
    #: cols * S)`` with the dual scheme's planes stacked along the slice
    #: axis (their signs live in the recombination weights).  Exact: every
    #: conversion sums at most ``m`` products of small non-negative ints.
    codes_f: np.ndarray
    #: effective weights — slice place values, plane signs and fragment
    #: signs folded — as one ``(padded_rows, cols)`` matrix: the telescoped
    #: operand, as float64 and int64
    stack_f: np.ndarray
    stack_i: np.ndarray
    #: every partial sum of the telescoped product and of a clip
    #: correction is an integer below 2**53, so float64 BLAS is exact
    float_exact: bool


class InSituLayerEngine:
    """Computes ``levels.T @ x`` for one mapped layer via crossbar simulation.

    Parameters
    ----------
    mapped:
        Output of :func:`repro.reram.mapping.map_layer` for any scheme.
    device:
        The ReRAM population (carries variation).  Each engine instance
        programs its own die unless a ``die_cache`` is supplied.
    adc:
        ADC spec; ``None`` sizes it exactly for the worst-case fragment sum
        (the configuration under which the engine is exact).
    activation_bits:
        Input bit width (paper: 16, with 8 also evaluated).
    die_cache:
        Optional :class:`DieCache`; identical ``(codes, device)`` pairs then
        reuse one programmed die instead of re-programming per engine.
    fault_model:
        Stuck-at faults applied to every code plane at programming time;
        the realized fraction is kept in ``fault_fraction``.
    wire, cell_iv:
        Wire parasitics and cell I-V curve of the per-fragment IR-drop
        model, given together (each fragment read is one network solve).
    read_noise:
        Additive current noise at the sample-and-hold, drawn from keyed
        substreams so it is identical on every execution path.
    """

    def __init__(self, mapped: MappedLayer, device: ReRAMDevice,
                 adc: Optional[ADCSpec] = None, activation_bits: int = 16,
                 die_cache: Optional[DieCache] = None,
                 fault_model: Optional[FaultModel] = None,
                 wire: Optional[WireModel] = None,
                 cell_iv: Optional[CellIV] = None,
                 read_noise: Optional[ReadNoise] = None):
        if activation_bits < 1:
            raise ValueError("activation_bits must be >= 1")
        if (wire is None) != (cell_iv is None):
            raise ValueError("wire and cell_iv must be supplied together")
        self.fault_fraction = 0.0
        if fault_model is not None:
            mapped, self.fault_fraction = fault_model.apply_to_layer(
                mapped, device.spec.levels)
        self.wire, self.cell_iv, self.read_noise = wire, cell_iv, read_noise
        self.mapped = mapped
        self.device = device
        self.activation_bits = activation_bits
        #: optional :class:`repro.runtime.WorkerPool` that fans independent
        #: job chunks of one MVM out (see :meth:`matvec_int`).
        self.pool = None
        spec = mapped.spec
        geometry = mapped.geometry
        if adc is None:
            adc = ADCSpec(bits=required_adc_bits(geometry.fragment_size, spec.cell_bits))
        self.adc = adc
        self.dac = DACSpec()
        self.sample_hold = SampleHold()
        self.sign_indicator = (SignIndicator(mapped.signs)
                               if mapped.signs is not None else None)
        # Program one conductance plane per code plane (a fresh die each,
        # unless the die cache already holds this (codes, device) pair).
        program = (device.program if die_cache is None
                   else lambda codes: die_cache.get_or_program(device, codes))
        self.conductance: Dict[str, np.ndarray] = {
            plane: program(codes) for plane, codes in mapped.code_planes.items()
        }
        # Per-engine constants of the signal path, hoisted out of the per-
        # cycle loop: shift-and-add place values and the pedestal-correction
        # terms of repro.reram.device.codes_to_digital.
        dev = device.spec
        self._place = slice_weights(mapped.slices, spec.cell_bits)
        self._v_g_min = dev.read_voltage * dev.g_min
        self._inv_v_g_step = 1.0 / (dev.read_voltage * dev.g_step)
        if mapped.scheme == "dual":
            self._plane_terms = (("positive", 1), ("negative", -1))
        else:
            self._plane_terms = (("main", 1),)
        # Kernel-task constants (signed place values, fragment signs),
        # hoisted out of the per-task hot path.
        self._plane_place = np.stack(
            [sign * self._place for _, sign in self._plane_terms])  # (n, s)
        self._plane_place_f = self._plane_place.ravel().astype(np.float64)
        self._frag_signs_arr = (
            np.where(self.sign_indicator.bits == 1, -1, 1).astype(np.int64)
            if self.sign_indicator is not None else None)
        # Constants of the ideal rung, built lazily on first dispatch
        # (:meth:`_ideal_constants`).
        self._ideal: Optional[_IdealConstants] = None
        self._init_lock = threading.Lock()
        #: optional online checksum guard (:class:`repro.reram.faults.
        #: DieGuard`); when set, every MVM audits the programmed die's
        #: sentinel sums before computing and raises
        #: :class:`repro.reram.faults.DieFaultDetected` on a mismatch.
        self.guard = None
        #: bumped by :meth:`swap_planes`; the process backend's ship memo
        #: keys on it, so a shipped copy of this engine is never stale.
        self._swap_epoch = 0
        #: optional :class:`repro.obs.EngineProfiler`; when set, every
        #: ``matvec_int`` dispatch reports (tier, wall seconds) — timing
        #: only, never an operand, so armed and disarmed engines compute
        #: identical bits.
        self.profile = None
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Online die maintenance (the live-recovery path of repro.reram.faults)
    # ------------------------------------------------------------------
    def swap_planes(self, code_planes: Dict[str, np.ndarray],
                    conductance: Dict[str, np.ndarray]) -> None:
        """Replace programmed planes in place — the online die swap.

        ``code_planes`` / ``conductance`` map plane names to replacement
        arrays; plane names must already exist on the engine.  Dict entries
        are *rebound, never mutated in place*: a
        :class:`DieCache`-shared conductance array may be aliased by other
        engines (and by the cache itself), so an in-place write would
        corrupt every sharer.  Callers must quiesce concurrent MVMs on this
        engine (the serving stack swaps only at dispatch boundaries, on the
        batcher thread).  The ideal rung's constants are folded from the
        codes at first dispatch, so they are dropped here and rebuilt from
        the new die.
        """
        for plane, codes in code_planes.items():
            if plane not in self.mapped.code_planes:
                raise KeyError(f"unknown code plane {plane!r}; engine has "
                               f"{sorted(self.mapped.code_planes)}")
            self.mapped.code_planes[plane] = codes
        for plane, cond in conductance.items():
            if plane not in self.conductance:
                raise KeyError(f"unknown conductance plane {plane!r}; engine "
                               f"has {sorted(self.conductance)}")
            self.conductance[plane] = cond
        self._swap_epoch += 1
        with self._init_lock:
            self._ideal = None

    # ------------------------------------------------------------------
    # Process-backend transport (spawn-safe pickling)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """What ships to a process worker: the die, not the machinery.

        Locks are never pickled (recreated fresh on arrival), an attached
        worker pool is a parent-process object and stays behind, and so
        does the checksum guard — fault detection audits the parent's
        dispatch path, and the serving layer keeps fault-injected models
        on the thread backend.  The lazily-built code-derived rung
        constants are dropped too: workers rebuild them on first dispatch
        from the shipped codes, which keeps the payload to exactly the
        state that determines the bits.
        """
        state = self.__dict__.copy()
        state["_init_lock"] = None
        state["pool"] = None
        state["guard"] = None
        state["profile"] = None
        state["_ideal"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_lock = threading.Lock()

    def _ideal_constants(self) -> _IdealConstants:
        """The ideal rung's code-derived constants — built once, cached.

        Built on first dispatch, not per construction: engines that never
        reach the ideal rung (noisy die, analog physics) must not pay for
        them — that would undo exactly the setup cost DieCache eliminates
        across sweeps.
        """
        cached = self._ideal
        if cached is not None:
            return cached
        with self._init_lock:
            if self._ideal is None:
                mapped = self.mapped
                stacked = np.concatenate(
                    [mapped.code_planes[name] for name, _ in self._plane_terms],
                    axis=-1)                       # (n_frag, m, cols, S)
                n_frag, m = stacked.shape[:2]
                eff = np.zeros(stacked.shape[:3], dtype=np.int64)
                magnitude = np.zeros_like(eff)
                for plane, sign in self._plane_terms:
                    placed = (mapped.code_planes[plane] * self._place).sum(-1)
                    eff += sign * placed
                    magnitude += placed
                # bounds |partial sum| of one effective weight over all
                # inputs, and of any clip correction (placed codes >= 0)
                worst = (int(magnitude.max(initial=0))
                         * ((1 << self.activation_bits) - 1))
                stack = (eff if self._frag_signs_arr is None
                         else eff * self._frag_signs_arr[:, None, :]
                         ).reshape(-1, mapped.geometry.cols)
                self._ideal = _IdealConstants(
                    frag_headroom=stacked.sum(axis=1).reshape(n_frag, -1)
                    .max(axis=1, initial=0),
                    codes_f=np.ascontiguousarray(
                        stacked.reshape(n_frag, m, -1).astype(np.float64)),
                    stack_f=stack.astype(np.float64), stack_i=stack,
                    float_exact=(mapped.geometry.padded_rows * worst
                                 < (1 << 53)))
            return self._ideal

    # ------------------------------------------------------------------
    # Shared signal-path pieces
    # ------------------------------------------------------------------
    def _job_currents(self, conductance: np.ndarray, drive: np.ndarray,
                      noise_keys: Optional[np.ndarray] = None) -> np.ndarray:
        """Analog bit-line currents for a batch of fragment reads.

        ``conductance``: (jobs, m, cols, slices); ``drive``: (jobs, m,
        positions) word-line levels.  Returns (jobs, positions, cols,
        slices): the ideal read, or with ``wire`` one IR-drop network solve
        per job (a fragment's m rows and its column wiring are the
        electrical extent), batched in one :func:`~repro.reram.nonideal.
        first_order_currents` call.  With ``read_noise``, ``noise_keys`` —
        one row of :func:`_noise_keys` per job — picks each job's
        row-keyed noise substream.
        """
        jobs, m, cols, slices = conductance.shape
        flat = conductance.reshape(jobs, m, cols * slices)
        read_voltage = self.device.spec.read_voltage
        if self.wire is None:
            currents = np.matmul(drive.transpose(0, 2, 1), flat)
            currents *= read_voltage
            currents = currents.reshape(jobs, -1, cols, slices)
        else:
            out = first_order_currents(flat, read_voltage * drive, self.wire,
                                       cell_iv=self.cell_iv)
            currents = out.reshape(jobs, cols, slices, -1).transpose(0, 3, 1, 2)
        if self.read_noise is not None:
            currents = self.read_noise.apply_jobs(currents, noise_keys)
        return currents

    def _convert_batch(self, held: np.ndarray, active: np.ndarray,
                       stats: EngineStats,
                       reads: Optional[np.ndarray] = None) -> np.ndarray:
        """Pedestal-correct and ADC-convert one current batch.

        ``held``: (jobs, positions, cols, slices) sampled currents;
        ``active``: (jobs, positions) count of driven rows.  Returns digital
        slice codes (jobs, positions, cols, slices).  Saturation accounting
        covers both ADC rails: overflow past the full-scale code and
        underflow below zero (reachable with read noise / IR drop).
        Accounting lands in ``stats`` (a per-call or per-worker local).
        ``held`` is consumed: the caller hands over a freshly computed
        tensor and the pedestal correction runs in place.  ``reads`` (one
        integer per job) books each job as that many identical hardware
        reads.
        """
        held -= self._v_g_min * active[:, :, None, None]
        held *= self._inv_v_g_step
        digital, saturated = self.adc.digitize(held, weights=reads)
        stats.conversions += (digital.size if reads is None else
                              int(reads.sum()) * (digital.size // reads.size))
        stats.saturated += saturated
        return digital

    def _plane_pass(self, plane: str, plane_index: int, bit: int,
                    bits_stack: np.ndarray, stats: EngineStats,
                    digest: Optional[int]) -> np.ndarray:
        """One bit-cycle through one conductance plane (reference path).

        ``bits_stack``: (n_frag, m, positions) of 0/1.
        Returns digital fragment values (n_frag, positions, cols) after ADC
        and slice recombination.  ``digest`` (the activation-block content
        hash) seeds the per-job noise substreams so the reference path draws
        the same noise as the fused kernel.
        """
        drive = self.dac.convert(bits_stack)
        keys = None
        if digest is not None:
            keys = _noise_keys(digest, plane_index, bit,
                               np.arange(bits_stack.shape[0]))
        currents = self._job_currents(self.conductance[plane], drive,
                                      noise_keys=keys)
        held = self.sample_hold.hold(currents, copy=False)
        active = bits_stack.sum(axis=1)                    # (n_frag, positions)
        return np.einsum("jpcs,s->jpc",
                         self._convert_batch(held, active, stats), self._place)

    # ------------------------------------------------------------------
    # Input preparation
    # ------------------------------------------------------------------
    def _prepare(self, x_int: np.ndarray) -> np.ndarray:
        """Validate and fragment-stack one activation block.

        Returns the padded stack ``(n_frag, m, positions)`` as int64.
        """
        x_int = np.asarray(x_int)
        if not np.issubdtype(x_int.dtype, np.integer):
            raise TypeError("engine inputs must be integer activations")
        geometry = self.mapped.geometry
        if x_int.ndim == 1:
            x_int = x_int[:, None]
        if x_int.shape[0] != geometry.rows:
            raise ValueError(f"input rows {x_int.shape[0]} != matrix rows {geometry.rows}")
        if x_int.min(initial=0) < 0 or x_int.max(initial=0) >= (1 << self.activation_bits):
            raise ValueError(f"inputs outside unsigned {self.activation_bits}-bit range")
        positions = x_int.shape[1]
        pad = geometry.padded_rows - geometry.rows
        if pad:
            x_int = np.vstack([x_int, np.zeros((pad, positions), dtype=x_int.dtype)])
        return x_int.reshape(geometry.fragments_per_column,
                             geometry.fragment_size, positions).astype(np.int64)

    def _offset_correction(self, stacked: np.ndarray, out: np.ndarray) -> np.ndarray:
        """ISAAC digital 1-count correction: the stored bias contributes
        ``offset * sum(inputs)`` to every column (paper Sec. II-B)."""
        if self.mapped.scheme == "isaac_offset":
            input_totals = stacked.sum(axis=(0, 1))
            out = out - self.mapped.offset * input_totals[None, :]
        return out

    # ------------------------------------------------------------------
    # Kernel configuration
    # ------------------------------------------------------------------
    def _signal_path_ideal(self) -> bool:
        """True when every conversion provably equals the integer dot product
        (a variation-free die, no analog physics): the float signal path
        then round-trips integers far below the ADC's rounding threshold,
        so the ``integer`` rung produces its bits."""
        return (self.device.variation_sigma == 0.0 and self.wire is None
                and self.read_noise is None)

    def _input_digest(self, stacked: np.ndarray) -> int:
        """Content hash of one activation block — the per-call component of
        the noise substream keys.  Keying noise on (input block, job)
        instead of call order makes noisy results independent of worker
        count, chunk packing and evaluation order."""
        return int.from_bytes(
            hashlib.sha1(np.ascontiguousarray(stacked).tobytes()).digest()[:8],
            "big")

    def _commit_stats(self, local: EngineStats) -> None:
        """Merge one call's stats into the engine and any active scopes.

        Called once per MVM on the calling thread — the property
        :class:`StatsScope` (and through it the serving layer's per-request
        stats slicing) relies on.  The derived ``macs`` meter is settled
        here, once per commit, from this engine's fragment size — locals
        merged across engines with different geometries therefore stay
        exact.
        """
        local.macs = local.conversions * self.mapped.geometry.fragment_size
        self.stats.merge(local)
        for scope in _active_scopes():
            scope.stats.merge(local)

    def _fan_out(self, pool, run_one, tasks: List) -> List:
        """Evaluate independent kernel tasks, optionally on a worker pool.

        Each task runs against its own local :class:`EngineStats`; the
        caller merges them at join, so no stats mutation is shared between
        workers.  Returns ``[(result, stats), ...]`` in task order.
        """

        def wrapped(task):
            local = EngineStats()
            return run_one(task, local), local

        if pool is None:
            pool = self.pool
        if pool is not None and not getattr(pool, "supports_closures", True):
            # In-layer chunk fan-out closes over the call's local arrays,
            # so it cannot ride a process pool; tile-level fan-out is the
            # process backend's unit of work and this stays inline there.
            pool = None
        if pool is not None and getattr(pool, "workers", 1) > 1 and len(tasks) > 1:
            return pool.map(wrapped, tasks)
        return [wrapped(task) for task in tasks]

    # ------------------------------------------------------------------
    # The dispatch ladder (TIERS) and its executors
    # ------------------------------------------------------------------
    def matvec_int(self, x_int: np.ndarray, pool=None) -> np.ndarray:
        """Integer MVM: returns ``(cols, positions)`` given ``(rows, positions)``.

        ``x_int`` holds unsigned ``activation_bits``-bit integers in im2col
        layout, rows already permuted to the layer's polarization policy.
        Runs the executor of the :data:`TIERS` rung that
        :meth:`dispatch_tier` picks.  Every rung is bit-exact against
        :meth:`matvec_int_reference` — the anchor property — and shares its
        stats accounting.

        ``pool`` (or the engine's ``pool`` attribute) fans independent job
        chunks across ``repro.runtime`` workers; results and stats are
        identical at any worker count.
        """
        guard = self.guard
        if guard is not None:
            guard.check(self)
        tier = self.dispatch_tier()
        run = _EXECUTORS[tier]
        profile = self.profile
        if profile is None:
            return run(self, self._prepare(x_int), pool)
        # Profiling brackets the same executor with two perf_counter reads;
        # the rung is chosen before timing starts.
        start = time.perf_counter()
        out = run(self, self._prepare(x_int), pool)
        profile.record(self, tier, time.perf_counter() - start)
        return out

    def dispatch_tier(self) -> str:
        """The first :data:`TIERS` rung whose predicate holds right now.

        The one place a rung is chosen; each rung has exactly one
        executor, whatever the block's shape.
        """
        return next(name for name, applies, _ in TIERS if applies(self))

    def matvec_int_dense(self, x_int: np.ndarray, pool=None) -> np.ndarray:
        """The dense bit-plane executor over the float signal path.

        Decomposes the whole block into a ``(bits, n_frag, m, positions)``
        bit-plane tensor and masks (bit-plane, fragment) jobs only — the
        scheduling baseline of the perf suite, and the executor of the
        ``dense_noise`` rung, where read noise makes zero-skipping lossy.
        Bit-identical to :meth:`matvec_int` on every rung (on an ideal die
        the float path is exact, as the reference loop relies on).
        """
        guard = self.guard
        if guard is not None:
            guard.check(self)
        return self._matvec_dense(self._prepare(x_int), pool)

    def _schedule(self, stacked: np.ndarray, n_bits: int):
        """CSR construction for one block with ``n_bits`` bit-planes.

        The OR over each fragment's rows is the complete nonzero structure
        — bit ``b`` of ``bits_or[f, p]`` says whether the (b, f) job has
        any live drive at position p — so no dense (bits, n_frag, m,
        positions) tensor is ever built.  Returns ``(bits_or, local)``:
        ``local`` is the call's stats with cycles, jobs and the pairs of
        the per-fragment ``live bits x live positions`` grids booked.
        """
        n_planes = len(self._plane_terms)
        bits_or = np.bitwise_or.reduce(stacked, axis=1)    # (n_frag, positions)
        frag_or = np.bitwise_or.reduce(bits_or, axis=1)    # (n_frag,)
        shifts = np.arange(n_bits, dtype=np.int64)
        job_live = ((frag_or[None, :] >> shifts[:, None]) & 1).astype(bool)
        n_jobs = int(np.count_nonzero(job_live))
        scheduled = int((job_live.sum(axis=0) * (bits_or != 0).sum(axis=1)
                         ).sum())
        local = EngineStats()
        local.cycles_fed += n_bits
        local.jobs_scheduled += n_jobs * n_planes
        local.jobs_skipped += (job_live.size - n_jobs) * n_planes
        local.pairs_scheduled += scheduled * n_planes
        local.pairs_skipped += (job_live.size * stacked.shape[-1]
                                - scheduled) * n_planes
        return bits_or, local

    def _telescoped(self, stacked: np.ndarray) -> np.ndarray:
        """``(cols, positions)`` of a block as if no conversion clipped.

        Slice recombination, bit recombination, fragment signs and plane
        signs then telescope into one matmul against the signed effective
        stack: in float64 BLAS while every partial sum is an integer below
        2**53, else as an int64 contraction.
        """
        ideal = self._ideal_constants()
        flat = stacked.reshape(-1, stacked.shape[-1])
        if ideal.float_exact:
            return np.rint(ideal.stack_f.T @ flat.astype(np.float64)
                           ).astype(np.int64)
        return ideal.stack_i.T @ flat

    def _matvec_ideal(self, stacked: np.ndarray, pool) -> np.ndarray:
        """The ``integer`` rung: one telescoped matmul plus a clip residue.

        A bit of a value is live only where the value is, so contracting
        a (fragment, position) pair's nonzero mask with the fragment's
        codes bounds every conversion the pair makes.  Pairs whose bound
        fits the ADC cannot clip and are exactly the telescoped matmul
        over the live positions.  The rest are expanded into their live
        bit-planes, clipped and counted as the ADC does, and (clipped -
        unclipped) is added as a correction.  Only fragments whose worst-
        case partial sum exceeds the ADC (``frag_headroom``) are bounded
        at all: every pair of the others fits by construction.
        """
        n_frag, m, positions = stacked.shape
        cols = self.mapped.geometry.cols
        n_planes = len(self._plane_terms)
        out = np.zeros((cols, positions), dtype=np.int64)
        n_bits = int(stacked.max(initial=0)).bit_length()
        if n_bits == 0:
            return self._offset_correction(stacked, out)
        bits_or, local = self._schedule(stacked, n_bits)
        # Hardware view: every fed cycle converts every fragment column.
        local.conversions += (n_bits * n_frag * positions * n_planes * cols
                              * self.mapped.slices)
        live_p = np.flatnonzero(bits_or.any(axis=0))
        if live_p.size == positions:
            out = self._telescoped(stacked)
        else:
            out[:, live_p] = self._telescoped(stacked[:, :, live_p])
        ideal = self._ideal_constants()
        clip_f = np.flatnonzero(ideal.frag_headroom > self.adc.max_code)
        if clip_f.size:
            tasks = self._clip_bound(stacked, live_p, n_bits, clip_f,
                                     ideal.codes_f)
            for (hp, corr), task_stats in self._fan_out(
                    pool, lambda task, st: self._clip_residue(
                        stacked, bits_or, task, st), tasks):
                # several fragments can be hot at one position
                np.add.at(out.T, hp, corr)
                local.merge(task_stats)
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    def _clip_bound(self, stacked: np.ndarray, live_p: np.ndarray,
                    n_bits: int, clip_f: np.ndarray, codes_f: np.ndarray
                    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(fragments, positions)`` tasks covering every pair of the
        fragments ``clip_f`` whose bound exceeds the ADC's full-scale code:
        one batched product of their nonzero masks against their codes.
        Bound and residue are chunked so no temporary exceeds
        :data:`FUSED_KERNEL_MAX_ELEMENTS` elements.
        """
        m = stacked.shape[1]
        width = max(m, codes_f.shape[-1])
        if clip_f.size < stacked.shape[0]:
            stacked, codes_f = stacked[clip_f], codes_f[clip_f]
        chunk = max(1, FUSED_KERNEL_MAX_ELEMENTS // (clip_f.size * width))
        hot = np.empty((clip_f.size, live_p.size), dtype=bool)
        for start in range(0, live_p.size, chunk):
            nz = (stacked[:, :, live_p[start:start + chunk]] != 0
                  ).astype(np.float64)
            bound = np.matmul(nz.transpose(0, 2, 1), codes_f).max(axis=-1)
            hot[:, start:start + chunk] = bound > self.adc.max_code
        hf, hk = np.nonzero(hot)
        hf, hp = clip_f[hf], live_p[hk]
        chunk = max(1, FUSED_KERNEL_MAX_ELEMENTS // ((n_bits + m) * width))
        return [(hf[start:start + chunk], hp[start:start + chunk])
                for start in range(0, hp.size, chunk)]

    def _clip_residue(self, stacked: np.ndarray, bits_or: np.ndarray,
                      task: Tuple[np.ndarray, np.ndarray],
                      stats: EngineStats):
        """``(positions, (H, cols) correction)`` of ``H`` hot pairs: one
        batched float64 GEMM of every pair's live bit-planes against its
        fragment's codes gives each conversion's exact integer dot product;
        only the full-scale rail can clip (bits and codes are >= 0)."""
        hf, hp = task
        cols = self.mapped.geometry.cols
        ideal = self._ideal_constants()
        live = int(np.bitwise_or.reduce(bits_or[hf, hp]))
        lb = np.flatnonzero((live >> np.arange(live.bit_length())) & 1)
        bits = (stacked[hf, :, hp][:, None, :] >> lb[None, :, None]) & 1
        dots = bits.astype(np.float64) @ ideal.codes_f[hf]   # (H, B, W)
        diff = np.minimum(dots, float(self.adc.max_code)) - dots
        stats.saturated += int(np.count_nonzero(diff))
        # The trailing GEMM axis is (cols, planes, slices) — the stacking
        # order of codes_f — and _plane_place carries the plane signs.
        diff = diff.reshape(hp.size, lb.size, cols, -1)
        bit_weight = np.int64(1) << lb
        if ideal.float_exact:
            corr = np.rint(bit_weight.astype(np.float64)     # (H, cols)
                           @ (diff @ self._plane_place_f)).astype(np.int64)
        else:
            corr = np.einsum("hbcn,n,b->hc", diff.astype(np.int64),
                             self._plane_place.ravel(), bit_weight)
        if self._frag_signs_arr is not None:
            corr *= self._frag_signs_arr[hf]
        return hp, corr

    def _matvec_analog(self, stacked: np.ndarray, pool) -> np.ndarray:
        """The ``analog`` rung: the signal path once per distinct read.

        Live (bit, fragment, position) reads are keyed by (fragment, drive
        pattern) and deduplicated; each distinct read's value is shift-
        added back over its bits and positions, and its conversions are
        booked once per hardware read.  Silent reads (all-zero pattern)
        map to code 0 exactly under deterministic physics: only counted.
        """
        n_frag, m, positions = stacked.shape
        cols = self.mapped.geometry.cols
        out = np.zeros((cols, positions), dtype=np.int64)
        n_bits = int(stacked.max(initial=0)).bit_length()
        if n_bits == 0:
            return self._offset_correction(stacked, out)
        _, local = self._schedule(stacked, n_bits)
        keys, read_p, read_b = self._read_keys(stacked, n_bits)
        distinct, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True)
        # Hardware view: every fed cycle converts every fragment column.
        per_read = len(self._plane_terms) * cols * self.mapped.slices
        local.conversions += ((n_bits * n_frag * positions - keys.size)
                              * per_read)
        # IR drop holds two (m, cols*slices) temporaries per read
        mem_factor = 2 * m + 1 if self.wire is not None else 1
        chunk = max(1, FUSED_KERNEL_MAX_ELEMENTS // (per_read * mem_factor))
        tasks = [slice(start, start + chunk)
                 for start in range(0, distinct.size, chunk)]
        done = self._fan_out(pool, lambda task, st: self._read_values(
            distinct[task], counts[task], m, st), tasks)
        for _, task_stats in done:
            local.merge(task_stats)
        values = np.concatenate([value for value, _ in done])
        # Shift-add and fragment sum: one sparse (positions, distinct
        # reads) place-value product; the reads are position-major.
        shift_add = csr_array(
            (np.int64(1) << read_b, inverse,
             np.searchsorted(read_p, np.arange(positions + 1))),
            shape=(positions, distinct.size))
        out = np.ascontiguousarray((shift_add @ values).T)
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    def _read_keys(self, stacked: np.ndarray, n_bits: int):
        """``(keys, positions, bits)`` of every live read, position-major:
        a key packs the fragment above the m-bit drive pattern.  A chunk's
        drive bits are packed into one word per read (rows zero-padded to
        a power-of-two width of at least 8), and position chunks keep every
        temporary within :data:`FUSED_KERNEL_MAX_ELEMENTS` elements."""
        n_frag, m, positions = stacked.shape
        width = 1 << max(3, (m - 1).bit_length())
        value_t = np.min_scalar_type((1 << n_bits) - 1)
        shifts = np.arange(n_bits, dtype=value_t)[:, None, None]
        frag_key = np.arange(n_frag, dtype=np.int64) << m
        per_pos = n_bits * n_frag
        chunk = max(1, FUSED_KERNEL_MAX_ELEMENTS // (per_pos * width))
        parts = []
        for start in range(0, positions, chunk):
            x = np.ascontiguousarray(stacked[:, :, start:start + chunk]
                                     .transpose(2, 0, 1), dtype=value_t)
            bits = np.zeros((x.shape[0], n_bits, n_frag, width), np.uint8)
            np.bitwise_and(x[:, None] >> shifts, 1, out=bits[..., :m],
                           casting="unsafe")
            pattern = np.packbits(bits, bitorder="little").view(
                f"<u{width // 8}")                  # (K, B, F) words
            flat = np.flatnonzero(pattern != 0)
            k, kb = flat // per_pos, flat // n_frag  # divmod is far slower
            b, f = kb - k * n_bits, flat - kb * n_frag
            parts.append((frag_key[f] | pattern[flat].astype(np.int64),
                          start + k, b))
        return tuple(np.concatenate(axis) for axis in zip(*parts))

    def _read_values(self, keys: np.ndarray, reads: np.ndarray, m: int,
                     stats: EngineStats) -> np.ndarray:
        """``(len(keys), cols)`` recombined value of each distinct read:
        one job per read and plane (the fragment's conductance, one drive
        column), booked ``reads`` (its multiplicity) times."""
        frag = keys >> m
        grid = (keys[:, None, None] >> np.arange(m)[:, None]) & 1  # (U, m, 1)
        active = np.bitwise_count(keys - (frag << m))[:, None]    # (U, 1)
        cond = [self.conductance[name][frag] for name, _ in self._plane_terms]
        drive = self.dac.convert(grid)
        n_planes = len(cond)
        if n_planes > 1:          # the planes stack along the jobs axis
            cond = [np.concatenate(cond)]
            drive, active, reads = (np.concatenate([a] * n_planes)
                                    for a in (drive, active, reads))
        held = self.sample_hold.hold(self._job_currents(cond[0], drive),
                                     copy=False)
        digital = self._convert_batch(held, active, stats, reads=reads)
        values = np.einsum("nucs,ns->uc", digital.reshape(
            n_planes, keys.size, *digital.shape[2:]), self._plane_place)
        if self._frag_signs_arr is not None:
            values *= self._frag_signs_arr[frag]
        return values

    # ------------------------------------------------------------------
    # Dense bit-plane executor (the scheduling baseline / noise path)
    # ------------------------------------------------------------------
    def _matvec_dense(self, stacked: np.ndarray, pool) -> np.ndarray:
        """The float signal path over the dense (bit-plane, fragment) grid."""
        n_frag, m, positions = stacked.shape
        cols = self.mapped.geometry.cols
        slices = self.mapped.slices
        n_planes = len(self._plane_terms)

        out = np.zeros((cols, positions), dtype=np.int64)
        n_bits = int(stacked.max(initial=0)).bit_length()
        if n_bits == 0:
            return self._offset_correction(stacked, out)

        local = EngineStats()
        # (bits, n_frag, m, positions) bit-plane tensor, LSB first.
        shifts = np.arange(n_bits, dtype=np.int64)
        planes = ((stacked[None, ...] >> shifts[:, None, None, None]) & 1
                  ).astype(np.uint8)

        # Zero-skipping as masking: keep only (bit, fragment) jobs with at
        # least one live bit.  The hardware still clocks every cycle up to
        # the top live bit, so cycle/conversion accounting stays on the
        # hardware's terms (identical to the per-bit reference loop).  With
        # read noise the mask must stay full: silent fragments still
        # convert, and the ADC rectifies their noise into a real pedestal.
        noisy = self.read_noise is not None
        if noisy:
            live = np.ones((n_bits, n_frag), dtype=bool)
        else:
            live = planes.any(axis=(2, 3))
        bits_idx, frag_idx = np.nonzero(live)
        n_jobs = bits_idx.size
        local.cycles_fed += n_bits
        local.jobs_scheduled += n_jobs * n_planes
        local.jobs_skipped += (n_bits * n_frag - n_jobs) * n_planes
        local.pairs_scheduled += n_jobs * positions * n_planes
        local.pairs_skipped += (n_bits * n_frag - n_jobs) * positions * n_planes
        local.conversions += ((n_bits * n_frag - n_jobs)
                              * positions * cols * slices * n_planes)
        digest = self._input_digest(stacked) if noisy else None

        # Per-(job, slice) shift-and-add weights: ADC place value x input-bit
        # place value x plane sign — and per-(job, col) fragment signs.
        # Digital recombination is two integer contractions per chunk, so
        # no (bits, n_frag, positions, cols) accumulator is ever
        # materialized.
        bit_weight = (np.int64(1) << bits_idx.astype(np.int64))    # (n_jobs,)
        frag_signs = self._frag_signs_arr

        per_job = max(1, positions * cols * slices * n_planes
                      * (2 * m + 1 if self.wire is not None else 1))
        chunk = max(1, FUSED_KERNEL_MAX_ELEMENTS // per_job)
        if noisy and chunk > n_frag:
            # Whole bit-plane rows per chunk: a noise row substream is then
            # constructed once per MVM and none of its draws is discarded.
            chunk -= chunk % n_frag
        chunks = [(start, min(start + chunk, n_jobs))
                  for start in range(0, n_jobs, chunk)]

        def run_chunk(bounds: Tuple[int, int], stats: EngineStats) -> np.ndarray:
            start, stop = bounds
            b = bits_idx[start:stop]
            f = frag_idx[start:stop]
            j = b.size
            bit_planes = planes[b, f]                      # (j, m, positions)
            slice_w = bit_weight[start:start + j, None] * self._place[None, :]
            col_w = frag_signs[f] if frag_signs is not None else None
            if n_planes > 1:
                # Dual scheme: positive and negative planes share one kernel
                # call, stacked along the jobs axis with opposite signs.
                slice_w = np.concatenate(
                    [sign * slice_w for _, sign in self._plane_terms])
                if col_w is not None:
                    col_w = np.concatenate([col_w] * n_planes)
            drive = self.dac.convert(bit_planes)
            active = bit_planes.sum(axis=1, dtype=np.int64)
            cond = (self.conductance[self._plane_terms[0][0]][f]
                    if n_planes == 1 else np.concatenate(
                        [self.conductance[name][f]
                         for name, _ in self._plane_terms]))
            keys = None
            if digest is not None:
                keys = np.concatenate([_noise_keys(digest, pi, b, f)
                                       for pi in range(n_planes)])
            if n_planes > 1:
                drive = np.concatenate([drive] * n_planes)
                active = np.concatenate([active] * n_planes)
            currents = self._job_currents(cond, drive, noise_keys=keys)
            held = self.sample_hold.hold(currents, copy=False)
            digital = self._convert_batch(held, active, stats)
            if col_w is None:
                return np.einsum("jpcs,js->pc", digital, slice_w)
            return np.einsum("jpc,jc->pc",
                             np.einsum("jpcs,js->jpc", digital, slice_w),
                             col_w)

        acc = np.zeros((positions, cols), dtype=np.int64)
        for partial, chunk_stats in self._fan_out(pool, run_chunk, chunks):
            acc += partial
            local.merge(chunk_stats)
        out += acc.T
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    # ------------------------------------------------------------------
    # Reference path (the original cycle-by-cycle loop)
    # ------------------------------------------------------------------
    def matvec_int_reference(self, x_int: np.ndarray) -> np.ndarray:
        """Cycle-by-cycle MVM: the original bit-serial loop, kept forever.

        Semantically identical to :meth:`matvec_int` (asserted across all
        schemes in ``tests/reram/test_engine_fused.py`` and
        ``tests/reram/test_engine_sparse.py``) but evaluates one bit-plane
        per Python iteration — the bit-exactness oracle and the baseline of
        ``benchmarks/run_perf_suite.py``.  With read noise it draws the
        same per-job substreams as the production path, so even noisy
        engines are bit-exact across paths.
        """
        stacked = self._prepare(x_int)
        positions = stacked.shape[-1]
        geometry = self.mapped.geometry
        local = EngineStats()
        digest = (self._input_digest(stacked)
                  if self.read_noise is not None else None)

        out = np.zeros((geometry.cols, positions), dtype=np.int64)
        for bit in range(self.activation_bits):
            remaining = stacked >> bit
            if not remaining.any():
                break  # zero-skipping: every shift register is empty
            bits_stack = remaining & 1
            local.cycles_fed += 1
            local.jobs_scheduled += stacked.shape[0] * len(self._plane_terms)
            local.pairs_scheduled += (stacked.shape[0] * positions
                                      * len(self._plane_terms))
            frag = np.zeros((stacked.shape[0], positions, geometry.cols),
                            dtype=np.int64)
            for plane_index, (plane, sign) in enumerate(self._plane_terms):
                frag += sign * self._plane_pass(plane, plane_index, bit,
                                                bits_stack, local, digest)
            if self.sign_indicator is not None:
                frag = self.sign_indicator.apply(np.transpose(frag, (0, 2, 1)))
                frag = np.transpose(frag, (0, 2, 1))
            out += (1 << bit) * frag.sum(axis=0).T          # (cols, positions)
        self._commit_stats(local)
        return self._offset_correction(stacked, out)

    def matvec_float(self, x_int: np.ndarray, weight_scale: float,
                     activation_scale: float) -> np.ndarray:
        """Dequantized MVM result in real units."""
        return self.matvec_int(x_int).astype(np.float64) * weight_scale * activation_scale


def build_engine(levels_matrix: np.ndarray, geometry: FragmentGeometry,
                 spec: QuantizationSpec, device: ReRAMDevice,
                 scheme: str = "forms", signs: Optional[np.ndarray] = None,
                 adc: Optional[ADCSpec] = None,
                 activation_bits: int = 16,
                 die_cache: Optional[DieCache] = None) -> InSituLayerEngine:
    """Map integer levels and construct the engine in one step."""
    if scheme == "forms" and signs is None:
        from .mapping import infer_signs
        signs = infer_signs(levels_matrix, geometry)
    mapped = map_layer(levels_matrix, geometry, spec, scheme=scheme, signs=signs)
    return InSituLayerEngine(mapped, device, adc=adc,
                             activation_bits=activation_bits,
                             die_cache=die_cache)


#: The dispatch ladder, in order: ``(tier, applies(engine), run(engine,
#: stacked, pool))``.  :meth:`InSituLayerEngine.dispatch_tier` picks the
#: first rung whose predicate holds, so each predicate may assume the rungs
#: above it did not apply.  The names label the engine profile
#: (``forms_engine_profile_seconds{tier}``) and ``benchmarks/e2e``'s
#: ``engine.mvm_us.<tier>``.
TIERS = (
    # read noise converts even silent fragments (the ADC rectifies it into
    # a pedestal): the full dense grid, with keyed noise substreams
    ("dense_noise", lambda engine: engine.read_noise is not None,
     InSituLayerEngine._matvec_dense),
    # variation or deterministic analog physics: the float signal path
    # once per distinct live (fragment, drive pattern) read, whatever the
    # block's shape (zero drive maps to code 0 exactly)
    ("analog", lambda engine: not engine._signal_path_ideal(),
     InSituLayerEngine._matvec_analog),
    # ideal path: one telescoped matmul, clip residue applied as a correction
    ("integer", lambda engine: True, InSituLayerEngine._matvec_ideal),
)
_EXECUTORS = {name: run for name, _, run in TIERS}


# ---------------------------------------------------------------------------
# Fast effective-weight path (network-scale variation studies, Table VI)
# ---------------------------------------------------------------------------

def effective_levels(mapped: MappedLayer, device: ReRAMDevice) -> np.ndarray:
    """Real-valued weight levels as realized by a noisy die.

    Equivalent to the bit-serial engine when ADC quantization is exact:
    variation multiplies each cell's level code, and shift-and-add recombines
    the noisy slices.  Note how the three schemes differ in noise coupling —
    the ISAAC offset plane carries the large bias through the same noisy
    cells (variation on the bias is *not* cancelled by the digital
    correction, which subtracts the ideal offset), while FORMS stores bare
    magnitudes.  This is the mechanism behind the robustness gap the paper
    cites ([29]).
    """
    spec = mapped.spec
    geometry = mapped.geometry
    place = slice_weights(next(iter(mapped.code_planes.values())).shape[-1], spec.cell_bits)

    def noisy_plane(codes: np.ndarray) -> np.ndarray:
        factors = device.variation_factors(codes.shape)
        return (codes * factors * place).sum(axis=-1)      # (n_frag, m, cols)

    if mapped.scheme == "forms":
        stack = noisy_plane(mapped.code_planes["main"])
        signed = stack * mapped.signs[:, None, :]
        return geometry.from_fragment_stack(signed)
    if mapped.scheme == "isaac_offset":
        stack = noisy_plane(mapped.code_planes["main"])
        pad_rows = geometry.padded_rows - geometry.rows
        corrected = stack - mapped.offset
        if pad_rows:  # padding rows were never biased
            corrected[-1, -pad_rows:, :] += mapped.offset
        return geometry.from_fragment_stack(corrected)
    # dual
    pos = noisy_plane(mapped.code_planes["positive"])
    neg = noisy_plane(mapped.code_planes["negative"])
    return geometry.from_fragment_stack(pos - neg)
