"""Bit-serial engine with physical non-idealities in the signal path.

:class:`NonidealEngine` extends the exact :class:`InSituLayerEngine` with the
device/circuit effects of :mod:`repro.reram.nonideal`, applied where the
physics puts them:

* **stuck-at faults** hit the cell codes at programming time (before the
  conductance plane is written);
* **IR drop + nonlinear cell I-V** perturb the analog column currents of
  every bit-serial cycle — evaluated per fragment with the first-order
  network model (the fragment's m rows and its column wiring are the
  sub-array's electrical extent), with every (bit-plane, fragment) job of a
  kernel batch solved in one vectorized pass;
* **read noise** adds to the sensed current at the sample-and-hold.

With every knob off the engine is bit-exact (inherits the anchor property);
each knob degrades the output in a measurable, attributable way — the
methodology behind the paper's Table VI extended to the full signal path.

The physics plugs into the parent's fused bit-plane kernel through the
single :meth:`~InSituLayerEngine._job_currents` override point, so both the
fused fast path and the cycle-by-cycle reference path
(:meth:`~InSituLayerEngine.matvec_int_reference`) run the same analog model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .converters import ADCSpec
from .device import ReRAMDevice
from .engine import DieCache, InSituLayerEngine
from .mapping import MappedLayer
from .nonideal import CellIV, FaultModel, ReadNoise, WireModel, first_order_currents


class NonidealEngine(InSituLayerEngine):
    """The in-situ engine with faults, IR drop, cell nonlinearity and noise.

    Parameters beyond :class:`InSituLayerEngine`:

    fault_model:
        Stuck-at fault injector applied to every code plane at programming
        time; the realized fault fraction is recorded in ``fault_fraction``.
    wire, cell_iv:
        Wire parasitics and cell I-V curve for the per-fragment IR-drop
        model.  Both must be given to enable the analog-network path;
        ``cell_iv`` may be linear (superposition applies *within* one
        fragment conversion — across fragments FORMS converts separately,
        which is exactly the granularity advantage).
    read_noise:
        Additive Gaussian current noise at the sample-and-hold.  Kernel
        and reference paths draw it through row-keyed substreams
        (:meth:`~repro.reram.nonideal.ReadNoise.apply_jobs`), so noisy
        results are bit-identical across execution paths and worker
        counts.
    kernel_max_elements:
        Per-engine kernel chunk budget (see
        :class:`~repro.reram.engine.InSituLayerEngine`).
    """

    def __init__(self, mapped: MappedLayer, device: ReRAMDevice,
                 adc: Optional[ADCSpec] = None, activation_bits: int = 16,
                 fault_model: Optional[FaultModel] = None,
                 wire: Optional[WireModel] = None,
                 cell_iv: Optional[CellIV] = None,
                 read_noise: Optional[ReadNoise] = None,
                 die_cache: Optional[DieCache] = None,
                 kernel_max_elements: Optional[int] = None):
        if (wire is None) != (cell_iv is None):
            raise ValueError("wire and cell_iv must be supplied together")
        self.fault_fraction = 0.0
        if fault_model is not None:
            faulty_planes = {}
            total = faulted = 0
            for plane, codes in mapped.code_planes.items():
                mask = fault_model.sample(codes.shape)
                faulty_planes[plane] = FaultModel.apply_to_codes(
                    codes, mask, device.spec.levels)
                total += mask.size
                faulted += int((mask != 0).sum())
            mapped = MappedLayer(scheme=mapped.scheme, geometry=mapped.geometry,
                                 spec=mapped.spec, code_planes=faulty_planes,
                                 signs=mapped.signs, offset=mapped.offset)
            self.fault_fraction = faulted / total if total else 0.0
        super().__init__(mapped, device, adc=adc,
                         activation_bits=activation_bits, die_cache=die_cache,
                         kernel_max_elements=kernel_max_elements)
        self.wire = wire
        self.cell_iv = cell_iv
        self.read_noise = read_noise

    # ------------------------------------------------------------------
    def _analog_model_active(self) -> bool:
        return self.wire is not None or self.read_noise is not None

    def _conversion_noise_active(self) -> bool:
        return self.read_noise is not None

    def _job_memory_factor(self, m: int) -> int:
        # first_order_currents holds two (positions, m, cols*slices)
        # temporaries per job (bit-line lift, effective cell voltage) beside
        # the current tensor; read-noise-only engines use the plain read.
        return 2 * m + 1 if self.wire is not None else 1

    def _job_currents(self, conductance: np.ndarray, drive: np.ndarray,
                      noise_keys=None) -> np.ndarray:
        """Column currents for one job batch, with the configured physics.

        ``conductance``: (jobs, m, cols, slices); ``drive``: (jobs, m,
        positions).  Returns ``(jobs, positions, cols, slices)`` like the
        parent's convention.  Each job is one fragment read (the fragment's
        m rows and its column wiring are the electrical extent), so the
        IR-drop network is solved per job — batched over the whole jobs
        axis in a single :func:`first_order_currents` call.

        ``noise_keys`` (one identity row per job, supplied by both the
        fused kernel and the reference loop) routes read noise through
        deterministic row-keyed substreams, making noisy results independent
        of job packing, evaluation order and worker count.
        """
        spec = self.device.spec
        if self.wire is None:
            currents = super()._job_currents(conductance, drive)
        else:
            jobs, m, cols, slices = conductance.shape
            flat = conductance.reshape(jobs, m, cols * slices)
            out = first_order_currents(flat, spec.read_voltage * drive,
                                       self.wire, cell_iv=self.cell_iv)
            currents = out.reshape(jobs, cols, slices, -1).transpose(0, 3, 1, 2)
        if self.read_noise is not None:
            if noise_keys is not None:
                currents = self.read_noise.apply_jobs(currents, noise_keys)
            else:
                currents = self.read_noise.apply(currents)
        return currents

    # With wire/noise off, _job_currents reduces to the parent's ideal read,
    # so the exact integer shortcut tiers remain valid (see
    # InSituLayerEngine._signal_path_ideal).
    _job_currents._ideal_when_inactive = True


def output_error(engine: InSituLayerEngine, reference: InSituLayerEngine,
                 x_int: np.ndarray) -> float:
    """Relative L1 error of ``engine`` against a reference engine's output."""
    noisy = engine.matvec_int(x_int).astype(np.float64)
    exact = reference.matvec_int(x_int).astype(np.float64)
    denom = np.abs(exact).sum()
    return float(np.abs(noisy - exact).sum() / denom) if denom else 0.0
