"""Mixed-signal peripheral converters: DAC, sample-and-hold, ADC.

The FORMS design point uses 1-bit DACs (a simple inverter driving the word
line — input bits arrive serially from the zero-skip shift registers), a
sample-and-hold per column, and small per-fragment ADCs (4-bit at fragment
size 8 versus ISAAC's shared 8-bit ADC; Table III).

The ADC here operates in the *digital partial-sum domain*: the analog current
has already been converted to an estimate of ``sum(code_i * bit_i)`` (see
:func:`repro.reram.device.codes_to_digital`); the ADC rounds it to one of
``2**bits`` levels with saturation.  An ADC with enough bits to cover the
worst-case fragment sum is exact — the anchor invariant of the whole
simulator; an undersized ADC clips, which is measurable as accuracy loss
(``python -m repro adc_bits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class DACSpec:
    """1-bit digital-to-analog converter (word-line driver)."""

    bits: int = 1

    def __post_init__(self):
        if self.bits != 1:
            raise ValueError("FORMS/ISAAC drive inputs bit-serially: DAC is 1-bit")

    def convert(self, bits: np.ndarray) -> np.ndarray:
        """Map logical bits to word-line activation levels (0/1)."""
        bits = np.asarray(bits)
        kind = bits.dtype.kind
        if kind in "iu":   # the engines' case: two reductions, no temporary
            valid = not bits.size or (bits.min() >= 0 and bits.max() <= 1)
        else:
            valid = kind == "b" or bool(((bits == 0) | (bits == 1)).all())
        if not valid:
            raise ValueError("DAC input must be 0/1 bits")
        return bits.astype(np.float64)


@dataclass(frozen=True)
class ADCSpec:
    """Successive-approximation ADC digitizing fragment partial sums.

    ``bits`` follows the paper's fragment-size pairing: 3-bit for fragments
    of 4, 4-bit for 8, 5-bit for 16 (Sec. IV-C).  ``frequency_hz`` enters the
    timing model (2.1 GS/s for the 4-bit SAR ADC of [73]; 1.2 GS/s for
    ISAAC's 8-bit ADC).
    """

    bits: int = 4
    frequency_hz: float = 2.1e9

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("ADC needs at least 1 bit")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def max_code(self) -> int:
        return 2 ** self.bits - 1

    def convert(self, analog: np.ndarray) -> np.ndarray:
        """Round to the nearest code, saturating at the rails."""
        return np.clip(np.rint(np.asarray(analog)), 0, self.max_code).astype(np.int64)

    def digitize(self, analog: np.ndarray) -> "Tuple[np.ndarray, int]":
        """Convert plus rail accounting in one rounding pass.

        Returns ``(digital, saturated)`` where ``saturated`` counts samples
        clipped at either rail (overflow past full scale or underflow below
        zero).  Semantically ``convert`` + both-rail counting, but the
        engines call this on every kernel batch, so the rounded tensor is
        computed once and clipped in place.
        """
        rounded = np.array(analog, dtype=np.float64)
        np.rint(rounded, out=rounded)
        in_range = (rounded >= 0) & (rounded <= self.max_code)
        saturated = rounded.size - int(np.count_nonzero(in_range))
        np.clip(rounded, 0, self.max_code, out=rounded)
        return rounded.astype(np.int64), saturated

    def saturation_fraction(self, analog: np.ndarray) -> float:
        """Fraction of samples clipped at either rail.

        Counts overflow past the full-scale code *and* underflow below zero
        — the negative rail is reachable whenever read noise or IR drop
        pushes the pedestal-corrected estimate negative.
        """
        analog = np.asarray(analog)
        if analog.size == 0:
            return 0.0
        rounded = np.rint(analog)
        return float(((rounded > self.max_code) | (rounded < 0)).mean())


def required_adc_bits(fragment_size: int, cell_bits: int) -> int:
    """Bits needed to represent the worst-case fragment partial sum exactly.

    One bit-serial cycle accumulates at most ``m * (2**cell_bits - 1)``.
    """
    if fragment_size < 1 or cell_bits < 1:
        raise ValueError("fragment_size and cell_bits must be >= 1")
    worst = fragment_size * (2 ** cell_bits - 1)
    return int(np.ceil(np.log2(worst + 1)))


def paper_adc_bits(fragment_size: int) -> int:
    """The paper's ADC sizing: 3/4/5 bits for fragments of 4/8/16 (Sec. IV-C).

    Note these are one bit *below* :func:`required_adc_bits` for 2-bit cells —
    the paper sizes for typical rather than worst-case sums; the resulting
    saturation is exactly what ``python -m repro adc_bits`` quantifies.
    """
    table = {4: 3, 8: 4, 16: 5}
    if fragment_size in table:
        return table[fragment_size]
    # Extrapolate the paper's log2 pattern outside the published points.
    return max(1, int(np.ceil(np.log2(fragment_size))) + 1)


@dataclass(frozen=True)
class SampleHold:
    """Sample-and-hold buffering a column current for ADC conversion.

    Behaviourally transparent; exists so the architecture model can attach
    area/power and so the signal path reads like Fig. 11.
    """

    def hold(self, currents: np.ndarray, copy: bool = True) -> np.ndarray:
        """Buffer a current batch.

        ``copy=False`` skips the defensive copy when the caller owns the
        array exclusively (the engines hand over freshly computed current
        tensors; copying them would be pure memory traffic).
        """
        held = np.asarray(currents, dtype=np.float64)
        return held.copy() if copy and held is currents else held
