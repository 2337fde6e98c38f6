"""TinyADC-style column-sparsity constraint (paper ref [40]).

TinyADC (Yuan et al., DATE 2021 — the same group as FORMS) bounds the number
of *non-zero* weights in each crossbar column so the worst-case accumulated
partial sum shrinks, which directly lowers the ADC resolution the column
needs.  FORMS cites it as the peripheral-aware pruning alternative; this
module implements the constraint at FORMS' fragment granularity so the two
techniques compose:

* a fragment of ``m`` cells normally needs
  ``ceil(log2(m * (2**cell_bits - 1) + 1))`` ADC bits (worst case);
* with at most ``k < m`` non-zeros per fragment the bound drops to
  ``ceil(log2(k * (2**cell_bits - 1) + 1))``.

Since ADC area/power grow exponentially with resolution (Sec. V-B), each
saved bit roughly halves the dominant peripheral cost — the ablation
``python -m repro tinyadc`` prices this through the calibrated ADC model.

The constraint set {at most k non-zeros per fragment} has a closed-form
Euclidean projection — keep the k largest magnitudes of each fragment — so
it drops straight into the ADMM trainer as another
:class:`~repro.core.admm.Constraint`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import Constraint
from .fragments import FragmentGeometry


@dataclass(frozen=True)
class TinyADCSpec:
    """Column-sparsity bound: at most ``max_nonzeros`` weights per fragment."""

    max_nonzeros: int = 4

    def __post_init__(self):
        if self.max_nonzeros < 1:
            raise ValueError("max_nonzeros must be >= 1")


def fragment_nonzeros(weight: np.ndarray, geometry: FragmentGeometry) -> np.ndarray:
    """Non-zero count per fragment, shaped ``(fragments_per_column, cols)``."""
    stack = geometry.fragment_stack(geometry.matrix(weight))
    return (stack != 0).sum(axis=1)


def project_fragment_sparsity(weight: np.ndarray, geometry: FragmentGeometry,
                              max_nonzeros: int) -> np.ndarray:
    """Euclidean projection onto {<= k non-zeros per fragment}.

    Keeps the ``k`` largest-magnitude weights of every fragment and zeroes
    the rest — the closed-form projection onto a cardinality ball.
    """
    if max_nonzeros < 1:
        raise ValueError("max_nonzeros must be >= 1")
    stack = geometry.fragment_stack(geometry.matrix(weight))
    if max_nonzeros >= stack.shape[1]:
        return np.array(weight, copy=True)
    order = np.argsort(-np.abs(stack), axis=1, kind="stable")
    keep = np.zeros(stack.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :max_nonzeros, :], True, axis=1)
    projected = np.where(keep, stack, 0.0)
    return geometry.weight(geometry.from_fragment_stack(projected))


class TinyADCConstraint(Constraint):
    """ADMM constraint: every fragment holds at most k non-zero weights."""

    def __init__(self, geometry: FragmentGeometry, spec: TinyADCSpec):
        self.geometry = geometry
        self.spec = spec

    def project(self, weight: np.ndarray) -> np.ndarray:
        return project_fragment_sparsity(weight, self.geometry,
                                         self.spec.max_nonzeros)

    def violation(self, weight: np.ndarray) -> float:
        counts = fragment_nonzeros(weight, self.geometry)
        excess = np.maximum(counts - self.spec.max_nonzeros, 0)
        total = counts.sum()
        return float(excess.sum()) / float(total) if total else 0.0

    def describe(self) -> str:
        return (f"tinyadc(k={self.spec.max_nonzeros}, "
                f"m={self.geometry.fragment_size})")


# ---------------------------------------------------------------------------
# ADC-resolution accounting
# ---------------------------------------------------------------------------

def column_sum_bound(nonzeros: int, cell_bits: int) -> int:
    """Worst-case one-cycle partial sum of a fragment with ``nonzeros`` cells."""
    if nonzeros < 0 or cell_bits < 1:
        raise ValueError("need nonzeros >= 0 and cell_bits >= 1")
    return nonzeros * (2 ** cell_bits - 1)


def required_bits_with_tinyadc(nonzeros: int, cell_bits: int) -> int:
    """ADC bits that represent the bounded partial sum exactly."""
    bound = column_sum_bound(nonzeros, cell_bits)
    return max(1, int(np.ceil(np.log2(bound + 1))))


def adc_bits_saved(fragment_size: int, nonzeros: int, cell_bits: int) -> int:
    """ADC bits saved by the sparsity bound relative to a dense fragment."""
    if nonzeros > fragment_size:
        raise ValueError("nonzeros cannot exceed the fragment size")
    dense = required_bits_with_tinyadc(fragment_size, cell_bits)
    sparse = required_bits_with_tinyadc(nonzeros, cell_bits)
    return dense - sparse
