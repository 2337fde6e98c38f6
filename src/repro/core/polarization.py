"""Fragment polarization: signs, projection and feasibility.

The polarization constraint set (paper Sec. III-D2) is

    P_i = { W | the weights in each fragment have the same sign }.

The Euclidean projection onto P_i, given a target sign per fragment, zeroes
every weight whose sign disagrees (zero entries are compatible with either
sign).  The fragment sign itself is chosen by the paper's sum rule (Eq. 2):
positive when the fragment sums to >= 0.  We also provide the L2-optimal rule
— pick the sign whose matching weights carry more energy, which yields the
true nearest point in P_i — as an ablation (``python -m repro sign_rule``).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .fragments import FragmentGeometry

SignRule = Literal["sum", "l2"]


def fragment_signs(stack: np.ndarray, rule: SignRule = "sum") -> np.ndarray:
    """Sign (+1/-1) per fragment of a ``(n_frag, m, cols)`` stack.

    ``sum`` implements paper Eq. 2: ``+`` iff the fragment's weights sum to a
    non-negative value.  ``l2`` picks the sign whose agreeing weights have the
    larger sum of squares (the projection-distance-minimizing choice).
    """
    if stack.ndim != 3:
        raise ValueError("expected a fragment stack of shape (n_frag, m, cols)")
    if rule == "sum":
        totals = stack.sum(axis=1)
        return np.where(totals >= 0.0, 1.0, -1.0)
    if rule == "l2":
        pos_energy = np.where(stack > 0, stack, 0.0).__pow__(2).sum(axis=1)
        neg_energy = np.where(stack < 0, stack, 0.0).__pow__(2).sum(axis=1)
        return np.where(pos_energy >= neg_energy, 1.0, -1.0)
    raise ValueError(f"unknown sign rule {rule!r}")


def project_stack(stack: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Project a fragment stack onto the polarization set for given signs.

    Weights whose sign disagrees with their fragment's sign become zero;
    agreeing weights are unchanged.  This is the exact Euclidean projection
    for fixed signs.
    """
    if signs.shape != (stack.shape[0], stack.shape[2]):
        raise ValueError(f"signs shape {signs.shape} != (n_frag, cols) = "
                         f"({stack.shape[0]}, {stack.shape[2]})")
    agree = stack * signs[:, None, :] >= 0.0
    return np.where(agree, stack, 0.0)


def project_polarization(weight: np.ndarray, geometry: FragmentGeometry,
                         signs: np.ndarray) -> np.ndarray:
    """Project a full weight tensor onto the polarization set."""
    stack = geometry.fragment_stack(geometry.matrix(weight))
    projected = project_stack(stack, signs)
    return geometry.weight(geometry.from_fragment_stack(projected))


def compute_signs(weight: np.ndarray, geometry: FragmentGeometry,
                  rule: SignRule = "sum") -> np.ndarray:
    """Fragment signs ``(n_frag, cols)`` of a weight tensor."""
    return fragment_signs(geometry.fragment_stack(geometry.matrix(weight)), rule)


def polarization_violation(weight: np.ndarray, geometry: FragmentGeometry) -> float:
    """Fraction of nonzero weights that break same-sign-per-fragment.

    Signs are inferred from the weights themselves (sum rule), so a feasible
    tensor returns exactly 0.0 regardless of which rule produced it.
    """
    stack = geometry.fragment_stack(geometry.matrix(weight))
    signs = fragment_signs(stack, "sum")
    disagree = (stack * signs[:, None, :]) < 0.0
    nonzero = stack != 0.0
    total = nonzero.sum()
    if total == 0:
        return 0.0
    return float((disagree & nonzero).sum() / total)


def is_polarized(weight: np.ndarray, geometry: FragmentGeometry) -> bool:
    """True when every fragment holds weights of a single sign."""
    return polarization_violation(weight, geometry) == 0.0


def sign_flip_fraction(old_signs: np.ndarray, new_signs: np.ndarray) -> float:
    """Fraction of fragments whose target sign changed between refreshes.

    The paper re-estimates fragment signs every M epochs (Sec. III-B); this
    metric tracks how quickly the targets settle.
    """
    if old_signs.shape != new_signs.shape:
        raise ValueError("sign arrays must have the same shape")
    return float((old_signs != new_signs).mean())
