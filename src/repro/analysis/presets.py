"""Experiment scale presets.

Every experiment driver takes an :class:`ExperimentScale`; ``FAST`` is the
scale of the tests and of the ``scripts/checks.sh`` experiment step
(seconds for the analytic studies, minutes for the training-based tables),
while ``STANDARD``/``FULL`` trade time for tighter accuracy estimates.  The
paper's GPU-week training runs are out of scope offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..core.admm import ADMMConfig
from ..core.compression import CrossbarShape


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling experiment cost."""

    name: str
    train_size: int = 256
    test_size: int = 128
    baseline_epochs: int = 4
    batch_size: int = 32
    width_mult: float = 0.25
    depth_scale: float = 0.5
    admm_iterations: int = 2
    admm_epochs: int = 1
    retrain_epochs: int = 1
    sample_images: int = 4
    variation_runs: int = 8
    crossbar: CrossbarShape = field(default_factory=lambda: CrossbarShape(64, 64))

    def admm(self) -> ADMMConfig:
        return ADMMConfig(iterations=self.admm_iterations,
                          epochs_per_iteration=self.admm_epochs,
                          retrain_epochs=self.retrain_epochs,
                          batch_size=self.batch_size)

    def scaled(self, **overrides) -> "ExperimentScale":
        return replace(self, **overrides)


FAST = ExperimentScale(
    name="fast",
    train_size=288, test_size=128, baseline_epochs=5,
    width_mult=0.3, depth_scale=0.4,
    admm_iterations=2, admm_epochs=1, retrain_epochs=3,
    sample_images=2, variation_runs=4,
    crossbar=CrossbarShape(32, 32),
)

STANDARD = ExperimentScale(
    name="standard",
    train_size=384, test_size=192, baseline_epochs=6,
    width_mult=0.25, depth_scale=0.5,
    admm_iterations=2, admm_epochs=2, retrain_epochs=4,
    sample_images=4, variation_runs=10,
    crossbar=CrossbarShape(64, 64),
)

FULL = ExperimentScale(
    name="full",
    train_size=1024, test_size=512, baseline_epochs=12,
    width_mult=0.5, depth_scale=1.0,
    admm_iterations=3, admm_epochs=3, retrain_epochs=3,
    sample_images=8, variation_runs=50,
    crossbar=CrossbarShape(128, 128),
)

SCALES: Dict[str, ExperimentScale] = {s.name: s for s in (FAST, STANDARD, FULL)}


#: (model, dataset) pairs evaluated per paper table/figure.
TABLE1_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("lenet5", "mnist"),
    ("vgg16", "cifar10"),
    ("resnet18", "cifar10"),
)

TABLE2_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("resnet18", "cifar100"),
    ("resnet50", "cifar100"),
    ("vgg16", "cifar100"),
    ("resnet18", "imagenet"),
    ("resnet50", "imagenet"),
)

FIG13_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("vgg16", "cifar10"),
    ("resnet18", "cifar10"),
)

FIG14_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("vgg16", "cifar100"),
    ("resnet18", "cifar100"),
    ("resnet50", "cifar100"),
    ("resnet18", "imagenet"),
    ("resnet50", "imagenet"),
)
