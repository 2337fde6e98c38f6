"""Seeded workload generation: image pools, arrival schedules, class draws.

``--seed`` reaches the benchmark only through :func:`stream`; the program
under test receives nothing but the arrays and schedules generated here.
The model weights hang off ``model_seed`` in ``workloads.json`` instead, so
a different ``--seed`` changes the inputs and never the amount of work a
forward pass is.
"""

from __future__ import annotations

import json
import pathlib
import zlib
from typing import Dict, List, Tuple

import numpy as np

from measure import poisson_schedule
from models import IMAGE_SHAPE

HERE = pathlib.Path(__file__).resolve().parent


def load_config() -> Dict:
    with open(HERE / "workloads.json") as handle:
        return json.load(handle)


def stream(seed: int, workload: str, purpose: str) -> np.random.Generator:
    """One independent generator per (seed, workload, purpose)."""
    return np.random.default_rng(
        [seed, zlib.crc32(workload.encode()), zlib.crc32(purpose.encode())])


def sparse_images(rng: np.random.Generator, count: int) -> np.ndarray:
    """Post-ReLU-shaped inputs: about 80 % exact zeros."""
    return np.maximum(0.0, rng.normal(size=(count,) + IMAGE_SHAPE) - 0.8)


def dense_images(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.abs(rng.normal(size=(count,) + IMAGE_SHAPE))


def mixed_pool(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` images, the first half sparse and the second half dense."""
    half = count // 2
    return np.concatenate([sparse_images(rng, half),
                           dense_images(rng, count - half)])


def offline_batches(seed: int, workload: str, params: Dict) -> List[np.ndarray]:
    """The distinct batches ``offline_ideal`` cycles through.  Every batch
    holds the same mix (sparse half, then dense half, split on a tile
    boundary) so successive ops cost the same and the latency distribution
    has one mode."""
    rng = stream(seed, workload, "images")
    return [mixed_pool(rng, params["batch"])
            for _ in range(params["distinct_batches"])]


def nonideal_rounds(seed: int, workload: str,
                    params: Dict) -> List[Dict[str, np.ndarray]]:
    """The distinct rounds ``offline_nonideal`` cycles through: per round,
    a fixed number of images for each engine configuration."""
    rng = stream(seed, workload, "images")
    return [{config: sparse_images(rng, params[config]["images"])
             for config in ("irdrop", "variation", "read_noise")}
            for _ in range(params["distinct_rounds"])]


def class_draws(rng: np.random.Generator, count: int,
                shares: Dict[str, float]) -> List[str]:
    """Exactly ``share * count`` requests of each class, in seeded order —
    the mix is the same at every seed, the interleaving is not."""
    names = list(shares)
    sizes = [int(round(shares[name] * count)) for name in names]
    sizes[-1] = count - sum(sizes[:-1])
    labels = np.repeat(np.arange(len(names)), sizes)
    rng.shuffle(labels)
    return [names[index] for index in labels]


def open_loop_plan(seed: int, workload: str, params: Dict, seconds: float,
                   segments: int, leg: int
                   ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """``(due offsets, pool indices, class names)`` of one open-loop leg:
    ``lead_in_s`` of unmeasured traffic, then ``segments`` windows of equal
    length that each hold the same number of arrivals and the same class
    mix."""
    rng = stream(seed, workload, f"schedule-{leg}")
    rate, lead_in = params["rate_rps"], params["lead_in_s"]
    shares = {name: cls["share"] for name, cls in params["policy"].items()}
    window = seconds / segments
    windows = [(0.0, lead_in)] + [(lead_in + index * window, window)
                                  for index in range(segments)]
    due, classes = [], []
    for begin, length in windows:
        count = max(1, int(round(rate * length)))
        due.append(poisson_schedule(rng, count, begin, length))
        classes += class_draws(rng, count, shares)
    due = np.concatenate(due)
    indices = rng.integers(0, params["pool_images"], size=len(due))
    return due, indices, classes


def client_indices(seed: int, workload: str, params: Dict, client: int,
                   leg: int) -> np.ndarray:
    """The pool positions one closed-loop client walks, cyclically."""
    rng = stream(seed, workload, f"client-{client}-{leg}")
    return rng.permutation(params["pool_images"])
