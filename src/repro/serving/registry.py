"""Multi-tenant model registry over one shared worker pool and die cache.

FORMS's crossbars are fixed-function: once a die is programmed it *is*
the model, so programmed weights — not compute — are the scarce serving
resource.  A realistic stack therefore multiplexes several models over
one pool of dies.  :class:`ModelRegistry` owns that pool picture in
simulation: every registered model is lowered through
:func:`repro.reram.build_insitu_network` against one shared
:class:`~repro.reram.DieCache` (identical weight codes across tenants —
replicas, A/B copies, shared backbones — program one die, not one per
tenant) and every tenant's tiles run on one shared
:class:`~repro.runtime.WorkerPool`.

The registry is deliberately ignorant of traffic: it stores lowered
networks, pins per-model request shapes, and reports die-reuse stats.
Scheduling across tenants lives in :mod:`repro.serving.scheduler`; the
:class:`~repro.serving.server.InferenceServer` composes the two.

Determinism: registration order and tenant count never touch the served
bits — engines are per model, tiles are per request, and the die cache
returns bit-identical programmed planes wherever a die is reused (for
seeded devices the plane is a pure function of ``(codes, device seed)``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..reram import DieCache
from ..runtime import WorkerPool


@dataclass
class RegisteredModel:
    """One tenant: a lowered in-situ network plus its serving envelope.

    ``image_shape`` is the per-request shape this model serves, pinned at
    registration, warm-up or first submission — whichever names it first;
    later mismatching submissions are rejected at intake.
    """

    name: str
    network: object                      # callable: Tensor -> Tensor
    engines: Dict[str, object] = field(default_factory=dict)
    image_shape: Optional[Tuple[int, ...]] = None
    warmed: bool = False


class ModelRegistry:
    """Several in-situ networks over one ``WorkerPool`` + ``DieCache``.

    Use :meth:`register` to lower a float model (the multi-tenant
    analogue of ``InferenceServer.from_model``) or
    :meth:`register_network` to adopt an already-lowered callable.  A
    borrowed ``pool`` is left open by :meth:`close`; an owned one (built
    from ``workers``) is closed with the registry.
    """

    def __init__(self, *, die_cache: Optional[DieCache] = None,
                 pool: Optional[WorkerPool] = None,
                 workers: Optional[int] = None,
                 backend: Optional[str] = None):
        self.die_cache = die_cache if die_cache is not None else DieCache()
        self._owns_pool = pool is None
        self.pool = (pool if pool is not None
                     else WorkerPool(workers, backend=backend))
        self._models: Dict[str, RegisteredModel] = {}
        self._reserved: set = set()     # names mid-registration
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, name: str, model, config, device, *,
                 scheme: str = "forms", adc=None, activation_bits: int = 16,
                 image_shape: Optional[Tuple[int, ...]] = None,
                 **engine_kwargs) -> RegisteredModel:
        """Lower ``model`` through ``build_insitu_network`` and register it.

        Always passes the registry's shared :class:`~repro.reram.DieCache`,
        so tenants whose layers carry identical weight codes (on the same
        device identity) reuse programmed dies — :meth:`stats` makes the
        dedup visible.
        """
        from ..reram.inference import build_insitu_network
        self._reserve(name)
        try:
            network, engines = build_insitu_network(
                model, config, device, scheme=scheme, adc=adc,
                activation_bits=activation_bits, die_cache=self.die_cache,
                **engine_kwargs)
        except BaseException:
            with self._lock:
                self._reserved.discard(name)
            raise
        return self._adopt(name, network, engines, image_shape)

    def register_network(self, name: str, network,
                         engines: Optional[Dict] = None,
                         image_shape: Optional[Tuple[int, ...]] = None
                         ) -> RegisteredModel:
        """Register an already-lowered callable network."""
        self._reserve(name)
        return self._adopt(name, network, engines or {}, image_shape)

    def _reserve(self, name: str) -> None:
        """Claim ``name`` without publishing it: a tenant mid-lowering is
        never visible to :meth:`get`/:meth:`names`/:meth:`stats`, so a
        live server cannot resolve (or dispatch on) a half-built entry."""
        if not name:
            raise ValueError("model needs a non-empty name")
        with self._lock:
            if name in self._models or name in self._reserved:
                raise ValueError(f"model {name!r} is already registered")
            self._reserved.add(name)

    def _adopt(self, name: str, network, engines,
               image_shape) -> RegisteredModel:
        entry = RegisteredModel(name, network=network, engines=engines,
                                image_shape=(tuple(image_shape)
                                             if image_shape else None))
        with self._lock:
            self._reserved.discard(name)
            self._models[name] = entry
        return entry

    def unregister(self, name: str) -> RegisteredModel:
        """Drop a tenant; its in-flight requests are unaffected (the
        dispatch path holds the entry it resolved at submit time)."""
        with self._lock:
            if name not in self._models:
                raise KeyError(f"model {name!r} is not registered")
            return self._models.pop(name)

    # ------------------------------------------------------------------
    def get(self, name: Optional[str] = None) -> RegisteredModel:
        """Look up a tenant; ``None`` resolves the sole registered model."""
        with self._lock:
            if name is None:
                if len(self._models) == 1:
                    return next(iter(self._models.values()))
                raise ValueError(
                    f"registry holds {len(self._models)} models "
                    f"({sorted(self._models)}); name one explicitly")
            if name not in self._models:
                raise KeyError(f"model {name!r} is not registered "
                               f"(have {sorted(self._models)})")
            return self._models[name]

    def names(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def pin_shape(self, entry: RegisteredModel,
                  shape: Tuple[int, ...]) -> None:
        """Pin (or check) a model's per-request image shape."""
        with self._lock:
            if entry.image_shape is None:
                entry.image_shape = tuple(shape)
            elif tuple(shape) != entry.image_shape:
                raise ValueError(
                    f"image shape {tuple(shape)} does not match model "
                    f"{entry.name!r}'s request shape {entry.image_shape}")

    # ------------------------------------------------------------------
    def warm_up(self, name: Optional[str] = None,
                image: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Run one serial single-image forward through a tenant.

        Pins the model's request shape and exercises the whole lowered
        path (quantization grids, kernel dispatch, programmed dies)
        before traffic arrives.  Returns the logits, or ``None`` when no
        image is given (shape must then already be pinned elsewhere).
        """
        from ..nn.tensor import Tensor
        entry = self.get(name)
        if image is None:
            entry.warmed = True
            return None
        image = np.asarray(image)
        self.pin_shape(entry, image.shape)
        out = entry.network(Tensor(image[None])).data[0]
        entry.warmed = True
        return out

    def stats(self) -> Dict:
        """Structural snapshot: tenants, engines, and die reuse.

        ``die_cache.hits`` counting engines that reused an already
        programmed die is the cross-model dedup signal: two tenants over
        identical weight codes show ``hits > 0`` and
        ``unique_dies < engines_total``.
        """
        with self._lock:
            models = {
                name: {
                    "layers": len(entry.engines),
                    "warmed": entry.warmed,
                    "image_shape": (list(entry.image_shape)
                                    if entry.image_shape else None),
                }
                for name, entry in self._models.items()
            }
            engines_total = sum(len(entry.engines)
                                for entry in self._models.values())
        return {
            "models": models,
            "engines_total": engines_total,
            "die_cache": {
                "hits": self.die_cache.hits,
                "misses": self.die_cache.misses,
                "unique_dies": len(self.die_cache),
            },
            "workers": self.pool.workers,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the owned worker pool (a borrowed pool is left open)."""
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
