"""Public registry of DLM algorithms.

Every lock-management algorithm the simulator can run — the paper's four
server-arbitrated DLMs *and* the decentralized mutual-exclusion family
(``repro.dlm.mutex``) — registers here under its CLI name.  The registry
is the single source of truth for:

* :func:`make_dlm_config` — preset construction;
* :func:`available_dlms` — the name list the CLI ``--dlm`` choices and
  the harness DLM matrices are derived from;
* :func:`coordinator_for` — the client-side coordinator class for
  decentralized algorithms (``None`` for server-arbitrated ones, whose
  grant path runs through :class:`~repro.dlm.server.LockServer`).

Third-party algorithms plug in the same way the built-ins do::

    from repro.dlm.registry import register_dlm

    register_dlm("my-dlm", lambda **ov: MyConfig(**ov),
                 coordinator_cls=MyCoordinator)

after which ``ClusterConfig(dlm="my-dlm")``, ``repro chaos --dlm`` and
the ``ext_mutex_compare`` experiment all pick it up.  See
docs/algorithms.md for the full contract a coordinator must satisfy.

This module is import-light on purpose (no intra-package imports): the
preset modules import *it*, never the other way round, so registration
order is simply module-import order.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

__all__ = ["available_dlms", "coordinator_for", "make_dlm_config",
           "register_dlm"]


class _Entry(NamedTuple):
    factory: Callable[..., object]
    coordinator_cls: Optional[type]


_REGISTRY: dict = {}


def register_dlm(name: str, preset_factory: Callable[..., object],
                 coordinator_cls: Optional[type] = None) -> None:
    """Register a DLM algorithm under ``name`` (case-insensitive).

    ``preset_factory(**overrides)`` must return the algorithm's config
    object (a :class:`~repro.dlm.config.DLMConfig` for server-arbitrated
    variants, or any config exposing the decentralized surface — see
    docs/algorithms.md).  ``coordinator_cls`` names the client-side
    coordinator class for decentralized algorithms; leave it ``None``
    for algorithms served by :class:`~repro.dlm.server.LockServer`.

    Re-registering the *same* factory/class pair is a no-op (so module
    re-imports are harmless); registering a different implementation
    under an existing name raises :class:`ValueError`.
    """
    key = name.lower()
    entry = _Entry(preset_factory, coordinator_cls)
    existing = _REGISTRY.get(key)
    if existing is not None and existing != entry:
        raise ValueError(
            f"DLM {name!r} is already registered with a different "
            f"factory/coordinator; pick a new name")
    _REGISTRY[key] = entry


def available_dlms() -> List[str]:
    """Sorted names of every registered DLM algorithm."""
    return sorted(_REGISTRY)


def make_dlm_config(name: str, **overrides):
    """Build the named algorithm's config from its registered preset,
    applying field ``overrides`` (e.g. ``early_revocation=False`` for
    the Fig. 18 ablation)."""
    key = name.lower()
    entry = _REGISTRY.get(key)
    if entry is None:
        raise ValueError(
            f"unknown DLM {name!r}; choose from {available_dlms()}")
    return entry.factory(**overrides)


def coordinator_for(name: str) -> Optional[type]:
    """The decentralized coordinator class registered for ``name``, or
    ``None`` when the algorithm is served by a lock server (or the name
    is unknown)."""
    entry = _REGISTRY.get(name.lower())
    return entry.coordinator_cls if entry is not None else None


def _unregister_dlm(name: str) -> None:
    """Test hook: drop a registration (keeps test-registered algorithms
    from leaking into other tests' ``available_dlms()`` views)."""
    _REGISTRY.pop(name.lower(), None)
