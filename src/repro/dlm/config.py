"""DLM variant configuration and the Fig. 10 mode-selection rules.

A :class:`DLMConfig` fully describes one of the paper's four DLMs; the
lock server and client are generic over it.  The feature flags also give
the ablation axes evaluated in Fig. 18 (early revocation on/off) and
Fig. 19 (lock conversion on/off).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.config import DictConfigMixin, register_fn
from repro.dlm import registry as _registry
from repro.dlm.lcm import CompatibilityFn, seqdlm_compatible, traditional_compatible
from repro.dlm.types import LockMode

# The lock-compatibility matrices round-trip by name in
# DLMConfig.to_dict()/from_dict().
register_fn(seqdlm_compatible)
register_fn(traditional_compatible)

__all__ = ["ExpansionPolicy", "DLMConfig", "LivenessConfig",
           "make_dlm_config", "select_mode",
           "LUSTRE_EXPANSION_CAP", "LUSTRE_LOCK_COUNT_TRIGGER"]

#: DLM-Lustre caps expansion at 32 MB once more than 32 locks are granted
#: on a resource (§V-A).
LUSTRE_EXPANSION_CAP = 32 * 1024 * 1024
LUSTRE_LOCK_COUNT_TRIGGER = 32


class ExpansionPolicy(enum.Enum):
    """How the server expands the end of a requested lock range (§II-A)."""

    #: Greedily expand the end to the largest compatible range / EOF
    #: (SeqDLM and DLM-basic).
    GREEDY = "greedy"
    #: Greedy, but capped at 32 MB under contention (DLM-Lustre).
    LUSTRE = "lustre"
    #: Never expand (DLM-datatype).
    NONE = "none"


@dataclass(frozen=True)
class DLMConfig(DictConfigMixin):
    """Behavioural switches for one DLM variant."""

    name: str
    lcm: CompatibilityFn
    expansion: ExpansionPolicy
    #: Grant a write lock pre-tagged CANCELING when a conflicting request
    #: is already queued and expansion is impossible (§III-A2).
    early_revocation: bool
    #: Same-client conflicts are resolved by granting a merged, more
    #: restrictive lock (§III-D1).
    lock_upgrading: bool
    #: BW/PW locks downgrade at cancel time so waiters can early-grant
    #: (§III-D2).
    lock_downgrading: bool
    #: Whether the full PR/NBW/BW/PW mode set is available.  Traditional
    #: DLMs collapse every write mode to PW.
    rich_modes: bool
    #: Non-contiguous extent-list lock requests (DLM-datatype).
    datatype_locks: bool = False

    def effective_mode(self, mode: LockMode) -> LockMode:
        """Map a selected mode onto what this DLM actually supports."""
        if self.rich_modes or mode is LockMode.PR:
            return mode
        return LockMode.PW

    def with_overrides(self, **kw) -> "DLMConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class LivenessConfig(DictConfigMixin):
    """Client-liveness parameters: lock leases, heartbeats and eviction.

    A lock server with a liveness config grants *leases* to clients: a
    client that has heartbeated at least once must keep renewing within
    ``lease_duration`` or be **evicted** — its grants reclaimed, its
    waiters promoted, and its identity fenced by incarnation number so
    late RPCs from the half-dead client cannot mutate reclaimed state.
    Independently, a holder that leaves a revocation callback unacked for
    ``revoke_timeout`` is evicted too (covers clients that die before
    ever heartbeating).  All timeouts are simulated seconds; the whole
    mechanism is deterministic, so eviction schedules replay from the
    run's seed.
    """

    #: How long a heartbeat keeps the lease alive.
    lease_duration: float = 2.0e-2
    #: Client heartbeat period (keep several beats per lease so isolated
    #: heartbeat losses do not evict a live client).
    heartbeat_interval: float = 5.0e-3
    #: Eviction deadline for an unacked revocation callback.
    revoke_timeout: float = 2.5e-2
    #: Period of the server-side liveness monitor sweep.
    check_interval: float = 2.5e-3

    def __post_init__(self):
        for name in ("lease_duration", "heartbeat_interval",
                     "revoke_timeout", "check_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.heartbeat_interval >= self.lease_duration:
            raise ValueError("heartbeat_interval must be < lease_duration "
                             "or every lease expires between beats")


# The paper's four server-arbitrated DLMs, registered with the public
# registry (repro.dlm.registry).  Preset contents are unchanged from the
# pre-registry era — the golden byte-identity digests depend on that.
_CLASSIC_PRESETS = {
    "seqdlm": dict(lcm=seqdlm_compatible, expansion=ExpansionPolicy.GREEDY,
                   early_revocation=True, lock_upgrading=True,
                   lock_downgrading=True, rich_modes=True),
    "dlm-basic": dict(lcm=traditional_compatible,
                      expansion=ExpansionPolicy.GREEDY,
                      early_revocation=False, lock_upgrading=False,
                      lock_downgrading=False, rich_modes=False),
    "dlm-lustre": dict(lcm=traditional_compatible,
                       expansion=ExpansionPolicy.LUSTRE,
                       early_revocation=False, lock_upgrading=False,
                       lock_downgrading=False, rich_modes=False),
    "dlm-datatype": dict(lcm=traditional_compatible,
                         expansion=ExpansionPolicy.NONE,
                         early_revocation=False, lock_upgrading=False,
                         lock_downgrading=False, rich_modes=False,
                         datatype_locks=True),
}


def _classic_factory(key: str):
    params = _CLASSIC_PRESETS[key]

    def factory(**overrides) -> DLMConfig:
        merged = dict(params)
        merged.update(overrides)
        return DLMConfig(name=key, **merged)

    factory.__name__ = "preset_" + key.replace("-", "_")
    factory.__qualname__ = factory.__name__
    return factory


for _key in _CLASSIC_PRESETS:
    _registry.register_dlm(_key, _classic_factory(_key))
del _key


def make_dlm_config(name: str, **overrides):
    """Build any registered DLM's config by name, optionally overriding
    fields (e.g. ``make_dlm_config("seqdlm", early_revocation=False)``
    for the Fig. 18 ablation).  Delegates to
    :func:`repro.dlm.registry.make_dlm_config`; unknown names raise a
    :class:`ValueError` listing every registered algorithm."""
    return _registry.make_dlm_config(name, **overrides)


def select_mode(is_read: bool, implicit_read: bool = False,
                multi_resource: bool = False,
                forced: Optional[LockMode] = None) -> LockMode:
    """The deterministic mode-selection rules of Fig. 10.

    * read operations → PR;
    * writes with implicit reads (append, partial-page read-modify-write)
      → PW;
    * writes that must hold several resources atomically → BW;
    * all other writes → NBW.

    ``forced`` bypasses the rules (used by micro-benchmarks that compare
    modes directly, e.g. Fig. 17/18).
    """
    if forced is not None:
        return forced
    if is_read:
        return LockMode.PR
    if implicit_read:
        return LockMode.PW
    if multi_resource:
        return LockMode.BW
    return LockMode.NBW
