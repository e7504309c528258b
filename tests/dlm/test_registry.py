"""The pluggable DLM registry: discovery, errors, and third-party
registration."""

import pytest

import repro.dlm  # noqa: F401 - registers the built-in families
from repro.dlm.config import DLMConfig, ExpansionPolicy
from repro.dlm.lcm import traditional_compatible
from repro.dlm.registry import (
    _unregister_dlm,
    available_dlms,
    coordinator_for,
    make_dlm_config,
    register_dlm,
)

BUILTINS = ["dlm-basic", "dlm-datatype", "dlm-lamport", "dlm-lease",
            "dlm-lustre", "dlm-token", "seqdlm"]


def test_available_dlms_lists_all_builtins_sorted():
    assert available_dlms() == BUILTINS


def test_unknown_name_error_lists_the_choices():
    with pytest.raises(ValueError) as exc:
        make_dlm_config("typo")
    msg = str(exc.value)
    assert "'typo'" in msg
    for name in BUILTINS:
        assert name in msg


def test_make_dlm_config_is_case_insensitive():
    assert make_dlm_config("SeqDLM").name == "seqdlm"


def test_coordinator_for_classic_is_none_decentralized_is_not():
    assert coordinator_for("seqdlm") is None
    for name in ("dlm-lamport", "dlm-token", "dlm-lease"):
        cls = coordinator_for(name)
        assert cls is not None, name
        assert not make_dlm_config(name).datatype_locks


def _basic_config(name, **overrides):
    params = dict(lcm=traditional_compatible,
                  expansion=ExpansionPolicy.GREEDY,
                  early_revocation=False, lock_upgrading=False,
                  lock_downgrading=False, rich_modes=False)
    params.update(overrides)
    return DLMConfig(name=name, **params)


def test_register_and_unregister_third_party():
    def my_preset(**overrides):
        return _basic_config("my-dlm", **overrides)

    try:
        register_dlm("my-dlm", my_preset)
        assert "my-dlm" in available_dlms()
        assert make_dlm_config("my-dlm").name == "my-dlm"
        # Idempotent re-registration of the same pair is a no-op...
        register_dlm("my-dlm", my_preset)
        # ...but a different factory under the same name is an error.
        with pytest.raises(ValueError, match="already registered"):
            register_dlm("my-dlm", lambda **o: _basic_config("my-dlm"))
    finally:
        _unregister_dlm("my-dlm")
    assert "my-dlm" not in available_dlms()


def test_overrides_flow_through_the_factory():
    cfg = make_dlm_config("seqdlm", early_revocation=False)
    assert cfg.early_revocation is False
    assert cfg.name == "seqdlm"
    lease = make_dlm_config("dlm-lease", backoff_base=9e-4)
    assert lease.backoff_base == 9e-4


def test_direct_dlm_config_construction_still_works():
    # The documented escape hatch for ad-hoc configs needs no registry.
    cfg = _basic_config("ad-hoc", expansion=ExpansionPolicy.NONE)
    assert cfg.name == "ad-hoc"
    assert cfg.expansion is ExpansionPolicy.NONE


def test_classic_presets_unchanged_by_registry_refactor():
    # The registry indirection must not perturb the classic presets:
    # these are the exact knobs the golden byte-identity digests bake in.
    lustre = make_dlm_config("dlm-lustre")
    assert lustre.expansion is ExpansionPolicy.LUSTRE
    assert not lustre.rich_modes
    datatype = make_dlm_config("dlm-datatype")
    assert datatype.datatype_locks
    assert datatype.expansion is ExpansionPolicy.NONE
    seq = make_dlm_config("seqdlm")
    assert seq.early_revocation and seq.rich_modes and seq.lock_upgrading
