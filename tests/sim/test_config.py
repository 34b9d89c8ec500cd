"""Unit tests for machine configuration."""

import pytest

from repro.sim.config import (CacheConfig, MachineConfig, default_config,
                              paper_scale_config, tiny_config)


def test_default_geometry():
    cfg = default_config()
    assert cfg.num_cpus == 32
    assert cfg.lines_per_page == 32
    assert cfg.l1.num_sets == 16
    assert cfg.l2.num_sets == 64


def test_paper_scale_geometry():
    cfg = paper_scale_config()
    assert cfg.page_bytes == 4096
    assert cfg.l1.size_bytes == 8 * 1024
    assert cfg.l2.size_bytes == 32 * 1024


def test_tiny_config_overrides():
    cfg = tiny_config(num_nodes=3)
    assert cfg.num_nodes == 3
    assert cfg.cpus_per_node == 2


def test_line_size_mismatch_rejected():
    with pytest.raises(ValueError):
        MachineConfig(l1=CacheConfig(1024, 64, 2))


def test_l2_smaller_than_l1_rejected():
    with pytest.raises(ValueError):
        MachineConfig(l1=CacheConfig(16384, 32, 2))


def test_page_not_multiple_of_line_rejected():
    with pytest.raises(ValueError):
        MachineConfig(page_bytes=1000)


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        MachineConfig(num_nodes=0)


def test_with_policy_limits_copies():
    cfg = default_config()
    capped = cfg.with_policy_limits(100)
    assert capped.page_cache_frames == 100
    assert cfg.page_cache_frames is None


def test_to_dict_round_trips_defaults():
    cfg = default_config()
    assert MachineConfig.from_dict(cfg.to_dict()) == cfg


def test_to_dict_round_trips_nested_overrides():
    from dataclasses import replace

    from repro.sim.latency import LatencyModel
    cfg = replace(tiny_config(page_cache_frames=12,
                              enable_migration=True,
                              directory_caches_client_frames=True),
                  latency=LatencyModel(pit_access=10, pit_hash=40))
    back = MachineConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.l1 == cfg.l1 and back.l2 == cfg.l2
    assert back.latency.pit_access == 10


def test_to_dict_survives_json():
    import json
    cfg = tiny_config()
    rehydrated = json.loads(json.dumps(cfg.to_dict()))
    assert MachineConfig.from_dict(rehydrated) == cfg


def test_config_hash_stable_and_field_sensitive():
    assert tiny_config().config_hash() == tiny_config().config_hash()
    assert (tiny_config().config_hash()
            != tiny_config(tlb_entries=16).config_hash())
    # Nested latency fields count too.
    from dataclasses import replace

    from repro.sim.latency import LatencyModel
    dram = replace(tiny_config(), latency=LatencyModel(pit_access=10))
    assert dram.config_hash() != tiny_config().config_hash()


def test_config_hash_is_pinned():
    # Existing --cache-dir entries are keyed by this digest: a change to
    # the config's fields or their serialization must not move it.
    assert tiny_config().config_hash() == (
        "0f6ef2fe7c4efc008f7b8d1d5ba0e81c649ebe717178d48456cf854c0cc4c81c")


def test_from_dict_rejects_unknown_field():
    payload = tiny_config().to_dict()
    payload["engine"] = "interp"
    with pytest.raises(ValueError, match="'engine'"):
        MachineConfig.from_dict(payload)


@pytest.mark.parametrize("name", ["l1", "l2", "latency"])
def test_from_dict_rejects_missing_nested_section(name):
    payload = tiny_config().to_dict()
    del payload[name]
    with pytest.raises(ValueError, match="'%s'" % name):
        MachineConfig.from_dict(payload)


@pytest.mark.parametrize("section", ["l1", "l2"])
def test_from_dict_names_unknown_cache_key(section):
    payload = tiny_config().to_dict()
    payload[section]["bogus"] = 1
    with pytest.raises(ValueError, match=r"^%s\.bogus: unknown" % section):
        MachineConfig.from_dict(payload)


def test_from_dict_names_missing_cache_key():
    payload = tiny_config().to_dict()
    del payload["l2"]["associativity"]
    with pytest.raises(ValueError, match=r"^l2\.associativity: missing"):
        MachineConfig.from_dict(payload)


def test_from_dict_names_unknown_latency_key():
    payload = tiny_config().to_dict()
    payload["latency"]["warp_drive"] = 3
    with pytest.raises(ValueError,
                       match=r"^latency\.warp_drive: unknown"):
        MachineConfig.from_dict(payload)


def test_from_dict_names_missing_latency_key():
    # A defaulted field is still required: silently filling it in
    # would change the simulated machine and its config hash.
    payload = tiny_config().to_dict()
    del payload["latency"]["l1_hit"]
    with pytest.raises(ValueError, match=r"^latency\.l1_hit: missing"):
        MachineConfig.from_dict(payload)


@pytest.mark.parametrize("section,value", [
    ("l1", [1024, 32, 2]), ("l2", None), ("latency", "paper")])
def test_from_dict_names_non_mapping_section(section, value):
    payload = tiny_config().to_dict()
    payload[section] = value
    with pytest.raises(ValueError, match=r"^%s: expected a mapping"
                       % section):
        MachineConfig.from_dict(payload)


def test_nested_from_dict_standalone_paths():
    from repro.sim.latency import LatencyModel
    with pytest.raises(ValueError, match=r"^cache\.size_bytes: missing"):
        CacheConfig.from_dict({"line_bytes": 32, "associativity": 2})
    with pytest.raises(ValueError, match=r"^latency: expected a mapping"):
        LatencyModel.from_dict(42)
    assert CacheConfig.from_dict(CacheConfig(256, 32, 2).to_dict()) == \
        CacheConfig(256, 32, 2)
