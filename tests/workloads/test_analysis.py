"""Tests for the workload profiler — and via it, assertions about each
kernel's memory-system character."""

import pytest

from repro.sim.config import tiny_config
from repro.sim.machine import Machine
from repro.workloads import ALL_APPLICATIONS, make_workload
from repro.workloads.analysis import profile_workload
from repro.workloads.synthetic import SyntheticWorkload

NUM_CPUS = 8


def profile(app, **kw):
    return profile_workload(make_workload(app, "tiny"),
                            num_cpus=NUM_CPUS, **kw)


def test_counts_are_consistent():
    p = profile("fft")
    assert p.reads + p.writes == p.references
    assert p.shared_refs + p.private_refs == p.references
    assert p.min_cpu_refs <= p.max_cpu_refs


def test_fft_is_shared_heavy_and_balanced():
    p = profile("fft")
    assert p.shared_fraction > 0.4
    assert p.imbalance < 1.5
    assert p.barriers == 6  # the six steps


def test_radix_writes_shared_pages_from_many_cpus():
    p = profile("radix")
    # The scatter makes destination pages written by many CPUs.
    assert p.write_shared_pages > 0
    assert p.avg_sharing_degree > 2.0


def test_lu_is_all_shared():
    p = profile("lu")
    assert p.private_refs == 0
    assert p.shared_fraction == 1.0


def test_water_uses_locks_ocean_does_not():
    assert profile("water-nsq").lock_acquires > 0
    assert profile("barnes").lock_acquires > 0
    assert profile("ocean").lock_acquires == 0


def test_ocean_neighbour_sharing_is_narrow():
    p = profile("ocean")
    # Stencil halos: most grid pages touched by only 1-2 CPUs.
    narrow = sum(count for degree, count in p.sharing_histogram.items()
                 if degree <= 2)
    assert narrow > sum(p.sharing_histogram.values()) / 2


def test_synthetic_block_is_unshared():
    wl = SyntheticWorkload("block", shared_kb=32,
                           refs_per_cpu_per_iter=100, iterations=1)
    p = profile_workload(wl, num_cpus=NUM_CPUS)
    assert p.avg_sharing_degree == 1.0
    assert p.write_shared_pages == 0


def test_synthetic_migratory_is_fully_shared():
    wl = SyntheticWorkload("migratory", shared_kb=32,
                           refs_per_cpu_per_iter=100, iterations=NUM_CPUS)
    p = profile_workload(wl, num_cpus=NUM_CPUS)
    assert p.avg_sharing_degree == pytest.approx(NUM_CPUS)
    assert p.write_shared_pages == p.shared_pages


def test_summary_keys():
    summary = profile("mp3d").summary()
    for key in ("references", "shared_fraction", "avg_sharing_degree",
                "imbalance", "barriers"):
        assert key in summary


@pytest.mark.parametrize("app", ALL_APPLICATIONS)
def test_reference_counts_match_the_simulation(app):
    # Every reference-carrying op counts, reference blocks included:
    # the static profile sees exactly the references the machine runs.
    config = tiny_config()
    stats = Machine(config).run(make_workload(app, "tiny")).stats
    p = profile_workload(make_workload(app, "tiny"),
                         num_cpus=config.num_nodes * config.cpus_per_node,
                         page_bytes=config.page_bytes,
                         num_nodes=config.num_nodes)
    assert (p.references, p.reads, p.writes) == (
        stats.references, sum(c.reads for c in stats.cpus),
        sum(c.writes for c in stats.cpus))
