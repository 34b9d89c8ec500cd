#!/usr/bin/env python
"""Lazy home migration demo (section 3.5).

A producer-consumer phase shift: node 0's CPUs hammer pages homed at
node 1, so the migration policy moves the dynamic homes to node 0.
The demo shows (a) homes migrating without any TLB or page-table
invalidation, (b) a stale client getting its request forwarded via the
static home and learning the new dynamic home from the response, and
(c) the latency of the hot node's accesses dropping once it *is* the
home.
"""

from repro.core.modes import PageMode
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

GAP = 1_000_000


def main() -> int:
    config = MachineConfig(num_nodes=4, cpus_per_node=2,
                           enable_migration=True, migration_threshold=16)
    machine = Machine(config, policy="scoma")
    region = machine.layout.attach_shared(key=1, size_bytes=64 * 1024)

    # Pick a page homed at node 1.
    page_index = next(i for i in range(64)
                      if machine.static_home_of(region.gpage_base + i) == 1)
    gpage = region.gpage_base + page_index
    vbase = region.vbase + page_index * config.page_bytes

    clock = 0

    def access(cpu_index, vaddr, write=False):
        nonlocal clock
        clock += GAP
        end = machine.access(machine.cpus[cpu_index], vaddr, write, clock)
        return end - clock

    hot_cpu = 0        # node 0
    stale_cpu = 4      # node 2: will cache stale home info
    lines = config.lines_per_page

    print("page gpage=%d, static home = node %d"
          % (gpage, machine.static_home_of(gpage)))

    # The stale client touches the page once (caches home=1 in its PIT).
    access(stale_cpu, vbase)

    # Node 0 hammers the page until the home migrates to it.
    print("\nnode 0 hammering the page...")
    access(hot_cpu, vbase)                    # page fault + first miss
    before = access(hot_cpu, vbase + config.line_bytes)   # plain remote miss
    for sweep in range(3):
        for lip in range(lines):
            access(hot_cpu, vbase + lip * config.line_bytes, write=True)
    print("dynamic home is now node %d (after %d migration(s))"
          % (machine.dynamic_home_of(gpage), machine.migration.migrations))

    # A sibling CPU on node 0 misses on the page: the data is now homed
    # on this very node, so the miss is serviced locally.
    after = access(hot_cpu + 1, vbase + config.line_bytes)
    print("node 0 miss latency: %d cycles before (remote home) vs "
          "%d after (local home)" % (before, after))

    # The stale client still believes node 1 is the home; its request is
    # forwarded (old home -> static home -> dynamic home) and its PIT
    # learns the new home — no global coordination ever happened.
    fwd_before = machine.nodes[2].stats.forwarded_requests
    t_stale = access(stale_cpu, vbase + 32)
    fwd_after = machine.nodes[2].stats.forwarded_requests
    t_fresh = access(stale_cpu, vbase + 64)
    print("\nstale client (node 2): %d cycles with forwarding (%d forward), "
          "then %d cycles direct" % (t_stale, fwd_after - fwd_before, t_fresh))

    vpage = vbase // config.page_bytes
    print("\nnode 2's TLB still holds its translation: %s "
          "(no shootdown — translations are node private)"
          % (vpage in machine.cpus[stale_cpu].tlb))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
