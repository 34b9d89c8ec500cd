#!/usr/bin/env python
"""Memory firewall demo (section 3.2).

In CC-NUMA, physical addresses name remote memory directly, so a faulty
node can scribble anywhere ("wild writes").  In PRISM every remote
access is checked against the home's Page Information Table, so a
capability list per PIT entry filters writers.

The demo shares a page between nodes 0 and 1, restricts its writer list
to node 0, then lets a "faulty" node 2 attempt a wild write: the home
controller rejects it and the page's contents (and the sharers' cached
state) survive intact.  A second act fail-stops a whole node and shows
the survivors continuing — the paper's natural fault containment
boundaries around each node.
"""

from repro.core.controller import WildWriteError
from repro.core.finegrain import Tag
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

GAP = 1_000_000


def main() -> int:
    config = MachineConfig(num_nodes=4, cpus_per_node=2)
    machine = Machine(config, policy="scoma")
    region = machine.layout.attach_shared(key=1, size_bytes=32 * 1024)

    page_index = next(i for i in range(32)
                      if machine.static_home_of(region.gpage_base + i) == 1)
    gpage = region.gpage_base + page_index
    vaddr = region.vbase + page_index * config.page_bytes

    clock = 0

    def access(cpu_index, addr, write=False):
        nonlocal clock
        clock += GAP
        return machine.access(machine.cpus[cpu_index], addr, write, clock)

    # Node 0 writes the page; node 1's CPU reads it (and is the home).
    access(0, vaddr, write=True)
    access(2, vaddr)          # node 1, cpu 0

    home = machine.nodes[1]
    dir_page = home.directory.page(gpage)
    home_entry = home.pit.entry_or_none(dir_page.home_frame)

    # The OS arms the firewall: only node 0 may write this page.
    home_entry.allowed_writers = {0, 1}
    print("firewall armed at home node 1: writers = %r"
          % sorted(home_entry.allowed_writers))

    # A faulty node 2 issues a wild write.
    try:
        access(4, vaddr, write=True)   # node 2, cpu 0
    except WildWriteError as exc:
        print("wild write rejected: %s" % exc)
    print("wild writes blocked at home: %d"
          % home.stats.wild_writes_blocked)

    # The legitimate writer still works, and the sharers' state is sane.
    access(0, vaddr, write=True)
    print("legitimate write from node 0 succeeded; home tag is now %s"
          % home_entry.tags.get(0).name)

    # Reads from anyone remain allowed (the firewall filters writes).
    access(6, vaddr)          # node 3 reads
    print("read from node 3 succeeded; sharers at home: %r"
          % sorted(dir_page.lines[0].sharers))

    # Part two: a whole node fail-stops.  Because physical addresses
    # never name remote memory, the survivors keep running; only pages
    # homed on the dead node are lost (their applications terminate).
    from repro.core.controller import NodeFailedError
    print("\nnode 3 fail-stops.")
    machine.fail_node(3)
    access(0, vaddr, write=True)
    print("traffic among surviving nodes continues unaffected")
    dead_page = next(i for i in range(32)
                     if machine.static_home_of(region.gpage_base + i) == 3)
    try:
        access(0, region.vbase + dead_page * config.page_bytes)
    except NodeFailedError as exc:
        print("access to a page homed on the dead node terminates the "
              "application: %s" % exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
