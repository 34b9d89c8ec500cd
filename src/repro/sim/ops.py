"""Operation vocabulary emitted by workload reference generators.

A workload supplies one generator per simulated CPU; each yielded tuple
is one of:

* ``(OP_COMPUTE, cycles)``   — local computation, no memory traffic.
* ``(OP_READ, vaddr)``       — load from a virtual address.
* ``(OP_WRITE, vaddr)``      — store to a virtual address.
* ``(OP_BARRIER, barrier_id)`` — global barrier across all CPUs.
* ``(OP_LOCK, lock_id)``     — acquire a lock (blocks if held).
* ``(OP_UNLOCK, lock_id)``   — release a lock.
* ``(OP_REFS, addrs, writes)`` — a reference block: ``len(addrs)``
  references to the virtual addresses ``addrs[i]``, each a store when
  ``writes[i]`` is true and a load otherwise.

A reference block is the batched form of a run of ``OP_READ``/
``OP_WRITE`` ops.  ``addrs`` is any int sequence supporting ``len()``
and indexing — a list built one chunk at a time (a row, an iteration,
a request batch), or a ``range`` for a constant-stride sweep —
and ``writes`` a same-length sequence of truth values.  The machine
expands the block inline in its dispatch loop, so a chunk costs one
generator resume instead of one per reference, while simulating the
exact same per-reference sequence — including preemption between any
two references of the block when another CPU's clock falls earlier.

Plain integers (not an Enum) keep the hot dispatch loop fast.
"""

OP_COMPUTE = 0
OP_READ = 1
OP_WRITE = 2
OP_BARRIER = 3
OP_LOCK = 4
OP_UNLOCK = 5
OP_REFS = 6

OP_NAMES = {
    OP_COMPUTE: "compute",
    OP_READ: "read",
    OP_WRITE: "write",
    OP_BARRIER: "barrier",
    OP_LOCK: "lock",
    OP_UNLOCK: "unlock",
    OP_REFS: "refs",
}


def expand_op(op):
    """Expand one op into its per-reference equivalent (a list of ops).

    A reference block unrolls into one ``OP_READ``/``OP_WRITE`` per
    address; every other op is returned as-is.  Used by analysis
    tooling and the op-stream golden — the machine itself expands
    blocks inline.
    """
    if op[0] == OP_REFS:
        return [(OP_WRITE if write else OP_READ, addr)
                for addr, write in zip(op[1], op[2])]
    return [op]
