"""Structured events: the machine's probe bus and the event sink.

Complements the metrics registry: where metrics aggregate, events keep
the *ordered stream* (the substrate later correctness tooling — e.g.
race detection over DSM event logs — needs).  Three pieces:

* :class:`Probes` — the one way to observe a simulated machine.  Every
  :class:`~repro.sim.machine.Machine` owns one (``machine.probes``)
  with a named slot per observable event; observers attach callbacks
  to slots and detach them again.  An empty slot is ``None``, so the
  emitting site pays one attribute test.
* :class:`EventSink` — a bounded ring buffer of plain event dicts, each
  carrying a process-monotonic sequence number and a ``kind`` from
  :data:`EVENT_SCHEMA` (oldest events are overwritten, with an accurate
  ``dropped`` count); exports JSONL (one event per line, sorted keys)
  or CSV (one section per kind).
* :class:`TraceRecorder` — a probe subscriber that writes machine
  events (references, page faults, page-outs, promotions, home
  migrations, node failures) into a sink; the CLI's ``run --trace-out``
  wires it up end to end::

      sink = EventSink()
      machine = Machine(config, policy="dyn-lru")
      with TraceRecorder(machine, kinds={"fault", "pageout"}, sink=sink):
          machine.run(workload)
      sink.write_jsonl("trace.jsonl")

Consumers validate with :func:`validate_event` / :func:`validate_jsonl`.
The *causal* substrate ("why was this access slow") is
:mod:`repro.obs.tracing`.
"""

from __future__ import annotations

import json
from collections import deque

#: Required payload fields (and their types) per event kind.  ``seq``
#: and ``kind`` are implicit on every event.  ``bool`` fields must be
#: checked before ``int`` (bool subclasses int).
EVENT_SCHEMA: "dict[str, dict[str, type]]" = {
    "access": {"time": int, "cpu": int, "vaddr": int, "write": bool,
               "latency": int},
    "fault": {"time": int, "node": int, "vpage": int, "gpage": int,
              "mode": str, "remote_home": bool},
    "pageout": {"time": int, "node": int, "frame": int, "demoted": bool},
    "promote": {"time": int, "node": int, "gpage": int},
    "migrate": {"gpage": int, "old_home": int, "new_home": int},
    # Value records produced by the verification tap
    # (``repro.verify.tracker``): every read's observed value and every
    # write's installed value, with the tap's per-location write
    # ``version`` — the substrate the sequential-consistency checker
    # validates against a legal writes-serialization order.
    "read": {"time": int, "cpu": int, "vaddr": int, "value": int,
             "version": int},
    "write": {"time": int, "cpu": int, "vaddr": int, "value": int,
              "version": int},
    # Fault plane (``repro.faults``): one event per injected message
    # fault (action in drop/duplicate/delay/reorder/retransmit) and one
    # per node death (also recorded by ``Machine.fail_node`` itself via
    # the ``node_fail`` probe).
    "fault_inject": {"time": int, "action": str, "msg": str, "src": int,
                     "dst": int},
    "node_fail": {"time": int, "node": int},
}


#: Probe slots of a machine, and the callback signature of each:
#:
#: ``access``    ``fn(cpu, vaddr, is_write, now, done) -> done`` after
#:               every reference resolves (``done`` is its completion
#:               time; return it, or a later time to stall the CPU)
#: ``barrier``   ``fn(release_time)`` at every barrier release
#: ``fault``     ``fn(kernel, vpage, frame, now)`` after a page fault
#: ``pageout``   ``fn(kernel, frame, now, demote)`` after a page-out
#: ``promote``   ``fn(kernel, gpage, now)`` per LA-NUMA -> S-COMA promotion
#: ``migrate``   ``fn(gpage, old_home, new_home)`` per home migration
#: ``node_fail`` ``fn(node_id, now)`` when a node fail-stops
PROBE_SLOTS = ("access", "barrier", "fault", "pageout", "promote",
               "migrate", "node_fail")


class Probes:
    """The probe bus of one machine: a named slot per observable event.

    Each slot is ``None`` (nothing attached, so the emitting site pays
    one attribute test) or a tuple of callbacks run in attach order.
    Access callbacks chain: each receives the completion time the
    previous one returned.  The slots and callback signatures are
    listed in :data:`PROBE_SLOTS`; an unknown slot name raises
    ``AttributeError``.
    """

    __slots__ = PROBE_SLOTS

    def __init__(self) -> None:
        for slot in PROBE_SLOTS:
            setattr(self, slot, None)

    def attach(self, slot: str, fn) -> None:
        """Append ``fn`` to ``slot``."""
        callbacks = getattr(self, slot)
        setattr(self, slot, (fn,) if callbacks is None else callbacks + (fn,))

    def detach(self, slot: str, fn) -> None:
        """Remove ``fn`` from ``slot`` (a no-op when it is not there)."""
        callbacks = list(getattr(self, slot) or ())
        if fn in callbacks:
            callbacks.remove(fn)
        setattr(self, slot, tuple(callbacks) or None)

    def state(self) -> tuple:
        """Every slot's current value (for :meth:`restore`)."""
        return tuple(getattr(self, slot) for slot in PROBE_SLOTS)

    def restore(self, state: tuple) -> None:
        """Put back the slots a :meth:`state` call saw."""
        for slot, callbacks in zip(PROBE_SLOTS, state):
            setattr(self, slot, callbacks)


class EventSink:
    """A bounded ring buffer of structured events.

    ``capacity`` bounds memory: once full, each new event overwrites
    the oldest one and increments :attr:`dropped`.  Sequence numbers
    keep counting across drops, so consumers can detect gaps.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self.dropped = 0
        self._seq = 0
        self._buffer: "deque[dict]" = deque(maxlen=capacity)

    def emit(self, kind: str, **fields) -> "dict[str, object]":
        """Record one event; returns the stored event dict."""
        if kind not in EVENT_SCHEMA:
            raise ValueError("unknown event kind %r (want one of %s)"
                             % (kind, ", ".join(sorted(EVENT_SCHEMA))))
        event = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self._seq += 1
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)
        return event

    @property
    def events(self) -> "list[dict]":
        """The retained events, oldest first."""
        return list(self._buffer)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (retained + dropped)."""
        return self._seq

    def summary(self) -> "dict[str, int]":
        """Retained-event counts by kind, plus the dropped count."""
        counts: "dict[str, int]" = {}
        for event in self._buffer:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        counts["dropped"] = self.dropped
        return counts

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """All retained events as JSONL (sorted keys, one per line)."""
        return "\n".join(json.dumps(e, sort_keys=True) for e in self._buffer)

    def write_jsonl(self, path: str) -> int:
        """Write the JSONL export to ``path``; returns the event count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._buffer)

    def to_csv(self) -> str:
        """Retained events as CSV, one section per event kind."""
        lines = []
        for kind in sorted(EVENT_SCHEMA):
            events = [e for e in self._buffer if e["kind"] == kind]
            if not events:
                continue
            fields = ["seq"] + sorted(EVENT_SCHEMA[kind])
            lines.append("# %s" % kind)
            lines.append(",".join(fields))
            for event in events:
                lines.append(",".join(str(event.get(f, "")) for f in fields))
        return "\n".join(lines)


def validate_event(event: "dict[str, object]",
                   last_seq: "int | None" = None) -> None:
    """Check one event dict against :data:`EVENT_SCHEMA`.

    Strict: every schema field must be present with the right type,
    and no field outside the schema (plus the implicit ``seq`` and
    ``kind``) may appear — an extra field means the producer and the
    schema have drifted, which is exactly what consumers need to hear
    about.  ``last_seq``, when given, additionally requires
    ``event["seq"] > last_seq`` (gaps are fine — they mark ring drops
    — but a stalled or backwards sequence is not).

    Raises :class:`ValueError` naming the first problem found.
    """
    if not isinstance(event, dict):
        raise ValueError("event must be a dict, got %r" % type(event))
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        raise ValueError("unknown event kind %r" % kind)
    seq = event.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ValueError("event %r has bad seq %r" % (kind, seq))
    if last_seq is not None and seq <= last_seq:
        raise ValueError("%s event: sequence went backwards (%d after %d)"
                         % (kind, seq, last_seq))
    schema = EVENT_SCHEMA[kind]
    extra = set(event) - set(schema) - {"seq", "kind"}
    if extra:
        raise ValueError("%s event (seq %d) has unknown fields: %s"
                         % (kind, seq, ", ".join(sorted(extra))))
    for field, want in schema.items():
        if field not in event:
            raise ValueError("%s event (seq %d) missing field %r"
                             % (kind, seq, field))
        value = event[field]
        if want is bool:
            ok = isinstance(value, bool)
        elif want is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, want)
        if not ok:
            raise ValueError("%s event (seq %d) field %r: expected %s, "
                             "got %r" % (kind, seq, field, want.__name__,
                                         value))


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace file; returns the number of events.

    Checks each line parses, conforms to the schema, and that sequence
    numbers are strictly increasing (gaps are fine — they mark ring
    drops — but reordering is not).
    """
    count = 0
    last_seq = -1
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ValueError("%s:%d: not JSON: %s"
                                 % (path, lineno, exc)) from None
            try:
                validate_event(event, last_seq=last_seq)
            except ValueError as exc:
                raise ValueError("%s:%d: %s"
                                 % (path, lineno, exc)) from None
            last_seq = event["seq"]
            count += 1
    return count


#: Machine event kinds a :class:`TraceRecorder` can record (each is a
#: probe slot and an :data:`EVENT_SCHEMA` kind).
KINDS = ("access", "fault", "pageout", "promote", "migrate", "node_fail")


class TraceRecorder:
    """Record machine events into an :class:`EventSink` while attached.

    Subscribes to the probe slots named in ``kinds`` (default: all of
    :data:`KINDS`).  Events go to ``sink``; without one the recorder
    makes its own ring of ``max_events`` (it keeps the most recent
    events and counts the rest in ``dropped``).  Use as a context
    manager, or call :meth:`attach` / :meth:`detach`.
    """

    def __init__(self, machine, kinds: "set[str] | None" = None,
                 max_events: int = 1_000_000, sink=None) -> None:
        unknown = (set(kinds) - set(KINDS)) if kinds else set()
        if unknown:
            raise ValueError("unknown trace kinds: %s" % sorted(unknown))
        self.machine = machine
        self.kinds = set(kinds) if kinds is not None else set(KINDS)
        self.sink = sink if sink is not None else EventSink(max_events)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "TraceRecorder":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def _subscriptions(self):
        return [(kind, getattr(self, "_on_" + kind))
                for kind in KINDS if kind in self.kinds]

    def attach(self) -> None:
        """Subscribe to the machine's probes."""
        for slot, fn in self._subscriptions():
            self.machine.probes.attach(slot, fn)

    def detach(self) -> None:
        """Unsubscribe (a no-op when not attached)."""
        for slot, fn in self._subscriptions():
            self.machine.probes.detach(slot, fn)

    # -- probe callbacks ---------------------------------------------------

    def _on_access(self, cpu, vaddr, is_write, now, done):
        self.sink.emit("access", time=now, cpu=cpu.cpu_id, vaddr=vaddr,
                       write=bool(is_write), latency=done - now)
        return done

    def _on_fault(self, kernel, vpage, frame, now) -> None:
        node_id = kernel.node.node_id
        entry = kernel.node.pit.entry_or_none(frame)
        gpage = entry.gpage if entry is not None else -1
        mode = entry.mode.name if entry is not None else "?"
        remote = (gpage >= 0
                  and kernel.machine.dynamic_home_of(gpage) != node_id)
        self.sink.emit("fault", time=now, node=node_id, vpage=vpage,
                       gpage=gpage, mode=mode, remote_home=remote)

    def _on_pageout(self, kernel, frame, now, demote) -> None:
        self.sink.emit("pageout", time=now, node=kernel.node.node_id,
                       frame=frame, demoted=bool(demote))

    def _on_promote(self, kernel, gpage, now) -> None:
        self.sink.emit("promote", time=now, node=kernel.node.node_id,
                       gpage=gpage)

    def _on_migrate(self, gpage, old_home, new_home) -> None:
        self.sink.emit("migrate", gpage=gpage, old_home=old_home,
                       new_home=new_home)

    def _on_node_fail(self, node_id, now) -> None:
        self.sink.emit("node_fail", time=now, node=node_id)
