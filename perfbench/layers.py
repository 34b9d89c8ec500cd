"""Per-layer instrumentation for the traced benchmark run.

Three pieces, all attached from outside the simulator:

* :class:`Tracer` records host-time spans around the calls the
  benchmark makes into a layer (campaign, cell, machine build, machine
  run, chaos round).  Spans stay in memory and are written as JSONL
  when the run ends.
* :class:`MachineLog` wraps ``Machine.__init__`` and ``Machine.run`` at
  class level while active.  It records each run's simulated
  references and cycles (the chaos harness does not return them) and,
  with a live tracer, opens the build/run spans and sums the exact
  counters each machine holds after its run.
* :func:`layer_profile` turns a ``cProfile`` run into host self time per
  repro package and exact call counts at named functions.

The layers are the packages of ``repro``; see README.md for the
metric-to-workload table.
"""

from __future__ import annotations

import json
import os
import pstats
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import repro
from repro.sim.machine import Machine

#: The repository's layers: the packages of ``repro``.
LAYERS = ("harness", "sim", "mem", "core", "kernel", "interconnect",
          "workloads", "obs", "faults", "verify")

#: Exact call-count metrics: metric -> (file under repro/, function).
CALL_SITES = {
    "sim.turns": (("sim/machine.py", "_run_cpu"),),
    "sim.access_calls": (("sim/machine.py", "_access"),),
    "sim.slow_path_calls": (("sim/machine.py", "_miss"),
                            ("sim/machine.py", "_upgrade")),
    "mem.fill_calls": (("mem/cache.py", "fill"),),
    "core.fetch_calls": (("core/controller.py", "fetch"),),
    "core.home_service_calls": (("core/controller.py", "home_service"),),
    "core.flush_calls": (("core/controller.py", "flush_client_page"),),
    "kernel.fault_calls": (("kernel/vm.py", "fault"),),
    "kernel.page_out_calls": (("kernel/vm.py", "page_out_client"),),
    "interconnect.send_calls": (("interconnect/network.py", "send"),),
    "verify.events": (("verify/tracker.py", "_on_access"),),
}

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def module_of(filename: str) -> "str | None":
    """``"<package>/<file>.py"`` for a file inside ``repro``, else None."""
    if not filename.startswith(_REPRO_ROOT):
        return None
    return filename[len(_REPRO_ROOT):].replace(os.sep, "/")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to, or ``"other"``."""
    module = module_of(filename)
    if module is None:
        return "other"
    package = module.split("/", 1)[0]
    return package if package in LAYERS else "other"


class Tracer:
    """Host-time spans: name, start, end, parent, and a trace id shared
    by the spans of one cell or round.  A disabled tracer records
    nothing and costs one call per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: "list[dict]" = []
        self._stack: "list[dict]" = []
        self._ids = 0

    def span(self, name: str, new_trace: bool = False):
        """Context manager timing one call into a layer.  ``new_trace``
        starts a fresh trace id (one per cell or chaos round); otherwise
        the span joins its parent's trace."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, new_trace)

    @contextmanager
    def _span(self, name: str, new_trace: bool):
        parent = self._stack[-1] if self._stack else None
        self._ids += 1
        record = {"name": name, "span": self._ids,
                  "parent": parent["span"] if parent else 0,
                  "trace": (self._ids if new_trace or parent is None
                            else parent["trace"]),
                  "start": perf_counter(), "end": None}
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> "list[float]":
        """Host seconds of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write(self, path: str) -> None:
        """Write the spans as JSONL, times relative to the first start."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["span"]):
                fh.write(json.dumps(dict(s, start=s["start"] - origin,
                                         end=s["end"] - origin),
                                    sort_keys=True) + "\n")


class MachineLog:
    """Wraps machine construction and ``Machine.run`` while active.

    ``runs`` collects ``(references, execution_cycles)`` per run, read
    after the run even when it raised (a chaos round that fails
    cleanly).  With an enabled ``tracer``, every build and run gets a
    span and ``counts`` accumulates the exact counters the machine,
    its network and its fault injector hold after the run.
    """

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer(False)
        self.runs: "list[tuple[int, int]]" = []
        self.counts: "Counter[str]" = Counter()

    def __enter__(self) -> "MachineLog":
        self._init, self._run = Machine.__init__, Machine.run
        init, run, log = self._init, self._run, self

        def logged_init(machine, *args, **kwargs):
            with log.tracer.span("machine.build"):
                init(machine, *args, **kwargs)

        def logged_run(machine, workload):
            try:
                with log.tracer.span("machine.run"):
                    return run(machine, workload)
            finally:
                log._note(machine)

        Machine.__init__, Machine.run = logged_init, logged_run
        return self

    def __exit__(self, *exc) -> None:
        Machine.__init__, Machine.run = self._init, self._run

    def _note(self, machine) -> None:
        stats = machine.stats
        self.runs.append((stats.references, stats.execution_cycles))
        if not self.tracer.enabled:
            return
        c = self.counts
        c["sim.references"] += stats.references
        for cpu in stats.cpus:
            c["mem.l1_hits"] += cpu.l1_hits
            c["mem.l2_hits"] += cpu.l2_hits
            c["mem.tlb_misses"] += cpu.tlb_misses
        for node in stats.nodes:
            c["core.remote_misses"] += node.remote_misses
            c["core.local_misses"] += node.local_misses
            c["core.invalidations"] += node.invalidations_received
            c["pit.lookups"] += node.pit_lookups
            c["pit.hash_lookups"] += node.pit_hash_lookups
            c["kernel.client_page_outs"] += node.client_page_outs
            c["kernel.mode_demotions"] += node.mode_demotions
        c["kernel.page_faults"] += stats.page_faults
        c["dir.hits"] += stats.directory_cache_hits
        c["dir.misses"] += stats.directory_cache_misses
        c["interconnect.messages"] += machine.network.messages
        if machine.faults is not None:
            faults = machine.faults.stats
            c["faults.judged"] += faults.judged
            c["faults.dropped"] += faults.dropped
            c["faults.retransmissions"] += faults.retransmissions


def layer_profile(profile) -> "tuple[dict[str, float], dict[str, float]]":
    """``(self seconds per layer, call-site metrics)`` of a cProfile run.

    A function's self time goes to the package that defines it.  Code
    outside ``repro`` (C builtins, the standard library, numpy) is
    charged, edge by edge, to the layer of the ``repro`` function that
    called it; what nothing in ``repro`` called is left out here and
    lands in ``other.self_s``.  Call counts include generator resumes.
    """
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: "Counter[tuple[str, str]]" = Counter()
    resumes = 0
    check_s = 0.0
    for (filename, _line, name), (_cc, nc, tt, ct, callers) in stats.items():
        layer = layer_of(filename)
        if layer != "other":
            self_s[layer] += tt
            calls[(module_of(filename), name)] += nc
            if layer == "workloads":
                resumes += nc
            if (module_of(filename), name) == ("verify/checker.py",
                                               "check_history"):
                check_s += ct
            continue
        for (caller_file, _l, _n), edge in callers.items():
            caller_layer = layer_of(caller_file)
            if caller_layer != "other":
                self_s[caller_layer] += edge[2]
    sites = {metric: sum(calls[site] for site in members)
             for metric, members in CALL_SITES.items()}
    sites["workloads.resumes"] = resumes
    sites["verify.check_s"] = check_s
    return self_s, sites
