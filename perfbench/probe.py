"""Child-process probes that ``run.py`` starts in a fresh interpreter.

    PYTHONPATH=src:. python3 perfbench/probe.py setup WORKLOAD SEED
    PYTHONPATH=src:. python3 perfbench/probe.py waits WORKLOAD SEED

``setup`` prints the host seconds from just before the first import of
``repro`` to the end of the workload's ``build()``: cold imports,
machine construction and workload set-up.  ``run.py`` starts it several
times and reports the median as ``setup_s``.

``waits`` runs one unit under a causal ``TraceCollector`` (installed
with ``repro.obs.tracing.install``) and prints, as JSON, the simulated
cycles charged to each wait segment with the unit's digest and failure
counts.  The traced run starts it beside its ``cProfile`` unit: each
instrument alone slows the campaign about 3.5x, both at once about 8x,
which no run time limit allows.
"""

import json
import sys
from time import perf_counter


def setup(name: str, seed: int) -> None:
    start = perf_counter()
    from perfbench.suite import WORKLOADS
    WORKLOADS[name](seed).build()
    print(perf_counter() - start)


def waits(name: str, seed: int) -> None:
    from repro.obs import tracing
    from perfbench.calibrate import no_clock
    from perfbench.suite import WORKLOADS, measure

    workload = WORKLOADS[name](seed)
    workload.warmup()
    collector = tracing.install(tracing.TraceCollector(seed=seed))
    try:
        unit = measure(workload, no_clock)[0]
    finally:
        tracing.uninstall()
    rollup = collector.rollup()
    print(json.dumps({
        "digest": unit.digest,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "failures": unit.failures,
        "waits": {segment: rollup.get(segment, {}).get("cycles", 0)
                  for segment in tracing.SEGMENTS},
    }))


if __name__ == "__main__":
    {"setup": setup, "waits": waits}[sys.argv[1]](sys.argv[2],
                                                   int(sys.argv[3]))
