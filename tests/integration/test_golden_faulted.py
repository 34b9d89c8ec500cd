"""Golden outcomes of seeded fault-plan runs.

Recomputes every faulted cell of ``tools/update_golden.py`` — seeded
``FaultPlan.sample`` plans over fft, lu, kvstore and txn2pc, with and
without a deadline, a node pause and a scheduled node failure — and
compares each stats digest (or raised exception and message) against
the committed fixture.  Same-seed reproducibility tests cannot catch a
scheduler change that shifts faulted results consistently; this can.
Intentional changes are blessed by rerunning ``tools/update_golden.py``
and committing the new fixture.
"""

import json
import pathlib

from tests.integration.test_golden_stats import _load_update_golden

ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURE = ROOT / "tests" / "integration" / "golden_faulted_stats.json"


def test_faulted_outcomes_match_the_committed_fixture():
    golden = json.loads(FIXTURE.read_text())
    recomputed = _load_update_golden().compute_faulted_golden()
    assert set(recomputed) == set(golden), \
        "cell set drifted: rerun tools/update_golden.py"
    drifted = ["%s: %r != %r" % (cell, golden[cell], recomputed[cell])
               for cell in sorted(golden) if golden[cell] != recomputed[cell]]
    assert not drifted, (
        "%d faulted cell(s) drifted from the golden fixture:\n  %s"
        % (len(drifted), "\n  ".join(drifted[:20])))


def test_fixture_covers_finishing_and_raising_runs():
    golden = json.loads(FIXTURE.read_text())
    outcomes = {entry.get("raises", "ok") for entry in golden.values()}
    assert {"ok", "DeadlineExceeded"} <= outcomes
