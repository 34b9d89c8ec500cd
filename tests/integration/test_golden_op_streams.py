"""Golden op-stream regression test.

Recomputes, for every application at the tiny preset (kvstore also at
``serving``) and every synthetic pattern, the sha256 of each CPU's op
stream expanded to single references, and compares it with the
committed fixture.  The digest ignores how a kernel batches its
references into blocks, so it pins exactly what the machine simulates:
a kernel rewrite that changes one address, one read/write flag or the
position of one compute, barrier or lock op fails here.  Intentional
changes are blessed by rerunning ``tools/update_golden.py``.
"""

import json

import pytest

from tests.integration.test_golden_stats import ROOT, _load_update_golden

FIXTURE = ROOT / "tests" / "integration" / "golden_op_streams.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def recomputed():
    return _load_update_golden().compute_op_stream_golden()


def test_fixture_covers_every_application_and_pattern(golden):
    from repro.workloads import ALL_APPLICATIONS
    from repro.workloads.synthetic import PATTERNS
    for app in ALL_APPLICATIONS:
        assert "%s/tiny" % app in golden
    assert "kvstore/serving" in golden
    covered = {name.split("-", 1)[1].split("-")[0]
               for name in golden if name.startswith("synthetic-")}
    assert covered == set(PATTERNS)


def test_op_streams_match_the_committed_fixture(golden, recomputed):
    assert set(recomputed) == set(golden), \
        "cell set drifted: rerun tools/update_golden.py"
    drifted = sorted(cell for cell in golden
                     if recomputed[cell] != golden[cell])
    assert not drifted, (
        "op stream(s) drifted from the golden fixture (intentional? "
        "rerun tools/update_golden.py and commit the diff): %s"
        % ", ".join(drifted))
