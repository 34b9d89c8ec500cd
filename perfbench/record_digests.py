"""Re-record the Figure 7 cell digests the benchmark checks against.

    python3 perfbench/record_digests.py

Runs the campaign once and rewrites ``fig7_digests.json``.  Only do
this for a change that is meant to alter simulated results; a
performance change must leave every digest as it is.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.harness.session import Session
    from perfbench.suite import DIGESTS, Fig7Campaign, stats_digest

    suites = Session(jobs=1).run_campaign(Fig7Campaign.apps,
                                          preset=Fig7Campaign.preset)
    digests = {"%s/%s" % (app, policy): stats_digest(result.stats)
               for app, suite in suites.items()
               for policy, result in suite.results.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("recorded %d cells in %s" % (len(digests), DIGESTS))


if __name__ == "__main__":
    main()
