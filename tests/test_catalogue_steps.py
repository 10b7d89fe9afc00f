"""Every recorded benchmark pair is decided at its recorded step.

perfbench/catalogue.json records, for each pool entry, the verdict, the
step that decided it when the catalogue was built and, for the audit
pool, the diagnostics.  The benchmark's gate compares verdicts and
diagnostics; this test also pins the deciding step, so a change that
moves decisions to another stage of the ladder fails here.  Each entry
is placed on its own points, 1..points.
"""

import json
from pathlib import Path

import pytest

from subindep.checks import IncompatiblePairWitness, recheck_witness
from subindep.pipeline import Config, Step, decide, decide_pair, parse_pair_spec

CATALOGUE = Path(__file__).resolve().parents[1] / "perfbench" / "catalogue.json"


@pytest.mark.parametrize("workload", ["ladder_mix", "audit", "step4_exhaustive"])
def test_recorded_status_step_and_diagnostics(workload):
    pools = json.loads(CATALOGUE.read_text(encoding="utf-8"))[workload]["pools"]
    config = Config(run_diagnostics=workload == "audit")
    entries = [(cls, e) for cls, pool in pools.items() for e in pool]
    assert entries
    mismatches = []
    for cls, e in entries:
        d = decide({"degree": e["points"], "A": e["A"], "B": e["B"]}, config)
        got = (d.status, d.step.value, d.diagnostics)
        want = (e["expected"], e["step_at_build"], e.get("diagnostics"))
        if got != want:
            mismatches.append((cls, e["A"], e["B"], got, want))
    assert mismatches == []


def test_step4_dependent_witnesses_recheck():
    # Each is an incompatible pair of genuine endomorphisms, which the
    # recheck accepts after testing that each map is one.
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    entries = [e for w in catalogue.values() for pool in w.get("pools", {}).values()
               for e in pool if (e["expected"], e["step_at_build"]) == ("Dependent", "Step4")]
    assert len(entries) == 14
    for e in entries:
        pair = parse_pair_spec({"degree": e["points"], "A": e["A"], "B": e["B"]})
        d = decide_pair(pair)
        assert d.step is Step.BRUTE_FORCE and isinstance(d.witness, IncompatiblePairWitness)
        assert recheck_witness(pair, d.witness), (e["A"], e["B"])
