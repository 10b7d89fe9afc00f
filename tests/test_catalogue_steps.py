"""Every recorded benchmark pair is decided at its recorded step.

perfbench/catalogue.json records, for each pool entry, the verdict, the
step that decided it when the catalogue was built and, for the audit
pool, the diagnostics.  The benchmark's gate compares verdicts and
diagnostics; this test also pins the deciding step, so a change that
moves decisions to another stage of the ladder fails here.  Each entry
is placed on its own points, 1..points, except in the memo test, which
also places it on reversed points at its highest degree.
"""

import json
import re
from pathlib import Path

import pytest

from subindep import homs, pipeline
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


def _reversed_points(e):
    """The entry's pair at its highest degree with point i moved to
    degree + 1 - i."""
    degree = e["degrees"][1]
    flip = lambda gens: [re.sub(r"\d+", lambda m: str(degree + 1 - int(m[0])), g) for g in gens]
    return {"degree": degree, "A": flip(e["A"]), "B": flip(e["B"])}


def _outcome(d):
    witness = None if d.witness is None else d.witness.to_json()
    return d.status, d.step, witness, d.stats._replace(elapsed_ms=0), d.diagnostics


def test_cold_and_warm_memos_decide_alike():
    # The endomorphism memo (keyed by multiplication structure) and the
    # sampled law's streams are filled by deciding the entry on its own
    # points first; the relabelled pair must then decide exactly as it
    # does with both memos empty, witness and diagnostics included.
    catalogue = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    entries = [e for w in ("ladder_mix", "audit", "step4_exhaustive")
               for cls, pool in catalogue[w]["pools"].items() if cls != "c2_4" for e in pool]
    assert len(entries) == 183
    config = Config(run_diagnostics=True)
    mismatches = []
    for e in entries:
        spec = _reversed_points(e)
        homs._ENDO_MEMO.clear()
        pipeline._law_stream.cache_clear()
        cold = _outcome(decide(spec, config))
        decide({"degree": e["points"], "A": e["A"], "B": e["B"]}, config)
        warm = _outcome(decide(spec, config))
        if cold != warm:
            mismatches.append((spec, cold, warm))
    assert mismatches == []
