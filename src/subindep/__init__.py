"""Independence of subgroup pairs in finite permutation groups.

Two subgroups A and B of a common permutation group are independent
when every pair of endomorphisms (one of A, one of B) extends to an
endomorphism of the join <A u B>.  This package decides that property
for concrete finite inputs through a ladder of cheap structural checks
backed by an exhaustive extension search, and every verdict carries a
certificate that can be rechecked from scratch.
"""

from .checks import recheck_witness
from .pipeline import (
    Config,
    Decision,
    PairSpecError,
    Step,
    decide,
    decide_pair,
    format_decision,
    parse_pair_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Decision",
    "PairSpecError",
    "Step",
    "__version__",
    "decide",
    "decide_pair",
    "format_decision",
    "parse_pair_spec",
    "recheck_witness",
]
