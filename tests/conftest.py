from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import pytest

from subindep import homs, pipeline
from subindep.atlas import _AtlasRun, classify_all_pairs
from subindep.groups import FiniteGroup, SubgroupPair, closure, symmetric_group
from subindep.perm import parse_cycles


@pytest.fixture(autouse=True)
def _cold_memos():
    """Each test starts with empty process-wide memos: the endomorphism
    tables by multiplication structure and the sampled law's streams, so
    a test that counts the search's work sees a cold search."""
    homs._ENDO_MEMO.clear()
    pipeline._law_stream.cache_clear()


def make_pair(degree: int, a_gens: list[str], b_gens: list[str]) -> SubgroupPair:
    a = closure([parse_cycles(s, degree) for s in a_gens], degree)
    b = closure([parse_cycles(s, degree) for s in b_gens], degree)
    return SubgroupPair(a, b)


# The worked examples used throughout the suite, as (degree, A, B).
SHARED_POINT = (3, ["(1 2)"], ["(1 3)"])
ORDER_CLASH = (3, ["(1 2)"], ["(1 2 3)"])
SWAP_VS_DOUBLE = (4, ["(1 2)"], ["(1 3)(2 4)"])
FAR_SWAPS = (6, ["(1 2)", "(5 6)"], ["(1 3)(2 4)"])
MERGE_PAIR = (4, ["(1 2)", "(3 4)"], ["(1 2 3 4)"])


@lru_cache(maxsize=None)
def _pair_cached(degree: int, a_gens: tuple[str, ...], b_gens: tuple[str, ...]) -> SubgroupPair:
    return make_pair(degree, list(a_gens), list(b_gens))


def pair_from_row(row, degree: int) -> SubgroupPair:
    """Rebuild the SubgroupPair an atlas row was computed from."""
    def gens(field: str) -> tuple[str, ...]:
        return () if field == "e" else tuple(field.split(";"))
    return _pair_cached(degree, gens(row.a_gens), gens(row.b_gens))


@lru_cache(maxsize=None)
def atlas_run(degree: int) -> _AtlasRun:
    """The atlas lattice of the symmetric group of the given degree, with
    its memo, shared by the tests that look inside it."""
    return _AtlasRun(symmetric_group(degree))


class AtlasSide(NamedTuple):
    """What the atlas memo holds on one side of a pair, by name."""

    ncl: FiniteGroup  # its normal closure in the join
    merge: str  # its merge column
    keeps: int  # the endomorphisms of the join mapping it into itself


def atlas_side(run: _AtlasRun, i: int, k: int) -> AtlasSide:
    """run._side(i, k): subs[i] as a side whose join is subs[k]."""
    return AtlasSide(*run._side(i, k))


def lattice_index(run: _AtlasRun, group) -> int:
    """The position of group among the run's subgroups."""
    return [s.elements for s in run.subs].index(group.elements)


@pytest.fixture(scope="session")
def s3_atlas():
    return classify_all_pairs(3)


@pytest.fixture(scope="session")
def s4_atlas():
    return classify_all_pairs(4)
