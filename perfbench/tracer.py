"""Spans and counts at the public functions of each layer.

Functions are hooked by code object through ``sys.setprofile``, so calls
through names captured at import (``from .groups import closure``, the
atlas's check table) are seen as well as calls through the module.  The
program is not modified.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (layer metric prefix, module, attribute).  A function the program no
# longer has is skipped, and its metrics read 0.
HOOKS = [
    ("perm.mul", "subindep.perm", "Permutation.__mul__"),
    ("perm.parse_cycles", "subindep.perm", "parse_cycles"),
    ("pipeline.parse_pair_spec", "subindep.pipeline", "parse_pair_spec"),
    ("pipeline.decide_pair", "subindep.pipeline", "decide_pair"),
    ("groups.closure", "subindep.groups", "closure"),
    ("groups.intersection", "subindep.groups", "intersection"),
    ("groups.is_normal_in", "subindep.groups", "is_normal_in"),
    ("groups.normal_closure", "subindep.groups", "normal_closure"),
    ("groups.conjugacy_classes", "subindep.groups", "conjugacy_classes"),
    ("groups.propagate_images", "subindep.groups", "propagate_images"),
    ("groups.quotient", "subindep.groups", "quotient"),
    ("groups.is_isomorphic", "subindep.groups", "is_isomorphic"),
    ("groups.greedy_generators", "subindep.groups", "greedy_generators"),
    ("homs.enumerate_endomorphisms", "subindep.homs", "enumerate_endomorphisms"),
    ("homs.extend", "subindep.homs", "extend"),
    ("checks.check_almost_disjoint", "subindep.checks", "check_almost_disjoint"),
    ("checks.check_commuting", "subindep.checks", "check_commuting"),
    ("checks.check_order_divisibility", "subindep.checks", "check_order_divisibility"),
    ("checks.check_normal_asymmetry", "subindep.checks", "check_normal_asymmetry"),
    ("checks.check_b_inside_ncl_a", "subindep.checks", "check_b_inside_ncl_a"),
    ("checks.check_a_inside_ncl_b", "subindep.checks", "check_a_inside_ncl_b"),
    ("checks.check_conjugacy_merge_a", "subindep.checks", "check_conjugacy_merge_a"),
    ("checks.check_conjugacy_merge_b", "subindep.checks", "check_conjugacy_merge_b"),
    ("checks.brute_force_independent", "subindep.checks", "brute_force_independent"),
    ("checks.verify_factoring", "subindep.checks", "verify_factoring"),
    ("atlas.enumerate_subgroups", "subindep.atlas", "enumerate_subgroups"),
    ("atlas.classify_all_pairs", "subindep.atlas", "classify_all_pairs"),
    ("atlas.render_report", "subindep.atlas", "render_report"),
]

# Half a million calls per S4 atlas: counted and timed, but no spans.
UNSPANNED = {"perm.mul"}


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return getattr(inspect.unwrap(obj), "__code__", None)


class Tracer:
    """Collects per-function calls, total and self time, the spans of
    every hooked call but the unspanned ones, and a few counts read from
    return values.  ``op`` tags spans with the op that caused them."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in HOOKS]
        self.calls = dict.fromkeys(self.names, 0)
        self.total_s = dict.fromkeys(self.names, 0.0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.counts = {"closure_elements": 0, "extend_conflicts": 0,
                       "endomorphisms_returned": 0, "pairs_scanned": 0,
                       "pairs_checked": 0, "diagnostics_s": 0.0}
        self.spans: list[tuple] = []
        self.op = 0
        self._codes = {}
        for name, module, attr in HOOKS:
            code = _resolve(module, attr)
            if code is not None:
                self._codes[code] = name

    def __enter__(self) -> "Tracer":
        sys.setprofile(self._make_hook())
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)

    def _make_hook(self):
        codes = self._codes
        clock = time.perf_counter
        stack: list[list] = []  # [name, start, child_s, span_id, parent_span_id]
        next_id = [len(self.spans)]

        def hook(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    parent = stack[-1][3] if stack else -1
                    if name in UNSPANNED:
                        span_id = -1
                    else:
                        span_id = next_id[0]
                        next_id[0] += 1
                    stack.append([name, clock(), 0.0, span_id, parent])
            elif event == "return" and frame.f_code in codes:
                end = clock()
                name, start, child, span_id, parent = stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
                if stack:
                    stack[-1][2] += dur
                if span_id >= 0:
                    self.spans.append((span_id, name, start, end, parent, self.op))
                if arg is not None or name == "homs.extend":
                    self._count(name, arg, dur, stack)

        return hook

    def _count(self, name: str, result, dur: float, stack: list) -> None:
        counts = self.counts
        if name == "groups.closure":
            counts["closure_elements"] += result.order
        elif name == "homs.extend":
            if stack and stack[-1][0] == "checks.brute_force_independent":
                counts["pairs_scanned"] += 1
            if result is not None and not result.exists:
                counts["extend_conflicts"] += 1
        elif name == "homs.enumerate_endomorphisms":
            counts["endomorphisms_returned"] += len(result)
        elif name == "pipeline.decide_pair":
            counts["diagnostics_s"] += dur - result.stats.elapsed_ms / 1000.0
            counts["pairs_checked"] += result.stats.pairs_checked or 0

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start_s, end_s, parent id, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
