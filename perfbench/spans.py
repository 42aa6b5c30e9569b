"""Spans and counters around the entry points of canring's modules.

A hook replaces a function or method of the package with a wrapper while
a traced pass runs.  A span hook records (name, start, end, parent) for
every call; a count hook only counts.  Spans stay in memory until the run
ends, when ``Tracer.pass_metrics`` turns them into per-pass counts and
self times (a span's duration minus the time its child spans cover).

Hooks on private names resolve at start-up.  One that does not resolve is
reported as absent with its name, never as an error: the program may fold
or rename those helpers.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """``target`` is "module:attr" or "module:Class.method"; ``extra`` maps
    a counter suffix to a function of (args, result) giving the amount."""

    metric: str
    target: str
    timed: bool = True
    extra: tuple[tuple[str, Callable], ...] = ()


def _is_true(args, result) -> int:
    return 1 if result else 0


HOOKS = (
    Hook("presentation.minimal_generators", "canring.presentation:minimal_generators"),
    Hook("presentation.relation_ideal", "canring.presentation:relation_ideal"),
    Hook("presentation.groebner_leading_terms", "canring.presentation:groebner_leading_terms"),
    Hook("presentation.stability_scan", "canring.presentation:stability_scan"),
    Hook("presentation.brute_force_oracle", "canring.presentation:brute_force_oracle"),
    Hook("presentation.render.defect_sections", "canring.presentation:_Realization.defect_sections"),
    Hook("presentation.render.render_exponents", "canring.presentation:_Realization.render_exponents"),
    Hook("presentation.render.multiply", "canring.presentation:_Realization.multiply"),
    Hook(
        "presentation.render.poly_mul",
        "canring.presentation:_poly_mul",
        extra=(("coeff_products", lambda args, result: len(args[1]) * len(args[2])),),
    ),
    Hook(
        "presentation.enum.weighted_exponents",
        "canring.presentation:_weighted_exponents",
        extra=(("tuples", lambda args, result: len(result)),),
    ),
    Hook("presentation.eval.section", "canring.presentation:_MonomialEvaluator.section", timed=False),
    Hook("presentation.realizations", "canring.presentation:_Realization.__init__", timed=False),
    Hook("divisor.floor_divisor", "canring.divisor:floor_divisor", timed=False),
    Hook("conelattice.monomial_basis", "canring.conelattice:monomial_basis"),
    Hook(
        "exactla.TrackingRowBasis.add",
        "canring.exactla:TrackingRowBasis.add",
        extra=(("kernel_vectors", lambda args, result: 0 if result is None else 1),),
    ),
    Hook("exactla.RowBasis.add", "canring.exactla:RowBasis.add", extra=(("useful", _is_true),)),
    Hook("exactla.SparseRowBasis.add", "canring.exactla:SparseRowBasis.add", extra=(("useful", _is_true),)),
    Hook("exactla.row_reduce", "canring.exactla:row_reduce"),
    Hook("twopoint.two_point_presentation", "canring.twopoint:two_point_presentation"),
    Hook("twopoint.verify_presentation", "canring.twopoint:verify_presentation"),
)

ROOT = "bench.item"


def _resolve(target: str):
    """(owner, attribute, original) for a target, or a reason it is absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        return f"{module_name} does not import ({exc})"
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"{module_name}.{part} not found"
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return f"{module_name}.{path} not found"
    return owner, attr, original


class Tracer:
    """Installs the hooks for traced passes and keeps their spans."""

    def __init__(self):
        self.names = [ROOT] + [h.metric for h in HOOKS]
        self._name_ids = {n: i for i, n in enumerate(self.names)}
        self.absent: dict[str, str] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        for hook in HOOKS:
            found = _resolve(hook.target)
            if isinstance(found, str):
                self.absent[hook.metric] = found
                continue
            owner, attr, original = found
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            # a module function is also bound under its name in every
            # canring module that imported it, the package included
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "canring" and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))
        # spans: parallel arrays, one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        # per traced pass: [first span, end span, {counter: amount}]
        self.passes: list[list] = []
        self._counts: dict[str, int] = {}

    def _wrap(self, hook: Hook, original) -> Callable:
        counts_key = f"{hook.metric}.calls"
        extras = [(f"{hook.metric}.{suffix}", fn) for suffix, fn in hook.extra]
        if not hook.timed:
            def counted(*args, **kwargs):
                counts = self._counts
                counts[counts_key] = counts.get(counts_key, 0) + 1
                return original(*args, **kwargs)

            return counted
        name_id = self._name_ids[hook.metric]

        def spanned(*args, **kwargs):
            counts = self._counts
            counts[counts_key] = counts.get(counts_key, 0) + 1
            idx = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            for key, fn in extras:
                counts[key] = counts.get(key, 0) + fn(args, result)
            return result

        return spanned

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def item(self, job: Callable[[], object]) -> object:
        """Run one job as a root span; its spans share the root's index."""
        idx = self._open(0)
        try:
            return job()
        finally:
            self._close(idx)

    def start_pass(self) -> None:
        self._counts = {}
        self.passes.append([len(self.span_name), None, self._counts])
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def end_pass(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.passes[-1][1] = len(self.span_name)

    def pass_metrics(self, k: int) -> dict[str, float]:
        """Counts and self seconds per hook for the k-th traced pass."""
        lo, hi, counts = self.passes[k]
        child = [0.0] * (hi - lo)
        self_s = [0.0] * len(self.names)
        for i in range(hi - 1, lo - 1, -1):
            dur = self.span_end[i] - self.span_start[i]
            self_s[self.span_name[i]] += dur - child[i - lo]
            parent = self.span_parent[i]
            if parent >= lo:
                child[parent - lo] += dur
        out: dict[str, float] = dict(counts)
        for hook in HOOKS:
            if hook.metric in self.absent:
                continue
            out.setdefault(f"{hook.metric}.calls", 0)
            for suffix, _ in hook.extra:
                out.setdefault(f"{hook.metric}.{suffix}", 0)
            if hook.timed:
                out[f"{hook.metric}.self_s"] = self_s[self._name_ids[hook.metric]]
        return out

