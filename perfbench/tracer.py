"""Spans around the public functions of each noncong module.

A Tracer replaces each target function (or method) by one wrapper that
records a span: name, start, end, parent span and run id, plus a few
attributes the per-layer metrics need (cache keys, table sizes, verdicts).
The wrapper is installed in every noncong module namespace that holds the
original object, because modules bind each other's functions by name
(``congruence`` imports ``coefficient_sequence`` from ``catalog``) or look
them up through their own globals (``frobenius_trace`` -> ``fiber_trace_table``).
``restore`` puts every original back.  Spans stay in memory; the child
process writes them out once, when it ends.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict


def _fiber_attrs(args, kwargs, result):
    level, p, squared = args[:3]
    q = p * p if squared else p
    return {"key": [level, p, bool(squared), args[3] if len(args) > 3 else None],
            "p": p, "squared": bool(squared), "q": q,
            "nbytes": int(result[0].nbytes)}


def _basis_attrs(args, kwargs, result):
    bound = args[1] if len(args) > 1 else kwargs.get("bound", 501)
    return {"key": [args[0].name, bound]}


def _root_attrs(args, kwargs, result):
    # numerator bits are read when the process ends (see Tracer.export)
    return {"result": result}


def _detect_attrs(args, kwargs, result):
    return {"case": result.case_kind,
            "unmatched": sum(m is None for m in result.matches.values())}


# (span name, defining module, attribute path, attribute function)
TARGETS = (
    ("cli.main", "noncong.cli", "main", None),
    ("series.nth_root", "noncong.series", "PuiseuxSeries.nth_root", _root_attrs),
    ("series.eta_expansion", "noncong.series", "EtaQuotient.expansion", None),
    ("series.eisenstein_e6", "noncong.series", "eisenstein_e6", None),
    ("catalog.basis_q_expansions", "noncong.catalog", "basis_q_expansions", _basis_attrs),
    ("catalog.coefficient_sequence", "noncong.catalog", "coefficient_sequence", None),
    ("catalog.newform_an", "noncong.catalog", "newform_an", None),
    ("traces.fiber_trace_table", "noncong.traces", "fiber_trace_table", _fiber_attrs),
    ("traces.frobenius_trace", "noncong.traces", "frobenius_trace", None),
    ("traces.field_for", "noncong.traces", "field_for", None),
    ("traces.inv_table", "noncong.traces", "PrimeField.inv_table", None),
    ("traces.trace_rows", "noncong.traces", "trace_rows", None),
    ("congruence.detect_basis", "noncong.congruence", "detect_basis", _detect_attrs),
    ("congruence.reduce_mod_p2", "noncong.congruence", "reduce_mod_p2", None),
    ("surfaces.beauville_short", "noncong.surfaces", "beauville_short", None),
    ("surfaces.polynomial_resultant", "noncong.surfaces", "polynomial_resultant", None),
    ("surfaces.long_to_short", "noncong.surfaces", "long_to_short", None),
    ("surfaces.substitute_parameter", "noncong.surfaces", "substitute_parameter", None),
    ("surfaces.involution_identity_check", "noncong.surfaces", "involution_identity_check", None),
    ("surfaces.isogeny_relation_check", "noncong.surfaces", "isogeny_relation_check", None),
)


class Tracer:
    """Records spans [name, start, end, parent index, attrs] in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add_span(self, name: str, start: float, end: float):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def run(self, name: str, fn, *args, **kwargs):
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, attrs_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_fn is not None:
                span[4] = attrs_fn(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the names of those that
        do not in ``absent`` instead of failing."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "noncong" or n.startswith("noncong."))]
        for name, modname, path, attrs_fn in targets:
            module = sys.modules.get(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, attrs_fn)
            if owner is not module:           # a method: patch the class only
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        """The spans as plain JSON data, with the run id on every span."""
        out = []
        for name, start, end, parent, attrs in self.spans:
            if attrs and "result" in attrs:
                attrs = {"bits": _max_numerator_bits(attrs["result"])}
            out.append([name, start, end, parent, self.run_id, attrs])
        return {"spans": out, "absent": self.absent}


def _max_numerator_bits(series) -> int:
    return max((abs(c.numerator).bit_length() for c in series.coeffs), default=0)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_times(children) -> dict[str, float]:
    """Self time per layer (the span name's prefix), summed over processes."""
    out = defaultdict(float)
    for child in children:
        for (name, *_), own in zip(child["spans"], self_times(child["spans"])):
            out[name.split(".", 1)[0]] += own
    return dict(out)


def _fit_exponent(points) -> float | None:
    """Least-squares slope of log t against log p."""
    pts = [(math.log(p), math.log(t)) for p, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


SURFACES_SPANS = tuple(name for name, *_ in TARGETS if name.startswith("surfaces."))

# metric -> span names it needs.  A metric has no value when one of its
# spans was absent or none of them was called.
METRIC_SPANS = {
    "cli.import_s": ("cli.import",),
    "cli.main_self_s": ("cli.main",),
    "series.nth_root_s": ("series.nth_root",),
    "series.nth_root_calls": ("series.nth_root",),
    "series.eta_expansion_s": ("series.eta_expansion",),
    "series.eta_expansion_calls": ("series.eta_expansion",),
    "series.eisenstein_e6_s": ("series.eisenstein_e6",),
    "series.coeff_bits_max": ("series.nth_root",),
    "catalog.basis_q_expansions_s": ("catalog.basis_q_expansions",),
    "catalog.basis_q_expansions_calls": ("catalog.basis_q_expansions",),
    "catalog.basis_hit_ratio": ("catalog.basis_q_expansions",),
    "catalog.coefficient_sequence_s": ("catalog.coefficient_sequence",),
    "catalog.newform_an_s": ("catalog.newform_an",),
    "catalog.newform_an_calls": ("catalog.newform_an",),
    "traces.fiber_table_p2_s": ("traces.fiber_trace_table",),
    "traces.fiber_table_p_s": ("traces.fiber_trace_table",),
    "traces.fiber_table_calls": ("traces.fiber_trace_table",),
    "traces.fiber_table_hit_ratio": ("traces.fiber_trace_table",),
    "traces.fiber_pairs_per_s": ("traces.fiber_trace_table",),
    "traces.fiber_table_p2_exp": ("traces.fiber_trace_table",),
    "traces.fiber_table_p_exp": ("traces.fiber_trace_table",),
    "traces.frobenius_self_s": ("traces.frobenius_trace",),
    "traces.frobenius_calls": ("traces.frobenius_trace",),
    "traces.field_setup_s": ("traces.field_for", "traces.inv_table"),
    "traces.trace_rows_s": ("traces.trace_rows",),
    "traces.table_cache_bytes": ("traces.fiber_trace_table",),
    "congruence.detect_basis_s": ("congruence.detect_basis",),
    "congruence.detect_basis_calls": ("congruence.detect_basis",),
    "congruence.reduce_mod_p2_s": ("congruence.reduce_mod_p2",),
    "congruence.reduce_mod_p2_calls": ("congruence.reduce_mod_p2",),
    "congruence.case1": ("congruence.detect_basis",),
    "congruence.case2": ("congruence.detect_basis",),
    "congruence.indeterminate": ("congruence.detect_basis",),
    "congruence.unmatched": ("congruence.detect_basis",),
    "surfaces.self_s": SURFACES_SPANS,
}


def layer_metrics(children) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metrics of one traced pass.

    ``children`` holds one exported tracer record per child process.  Times
    are summed over processes (except the import, a per-process median);
    hit ratios are 1 - distinct keys / calls within each process.  Metrics
    without data (a target absent or never called, no F_p or no F_{p^2}
    table, too few table sizes for an exponent) come back as None and are
    named in the returned list.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    self_by = defaultdict(float)
    imports = []
    bits = 0
    distinct = defaultdict(int)
    cases = defaultdict(int)
    table_bytes = 0
    miss_pairs = miss_time = 0.0
    miss_time_by = defaultdict(float)         # (p, squared) -> seconds
    absent = set()
    for child in children:
        absent.update(child["absent"])
        spans = child["spans"]
        own = self_times(spans)
        keys = defaultdict(set)
        for (name, start, end, parent, _run, attrs), mine in zip(spans, own):
            dur = end - start
            calls[name] += 1
            self_by[name] += mine
            if name == "cli.import":
                imports.append(dur)
            if parent < 0 or spans[parent][0] != name:
                total[name] += dur
            if not attrs:
                continue
            if "bits" in attrs:
                bits = max(bits, attrs["bits"])
            if "case" in attrs:
                cases[attrs["case"]] += 1
                cases["unmatched"] += attrs["unmatched"]
            if "key" in attrs:
                key = tuple(attrs["key"])
                if key not in keys[name]:
                    keys[name].add(key)
                    distinct[name] += 1
                    if name == "traces.fiber_trace_table":
                        table_bytes += attrs["nbytes"]
                        miss_pairs += attrs["q"] ** 2
                        miss_time += dur
                        miss_time_by[(attrs["p"], attrs["squared"])] += dur
            if name == "traces.fiber_trace_table":
                total["fiber.p2" if attrs["squared"] else "fiber.p"] += dur

    def ratio(name):
        return 1.0 - distinct[name] / calls[name] if calls[name] else 0.0

    p2 = {p: t for (p, sq), t in miss_time_by.items() if sq}
    p2_exp = (math.log(p2[101] / p2[73]) / math.log(101 / 73)
              if p2.get(73) and p2.get(101) else None)
    p_points = [(p, t) for (p, sq), t in miss_time_by.items() if not sq and p >= 100]
    p_exp = _fit_exponent(p_points) if len(p_points) >= 3 else None
    imports.sort()
    metrics = {
        "cli.import_s": imports[len(imports) // 2] if imports else None,
        "cli.main_self_s": self_by["cli.main"],
        "series.nth_root_s": total["series.nth_root"],
        "series.nth_root_calls": calls["series.nth_root"],
        "series.eta_expansion_s": total["series.eta_expansion"],
        "series.eta_expansion_calls": calls["series.eta_expansion"],
        "series.eisenstein_e6_s": total["series.eisenstein_e6"],
        "series.coeff_bits_max": bits,
        "catalog.basis_q_expansions_s": total["catalog.basis_q_expansions"],
        "catalog.basis_q_expansions_calls": calls["catalog.basis_q_expansions"],
        "catalog.basis_hit_ratio": ratio("catalog.basis_q_expansions"),
        "catalog.coefficient_sequence_s": total["catalog.coefficient_sequence"],
        "catalog.newform_an_s": total["catalog.newform_an"],
        "catalog.newform_an_calls": calls["catalog.newform_an"],
        "traces.fiber_table_p2_s": total.get("fiber.p2"),
        "traces.fiber_table_p_s": total.get("fiber.p"),
        "traces.fiber_table_calls": calls["traces.fiber_trace_table"],
        "traces.fiber_table_hit_ratio": ratio("traces.fiber_trace_table"),
        "traces.fiber_pairs_per_s": miss_pairs / miss_time if miss_time else None,
        "traces.fiber_table_p2_exp": p2_exp,
        "traces.fiber_table_p_exp": p_exp,
        "traces.frobenius_self_s": self_by["traces.frobenius_trace"],
        "traces.frobenius_calls": calls["traces.frobenius_trace"],
        "traces.field_setup_s": total["traces.field_for"] + total["traces.inv_table"],
        "traces.trace_rows_s": total["traces.trace_rows"],
        "traces.table_cache_bytes": table_bytes,
        "congruence.detect_basis_s": total["congruence.detect_basis"],
        "congruence.detect_basis_calls": calls["congruence.detect_basis"],
        "congruence.reduce_mod_p2_s": total["congruence.reduce_mod_p2"],
        "congruence.reduce_mod_p2_calls": calls["congruence.reduce_mod_p2"],
        "congruence.case1": cases["case1"],
        "congruence.case2": cases["case2"],
        "congruence.indeterminate": cases["indeterminate"],
        "congruence.unmatched": cases["unmatched"],
        "surfaces.self_s": sum(t for n, t in self_by.items()
                               if n.startswith("surfaces.")),
    }
    missing = sorted(m for m, needs in METRIC_SPANS.items()
                     if any(n in absent for n in needs) or metrics[m] is None
                     or not any(calls[n] for n in needs))
    for m in missing:
        metrics[m] = None
    return metrics, missing
