"""Outside-in tracing of cyclecodes layers.

A traced pass replaces public functions at the module attribute where
their caller looks them up (``cli.enumerate_toric_set``,
``codes.rank_table``, ``hilbert.footprint_by_degree``,
``poly.multivariate_divide``, ...) with wrappers that record one span
(name, start, end, parent, job) per call and count calls and work.
The originals are restored when the pass ends.  A layer's self time is
its spans' time minus the time of their direct child spans.

The work counts are derived from each call's arguments and result, so
they give the size of the work the call was asked to do, not what the
program did inside: ``hilbert.union_terms`` is the 2^C(k, gamma) - 1
inclusion-exclusion terms per union-formula call and ``codes.messages``
is the q^dim - 1 messages of an exact minimum-distance search.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _points(args, kwargs, result):
    return {"cyclegraph.points": len(result)}


def _generators(args, kwargs, result):
    return {"ideal.generators": len(result)}


def _entries(args, kwargs, result):
    rows, cols = result.shape
    return {"codes.matrix_entries": rows * cols}


def _messages(args, kwargs, result):
    if result.min_distance is None:
        return {}
    return {"codes.messages": result.q ** result.dimension - 1}


def _union_terms(args, kwargs, result):
    k = args[0] if args else kwargs["k"]
    return {"hilbert.union_terms": 2 ** comb(k, (k - 1) // 2) - 1}


# (module name, attribute, layer name, work counter)
TARGETS = [
    ("cli", "field_new", "gf.field_new", None),
    ("cli", "enumerate_toric_set", "cyclegraph.enumerate_toric_set",
     _points),
    ("cli", "enumerated_cardinality", "cyclegraph.enumerated_cardinality",
     None),
    ("cli", "build_generators", "ideal.build_generators", _generators),
    ("cli", "buchberger_is_groebner", "poly.buchberger_is_groebner", None),
    ("poly", "multivariate_divide", "poly.multivariate_divide", None),
    ("codes", "rank_table", "codes.rank_table", None),
    ("codes", "code_params", "codes.code_params", _messages),
    ("codes", "build_evaluation_matrix", "codes.build_evaluation_matrix",
     _entries),
    ("hilbert", "footprint_by_degree", "hilbert.footprint_by_degree", None),
    ("hilbert", "hilbert_union_formula", "hilbert.hilbert_union_formula",
     _union_terms),
    ("hilbert", "solve_betas", "hilbert.solve_betas", None),
    ("hilbert", "degenerate_torus_hilbert",
     "hilbert.degenerate_torus_hilbert", None),
]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, work=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "job": self.job,
                    "parent": stack[-1] if stack else None,
                    "start": perf_counter(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = perf_counter()
            counts[name + ".calls"] += 1
            if work is not None:
                try:
                    counts.update(work(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a later program changed the call or its result;
                    # the job must not fail for the benchmark's sake
                    counts[name + ".uncounted"] += 1
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every target that exists in ``modules`` (name -> module);
        a target a later version of the program lacks is skipped."""
        saved = []
        try:
            for mod_name, attr, name, work in TARGETS:
                mod = modules[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, work))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per layer name."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)
