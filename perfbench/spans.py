"""In-memory span tracer for bellpoly's coarse entry points.

The tracer wraps public functions of the ``bellpoly`` modules from the
outside: every module attribute that is one of the listed functions is
replaced by a wrapper while tracing is installed and restored afterwards,
so both ``module.f()`` calls and names imported with ``from .m import f``
are caught.  Spans ``(name, start, end, parent, job)`` are kept in memory;
the runner writes them out when it ends.  ``wrapper_cost`` measures what
one span adds to a call.

Only coarse entry points are wrapped.  Per-row helpers such as
``canonicalize`` or ``clear_denominators`` run thousands of times per job
and would make the tracing cost larger than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_lp(counts, args, res):
    counts["lp.calls"] += 1
    if res.status in ("optimal", "infeasible"):
        counts[f"lp.{res.status}"] += 1


def _count_dd(counts, args, res):
    counts["facets.dd_calls"] += 1
    counts["facets.facets_out"] += len(res.facets)


def _count_labels(counts, args, res):
    labels, reps = res
    counts["symmetry.label_calls"] += 1
    counts["symmetry.items_labelled"] += len(labels)
    counts["symmetry.classes"] += len(reps)


def _count_membership(counts, args, res):
    counts["membership.queries"] += 1
    counts["membership.local" if res.local else "membership.nonlocal"] += 1


def _count_rank(counts, args, res):
    counts["linalg.rank_calls"] += 1
    rows = args[0]
    if hasattr(rows, "__len__"):
        counts["linalg.rows_in"] += len(rows)


def _calls(key):
    def count(counts, args, res):
        counts[key] += 1
    return count


# (layer, module, function names, counter).  A call into a layer from
# inside the same layer (rank -> int_rank, nullspace -> rref) stays in the
# outer span and is not counted again.
LAYERS = (
    ("lp", "bellpoly.lp", ("lp_max",), _count_lp),
    ("facets.dd", "bellpoly.facets", ("enumerate_facets",), _count_dd),
    ("facets.trivial", "bellpoly.facets", ("classify_trivial",), _calls("facets.trivial_calls")),
    ("facets.saturation", "bellpoly.facets", ("saturation_count",), _calls("facets.saturation_calls")),
    ("symmetry.label", "bellpoly.symmetry", ("label_classes",), _count_labels),
    ("symmetry.equivalent", "bellpoly.symmetry", ("equivalent",), _calls("symmetry.equivalent_calls")),
    ("membership", "bellpoly.membership", ("local_decompose", "corr_local_decompose"), _count_membership),
    ("linalg.rank", "bellpoly.linalg", ("int_rank", "rank", "affine_dim"), _count_rank),
    ("linalg.elim", "bellpoly.linalg", ("rref", "nullspace"), _calls("linalg.elim_calls")),
    ("cglmp.verify", "bellpoly.cglmp", ("verify_condition1",), _calls("cglmp.verify_calls")),
    ("cglmp.tightness", "bellpoly.cglmp", ("tightness_rank",), _calls("cglmp.tightness_calls")),
    ("cglmp.witness", "bellpoly.cglmp", ("constructive_witness",), _calls("cglmp.witness_calls")),
    ("scenario", "bellpoly.scenario",
     ("all_generators", "all_strategies", "generator_matrix", "constraint_matrix"), None),
    ("correlators", "bellpoly.correlators",
     ("projected_generators", "projected_generator_matrix", "project", "lift", "corr_affine_dim"), None),
)


class Tracer:
    """Collects spans and counters for the jobs run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.counts: defaultdict[object, Counter] = defaultdict(Counter)  # per job id
        self.job = None
        self._stack: list[tuple[str, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append((name, idx))
        return idx, parent, perf_counter()

    def _leave(self, name, idx, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.job)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the runner around one job."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._leave(name, *state)

    def _wrap(self, layer, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._stack and tracer._stack[-1][0] == layer:
                return fn(*args, **kwargs)
            state = tracer._enter(layer)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._leave(layer, *state)
            if count is not None:
                count(tracer.counts[tracer.job], args, res)
            return res

        return wrapper

    def install(self):
        """Wrap every listed function wherever a bellpoly module holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bellpoly" or name.startswith("bellpoly."))]
        for layer, module_name, names, count in LAYERS:
            home = sys.modules[module_name]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[object, dict[str, float]]:
        """Per job id and span name: total duration minus the time the
        span's direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: defaultdict[object, dict[str, float]] = defaultdict(dict)
        for i, (name, start, end, _parent, job) in enumerate(self.spans):
            out[job][name] = out[job].get(name, 0.0) + (end - start) - child[i]
        return dict(out)

    def job_counters(self) -> dict[object, dict[str, int]]:
        """Per job id: its counters plus the number of spans of each name."""
        out = {job: Counter(c) for job, c in self.counts.items()}
        for name, _start, _end, _parent, job in self.spans:
            out.setdefault(job, Counter())[f"spans.{name}"] += 1
        return {job: dict(c) for job, c in out.items()}


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds: a wrapped no-op minus the bare no-op,
    per call, median over repeats, on a tracer of its own."""
    def noop(*args):
        return None

    tracer = Tracer()
    tracer.job = 0
    wrapped = tracer._wrap("probe", noop, _calls("probe.calls"))
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)
