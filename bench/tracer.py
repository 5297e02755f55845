"""Layer tracing from outside the program.

The tracer wraps public functions of the ``qslice`` modules. Each wrapped
function becomes a span (name, start, end, parent) kept in memory; the hot
arithmetic methods, called millions of times, get a call count and an
inclusive time instead. Wrapping is by identity: every ``qslice`` module
attribute that is the original function object is replaced, so names that
one module imported from another at import time are traced too.

``install()`` patches, ``uninstall()`` restores. Nothing in the program is
edited; without ``install()`` the program runs untouched.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

RETRY_EPS = Fraction(1, 10**60)  # the tightened eps of exact_check's retry

# (module, function, span name). The span name is what per-layer metrics use.
SPANS = (
    ("algebraic", "algebraic_from_poly", "algebraic.from_poly"),
    ("dynamics", "ternary_branch_system", "dynamics.branch_system"),
    ("dynamics", "unique_orbit_check", "dynamics.unique_orbit_check"),
    ("dynamics", "enumerate_orbits", "dynamics.enumerate_orbits"),
    ("slices", "compute_slice", "slices.compute_slice"),
    ("slices", "geometric_slice_oracle", "slices.oracle"),
    ("slices", "slice_matches_oracle", "slices.matches"),
    ("certificates", "exact_check", "certificates.exact_check"),
    ("certificates", "bracket", "certificates.bracket"),
    ("certificates", "verify", "certificates.verify"),
    ("thickness", "enumerate_gaps", "thickness.enumerate_gaps"),
    ("thickness", "newhouse_certify", "thickness.newhouse_certify"),
    ("thickness", "find_slice3_witness", "thickness.find_slice3_witness"),
    ("bonacci", "verify_odd_cardinality", "bonacci.verify_odd_cardinality"),
    ("bonacci", "null_infinite_probe", "bonacci.null_infinite_probe"),
    ("bonacci", "c2_probe", "bonacci.c2_probe"),
    ("dimension", "estimate_M", "dimension.estimate_M"),
    ("dimension", "build_r_tree", "dimension.build_r_tree"),
    ("words", "project_q", "words.project_q"),
    ("cli", "run", "cli.run"),
)

# (module, class or None, attribute names, counter name)
COUNTERS = (
    ("algebraic", "FieldElement", ("__sub__", "__rsub__"), "algebraic.sub"),
    ("algebraic", "FieldElement", ("__mul__", "__rmul__"), "algebraic.mul"),
    ("algebraic", "FieldElement", ("inverse",), "algebraic.inverse"),
    ("algebraic", "FieldElement", ("sign",), "algebraic.sign"),
    ("algebraic", "FieldElement", ("to_interval",), "algebraic.refine"),
    ("algebraic", "AlgebraicNumber", ("refine_to",), "algebraic.refine"),
    ("algebraic", None, ("compare_reals",), "algebraic.compare_reals"),
    ("dynamics", "ExpansionSystem", ("applicable",), "dynamics.applicable"),
)


def _observe(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Facts read off a wrapped call's arguments and result."""
    tally = tracer.tally
    if name == "slices.compute_slice":
        tally["slices.cylinders"] += len(result.cylinders)
        tally["slices.truncated"] += result.truncated
        tally["slices.certified"] += result.claim.certified is True
    elif name == "slices.oracle":
        tally["slices.oracle_boxes"] += len(result)
    elif name == "dynamics.unique_orbit_check":
        tally["dynamics.unique_certified"] += result.status.value == "UniqueCertified"
    elif name == "certificates.bracket":
        eps = args[1] if len(args) > 1 else kwargs.get("eps")
        tally["certificates.bracket_retries"] += eps == RETRY_EPS
    elif name == "thickness.enumerate_gaps":
        tally["thickness.gaps"] += len(result.gaps)
    elif name == "thickness.newhouse_certify":
        tally["thickness.checks"] += len(result.checks)


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.time_s: dict[str, float] = defaultdict(float)
        self.tally: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around one of the benchmark's own steps."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _observe(self, name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        # calls and time count only the outermost call of a name, so that
        # __rsub__ delegating to __sub__ is one subtraction, not two
        depth = [0]
        calls, time_s = self.calls, self.time_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                time_s[name] += perf_counter() - start
                calls[name] += 1
                depth[0] = 0

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qslice.cli  # noqa: F401  (loads every module that binds names)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qslice" or n.startswith("qslice."))]
        for mod, fn_name, name in SPANS:
            original = getattr(sys.modules[f"qslice.{mod}"], fn_name)
            self._replace_everywhere(modules, original, self._span_wrapper(name, original))
        for mod, cls_name, attrs, name in COUNTERS:
            owner = sys.modules[f"qslice.{mod}"]
            if cls_name is None:
                original = getattr(owner, attrs[0])
                self._replace_everywhere(modules, original, self._count_wrapper(name, original))
                continue
            cls = getattr(owner, cls_name)
            # one wrapper per distinct function, shared by its aliases
            # (__rmul__ is __mul__), so the depth guard sees both
            wrappers: dict[int, object] = {}
            for attr in attrs:
                original = cls.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._count_wrapper(name, original)
                self._patch(cls, attr, wrappers[id(original)])

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds, and self seconds (duration
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _), inner in zip(self.spans, child_time):
            t = totals[name]
            t["count"] += 1
            t["inclusive_s"] += end - start
            t["self_s"] += end - start - inner
        return totals

    def absorb(self, data: dict) -> None:
        """Add what another process's tracer dumped, under the open span."""
        offset, parent = len(self.spans), self._stack[-1] if self._stack else -1
        for s in data["spans"]:
            self.spans.append([s["name"], s["start"], s["end"],
                               s["parent"] + offset if s["parent"] >= 0 else parent])
        for mine, theirs in ((self.calls, data["calls"]), (self.time_s, data["time_s"]),
                             (self.tally, data["tally"])):
            for name, value in theirs.items():
                mine[name] += value

    def dump(self, path) -> None:
        """Write every span, the counters and the tallies as one JSON file."""
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "calls": dict(self.calls),
                    "time_s": dict(self.time_s),
                    "tally": dict(self.tally),
                },
                f,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, corpus_ids, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``extra`` supplies what the tracer cannot see: ``cli.import_s``,
    ``cli.output_bytes``, ``trace.overhead_s`` and ``cli.<entry>.wall_s``.
    Layers a workload does not load read zero."""
    spans = tracer.span_totals()
    calls, time_s, tally = tracer.calls, tracer.time_s, tracer.tally

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def count(name):
        return spans[name]["count"] if name in spans else 0

    def incl(name):
        return spans[name]["inclusive_s"] if name in spans else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in ("sub", "mul", "inverse", "sign", "refine"):
        m[f"algebraic.{op}.calls"] = (calls[f"algebraic.{op}"], "count")
        m[f"algebraic.{op}.time_s"] = (time_s[f"algebraic.{op}"], "s")
    m["algebraic.compare_reals.calls"] = (calls["algebraic.compare_reals"], "count")
    m["algebraic.from_poly.time_s"] = (incl("algebraic.from_poly"), "s")

    m["dynamics.branch_system.builds"] = (count("dynamics.branch_system"), "count")
    m["dynamics.branch_system.time_s"] = (incl("dynamics.branch_system"), "s")
    m["dynamics.applicable.calls"] = (calls["dynamics.applicable"], "count")
    m["dynamics.applicable.time_s"] = (time_s["dynamics.applicable"], "s")
    probes = count("dynamics.unique_orbit_check")
    m["dynamics.unique_orbit_check.calls"] = (probes, "count")
    m["dynamics.unique_orbit_check.self_s"] = (self_s("dynamics.unique_orbit_check"), "s")
    m["dynamics.unique_orbit_check.certified_ratio"] = (
        _ratio(tally["dynamics.unique_certified"], probes), "ratio")
    m["dynamics.enumerate_orbits.self_s"] = (self_s("dynamics.enumerate_orbits"), "s")

    slices = count("slices.compute_slice")
    m["slices.compute_slice.self_s"] = (self_s("slices.compute_slice"), "s")
    m["slices.oracle.self_s"] = (self_s("slices.oracle"), "s")
    m["slices.matches.self_s"] = (self_s("slices.matches"), "s")
    m["slices.cylinders"] = (tally["slices.cylinders"], "count")
    m["slices.oracle_boxes"] = (tally["slices.oracle_boxes"], "count")
    m["slices.truncated_ratio"] = (_ratio(tally["slices.truncated"], slices), "ratio")
    m["slices.certified_ratio"] = (_ratio(tally["slices.certified"], slices), "ratio")

    checks = count("certificates.exact_check")
    m["certificates.exact_check.calls"] = (checks, "count")
    m["certificates.exact_check.self_s"] = (self_s("certificates.exact_check"), "s")
    m["certificates.exact_check.retry_ratio"] = (
        _ratio(tally["certificates.bracket_retries"], checks), "ratio")
    m["certificates.bracket.calls"] = (count("certificates.bracket"), "count")
    m["certificates.bracket.self_s"] = (self_s("certificates.bracket"), "s")
    m["certificates.verify.self_s"] = (self_s("certificates.verify"), "s")

    m["thickness.enumerate_gaps.self_s"] = (self_s("thickness.enumerate_gaps"), "s")
    m["thickness.gaps"] = (tally["thickness.gaps"], "count")
    m["thickness.newhouse_certify.self_s"] = (self_s("thickness.newhouse_certify"), "s")
    m["thickness.checks"] = (tally["thickness.checks"], "count")
    m["thickness.find_slice3_witness.self_s"] = (self_s("thickness.find_slice3_witness"), "s")

    for fn in ("verify_odd_cardinality", "null_infinite_probe", "c2_probe"):
        m[f"bonacci.{fn}.self_s"] = (self_s(f"bonacci.{fn}"), "s")
    for fn in ("estimate_M", "build_r_tree"):
        m[f"dimension.{fn}.self_s"] = (self_s(f"dimension.{fn}"), "s")
    m["words.project_q.calls"] = (count("words.project_q"), "count")
    m["words.project_q.self_s"] = (self_s("words.project_q"), "s")

    m["cli.import_s"] = (extra["cli.import_s"], "s")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")
    m["cli.output_bytes"] = (extra.get("cli.output_bytes", 0), "bytes")
    for entry in corpus_ids:
        m[f"cli.{entry}.wall_s"] = (extra.get(f"cli.{entry}.wall_s", 0.0), "s")
    m["trace.overhead_s"] = (extra["trace.overhead_s"], "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
