"""Self-checks of the benchmark's tracer: on tiny inputs every wrapped name
records calls, names other modules bound at import are wrapped too, and
wrapping changes no output.

    python3 -m pytest bench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import qslice  # noqa: E402
import qslice.cli  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_CORPUS = (
    ("certify-slice3", "--q", "1999/1000", "--depth", "16", "--level", "14"),
    ("thickness", "--q", "1999/1000", "--set", "sk:9", "--level", "4"),
    ("thickness", "--q", "1999/1000", "--set", "aq", "--level", "14"),
    ("bonacci", "verify", "--k", "3", "--m", "1"),
    ("bonacci", "null", "--k", "3"),
    ("bonacci", "c2", "--q", workloads.TWO_ORBIT),
    ("dimension", "--q", "3/2", "--y", "1/3", "--method", "mass", "--levels", "2"),
    ("dimension", "--q", "3/2", "--y", "1/3", "--method", "box", "--levels", "2"),
    ("slice", "--q", "5/3", "--y", "3/8", "--depth", "12"),
)


def tiny_outputs():
    """CLI verdicts and one decision per sweep kind, as comparable values."""
    out = [workloads.cli_in_process(ROOT, argv)[:2] for argv in TINY_CORPUS]
    rational = workloads.decide(
        workloads.SPECS["rational-sweep"],
        qslice.AlgebraicNumber.from_rational(Fraction(3, 2)), Fraction(1, 3), "3/2")
    algebraic = workloads.decide(
        workloads.SweepSpec(depth=16, max_cylinders=4096),
        qslice.bonacci_root(4), Fraction(4, 9), "bonacci:4")
    return out + [rational[1], algebraic[1]]


@pytest.fixture(scope="module")
def traced_run():
    plain = tiny_outputs()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tiny_outputs()
    finally:
        tracer.uninstall()
    return plain, wrapped, tracer


def test_every_wrapped_name_records_calls(traced_run):
    _, _, tracer = traced_run
    spans = tracer.span_totals()
    for _, _, name in tracing.SPANS:
        assert spans[name]["count"] > 0, name
    for *_, name in tracing.COUNTERS:
        assert tracer.calls[name] > 0, name


def test_calls_through_import_time_bindings_are_traced(traced_run):
    _, _, tracer = traced_run
    parents = set()
    for name, _, _, parent in tracer.spans:
        if parent >= 0:
            parents.add((tracer.spans[parent][0], name))
    # slices.ternary_branch_system, slices.unique_orbit_check,
    # thickness.compute_slice and cli.newhouse_certify
    assert ("slices.compute_slice", "dynamics.branch_system") in parents
    assert ("slices.compute_slice", "dynamics.unique_orbit_check") in parents
    assert ("thickness.find_slice3_witness", "slices.compute_slice") in parents
    assert ("cli.run", "thickness.newhouse_certify") in parents


def test_wrapping_changes_no_output(traced_run):
    plain, wrapped, _ = traced_run
    assert wrapped == plain


def test_uninstall_restores_every_binding():
    originals = {
        "slices.ternary_branch_system": qslice.slices.ternary_branch_system,
        "cli.newhouse_certify": qslice.cli.newhouse_certify,
        "FieldElement.__mul__": qslice.FieldElement.__dict__["__mul__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qslice.slices.ternary_branch_system is not originals["slices.ternary_branch_system"]
        assert qslice.cli.newhouse_certify is not originals["cli.newhouse_certify"]
        # __rmul__ aliases __mul__ and shares its wrapper
        assert qslice.FieldElement.__dict__["__rmul__"] is qslice.FieldElement.__dict__["__mul__"]
    finally:
        tracer.uninstall()
    assert qslice.slices.ternary_branch_system is originals["slices.ternary_branch_system"]
    assert qslice.cli.newhouse_certify is originals["cli.newhouse_certify"]
    assert qslice.FieldElement.__dict__["__mul__"] is originals["FieldElement.__mul__"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals = tracer.span_totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer["self_s"] == pytest.approx(outer["inclusive_s"] - inner["inclusive_s"])


def test_gate_accepts_honest_verdicts_and_rejects_broken_ones(traced_run):
    plain, _, _ = traced_run
    certify_argv, verify_argv = TINY_CORPUS[0], TINY_CORPUS[3]
    (certify_rc, certify_out), (_, verify_out) = plain[0], plain[3]
    assert certify_rc == 0
    # an uncertified claim is reported, not gated; an honest exit 2 passes
    assert workloads.claims_certified(certify_out)[1] == 1
    assert workloads.check_cli(certify_argv, 0, certify_out) == []
    assert workloads.check_cli(certify_argv, 2, certify_out) == []
    assert workloads.check_cli(certify_argv, 1, certify_out) != []

    lines = certify_out.decode().splitlines()
    tampered = lines[-1].replace('"relation":"lt"', '"relation":"eq"', 1)
    assert tampered != lines[-1]
    bad_cert = "\n".join(lines[:-1] + [tampered]).encode()
    assert workloads.check_cli(certify_argv, 0, bad_cert) != []

    assert workloads.check_cli(verify_argv, 0, verify_out) == []
    wrong_m = verify_argv[:-1] + ("2",)
    assert workloads.check_cli(wrong_m, 0, verify_out) != []


def test_absorb_nests_a_child_process_trace_under_the_open_span(tmp_path):
    child = tracing.Tracer()
    with child.span("cli.run"):
        with child.span("slices.compute_slice"):
            pass
    child.calls["algebraic.sub"] += 2
    child.dump(tmp_path / "child.json")

    parent = tracing.Tracer()
    with parent.span("bench.verdict"):
        parent.absorb(json.loads((tmp_path / "child.json").read_text()))
    nesting = [(name, parent.spans[p][0] if p >= 0 else None) for name, _, _, p in parent.spans]
    assert nesting == [("bench.verdict", None), ("cli.run", "bench.verdict"),
                       ("slices.compute_slice", "cli.run")]
    assert parent.calls["algebraic.sub"] == 2
