import json
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qslice.cli import MAX_BOX_PATHS, MAX_TREE_DEPTH, MAX_TREE_LEAVES, parse_number, run
from qslice.algebraic import bonacci_root, compare_reals, Ordering


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


def records(lines):
    return [json.loads(l) for l in lines]


def test_parse_number_forms():
    assert parse_number("3/2").rational_value.numerator == 3
    assert parse_number("1.5").rational_value.denominator == 2
    q3 = parse_number("bonacci:3")
    assert compare_reals(q3, bonacci_root(3)) == Ordering.Equal
    qs = parse_number("algebraic:1,-2,-1,1:3/2:19/10")
    g = qs.gen()
    assert g**3 - g**2 - 2 * g + 1 == 0


def test_algebraic_literal_clears_rational_denominators(capsys):
    # 2x^2 - 2x - 3, root (1 + sqrt 7) / 2, written with halves: the
    # coefficients are scaled to integers, not truncated to x^2 - x - 1
    assert parse_number("algebraic:-3/2,-1,1:1:2").min_poly == (-3, -2, 2)
    argv = ["slice", "--y", "1/3", "--depth", "6", "--q"]
    halves = invoke(capsys, argv + ["algebraic:-3/2,-1,1:1:2"])
    assert halves == invoke(capsys, argv + ["algebraic:-3,-2,2:1:2"])
    lo, hi = map(Fraction, json.loads(halves[1][0])["q"])
    assert Fraction(182, 100) < lo < hi < Fraction(183, 100)


def test_parse_number_rejects_garbage():
    from qslice.cli import InputError

    with pytest.raises(InputError):
        parse_number("three halves")
    with pytest.raises(InputError):
        parse_number("algebraic:1,2")


def test_slice_command_single_point(capsys):
    code, lines = invoke(
        capsys, ["slice", "--q", "5/3", "--y", "3/8", "--depth", "24"]
    )
    assert code == 0
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["claim"] == {"type": "ExactlyN", "n": 1, "certified": True}
    assert isinstance(rec["cylinders"], list) and len(rec["cylinders"]) == 1
    assert rec["cylinders"][0].startswith("0202")
    assert rec["depth"] == 24
    assert rec["q"] == ["5/3", "5/3"] and rec["y"] == ["3/8", "3/8"]


def test_slice_oracle_cross_check(capsys):
    code, lines = invoke(
        capsys,
        ["slice", "--q", "5/3", "--y", "3/8", "--depth", "8", "--oracle"],
    )
    rec = json.loads(lines[0])
    assert rec["oracle"]["agrees"]
    assert rec["oracle"]["boxes"] >= len(rec["cylinders"])


def test_slice_oracle_not_run_after_truncation(capsys, monkeypatch):
    # at 3/2, y = 1/2 the walk outgrows the default cap at depth 15, so there
    # is no frontier at depth 16 to check: the oracle is not run and the run
    # exits 2, as it cannot stand on a cross-check that was not made
    from qslice import cli

    calls = []

    def oracle(*args):
        calls.append(args)
        return geometric_slice_oracle(*args)

    geometric_slice_oracle = cli.geometric_slice_oracle
    monkeypatch.setattr(cli, "geometric_slice_oracle", oracle)
    code, lines = invoke(capsys, ["slice", "--q", "3/2", "--y", "1/2", "--depth", "16", "--oracle"])
    rec = json.loads(lines[0])
    assert rec["truncated"] and len(rec["cylinders"][0]) < 16
    assert rec["oracle"] is None and code == 2 and not calls
    # a walk that reaches --depth is still checked
    code, lines = invoke(capsys, ["slice", "--q", "3/2", "--y", "1/2", "--depth", "12", "--oracle"])
    assert json.loads(lines[0])["oracle"] == {"agrees": True, "boxes": 1237} and len(calls) == 1


def test_slice_command_unknown_when_truncated(capsys):
    code, lines = invoke(
        capsys,
        [
            "slice", "--q", "3/2", "--y", "1/2",
            "--depth", "10", "--max-cylinders", "4",
        ],
    )
    rec = json.loads(lines[0])
    assert rec["truncated"] or rec["claim"]["type"] == "UncountablePattern"
    if rec["claim"]["type"] == "Unknown":
        assert code == 2


def _leaf_count(node, depth):
    if depth == 0:
        return 1
    return sum(_leaf_count(c, depth - 1) for c in node["children"])


def test_orbit_tree_command(capsys):
    # x0 = y/(q-1), so height 1/6 at q=3/2 probes the point 1/3
    code, lines = invoke(
        capsys, ["orbit-tree", "--q", "3/2", "--y", "1/6", "--depth", "6"]
    )
    assert code == 0
    assert len(lines) == 2
    head = json.loads(lines[0])
    assert head["alive"] == 11
    tree = json.loads(lines[1])
    assert set(tree) == {"label", "point_interval", "children"}
    assert tree["label"] is None
    assert tree["point_interval"] == ["1/3", "1/3"]
    assert all(c["label"] in (0, 1, 2) for c in tree["children"])
    assert _leaf_count(tree, 6) == 11


def test_thickness_gap_listing(capsys):
    code, lines = invoke(
        capsys,
        ["thickness", "--q", "1999/1000", "--set", "aq", "--level", "16"],
    )
    assert code == 0
    head = json.loads(lines[0])
    assert head["set"] == "aq" and head["level"] == 16
    laws = [json.loads(line) for line in lines[1:]]
    # free positions 11 and 13 lie below level 16: one gap, then two
    assert [(law["free_position"], law["count"]) for law in laws] == [(11, 1), (13, 2)]
    assert head["gap_count"] == 3
    assert head["thickness_lower_bound"] is not None
    assert set(laws[0]) == {
        "command", "free_position", "level", "count", "left", "right", "size",
        "bridge_lower_bound",
    }

    code, lines = invoke(
        capsys,
        ["thickness", "--q", "1999/1000", "--set", "scaled-sk:9", "--level", "8"],
    )
    assert code == 0
    assert json.loads(lines[0])["k"] == 9

    code, _ = invoke(
        capsys, ["thickness", "--q", "1999/1000", "--set", "nope", "--level", "8"]
    )
    assert code == 1


@pytest.mark.parametrize("spec", ["sk:9", "scaled-sk:9"])
def test_thickness_without_gaps_does_not_walk(capsys, monkeypatch, spec):
    # at 19/10 the k = 9 analysis has no gap, so no state's bridge is read
    # and no law is built
    from qslice.thickness import ShiftSetAnalysis

    def walked(*args):
        raise AssertionError("a bridge was read")

    monkeypatch.setattr(ShiftSetAnalysis, "bridge", walked)
    code, lines = invoke(capsys, ["thickness", "--q", "19/10", "--set", spec])
    assert code == 0 and len(lines) == 1
    head = json.loads(lines[0])
    assert head["level"] == 40 and head["gap_count"] == 0
    assert head["thickness_lower_bound"] is None


def test_thickness_prints_one_line_per_law(capsys):
    # 9 free positions below level 30 at bonacci:12 stand for 511 gaps
    code, lines = invoke(capsys, ["thickness", "--q", "bonacci:12", "--set", "aq", "--level", "30"])
    assert code == 0
    head, laws = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert [law["count"] for law in laws] == [2**i for i in range(9)]
    assert head["gap_count"] == 511

    # 17 of the 19 follower states have a gap; no cap cuts the count
    code, lines = invoke(capsys, ["thickness", "--q", "1999/1000", "--set", "sk:9", "--level", "16"])
    assert code == 0
    head, laws = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert len(laws) == len({law["state"] for law in laws}) == 17
    assert head["gap_count"] == sum(law["count"] for law in laws) == 64639
    assert len("\n".join(lines)) < 20_000


def test_certify_slice3_command(capsys):
    code, lines = invoke(
        capsys,
        ["certify-slice3", "--q", "1999/1000", "--depth", "48", "--level", "30"],
    )
    # exit 0 rests on the verified certificate; the witness height's walk
    # keeps three separated groups, which proves at least three points
    assert code == 0
    head = json.loads(lines[0])
    assert head["claim"] == {"type": "AtLeastN", "n": 3, "certified": None}
    assert head["intersection_verified"] is True and head["failures"] == []
    assert len(head["cylinders"]) == 3
    lo, hi = head["witness_interval"]
    from fractions import Fraction as F

    assert 0 < F(lo) <= F(hi) < 1
    cert = json.loads(lines[1])["certificate"]
    assert cert["claim"] == "thick-linked-intersection"
    assert {"claim", "hypotheses", "witness_interval", "level", "depth"} <= set(cert)


@pytest.mark.parametrize("fault", ["certificate", "witness"])
def test_certify_slice3_exit_needs_certificate_and_three_groups(capsys, monkeypatch, fault):
    # exit 0 needs both a verified certificate and a witness reading n = 3
    from dataclasses import replace

    from qslice import cli
    from qslice.slices import at_least

    if fault == "certificate":
        monkeypatch.setattr(cli, "verify", lambda cert: ["a check fails"])
    else:
        search = cli.find_slice3_witness

        def two_groups(q, depth):
            height, res = search(q, depth=depth)
            return height, replace(res, claim=at_least(2))

        monkeypatch.setattr(cli, "find_slice3_witness", two_groups)
    code, lines = invoke(
        capsys,
        ["certify-slice3", "--q", "1999/1000", "--depth", "30", "--level", "12"],
    )
    head = json.loads(lines[0])
    assert code == 2
    assert head["intersection_verified"] is (fault != "certificate")
    assert head["claim"]["n"] == (2 if fault == "witness" else 3)


def test_certify_slice3_without_free_position_exits_two(capsys):
    # the first free position at 1999/1000 is 11: no gap below level 11
    code, lines = invoke(
        capsys,
        ["certify-slice3", "--q", "1999/1000", "--depth", "20", "--level", "11"],
    )
    assert code == 2
    assert lines == ['{"error":"no gaps enumerated"}']


def test_bonacci_verify_command(capsys):
    code, lines = invoke(
        capsys,
        [
            "bonacci", "verify", "--k", "3", "--m", "2",
            "--delta", "(01)*", "--depth", "60",
        ],
    )
    assert code == 0
    head = json.loads(lines[0])
    assert head["count"] == 5 and head["verified"]
    assert head["delta"] == "(01)*"
    cert = json.loads(lines[1])["certificate"]
    assert cert["claim"] == "odd-orbit-count"


@pytest.mark.parametrize(
    "argv",
    [["bonacci", "verify", "--k", "3", "--m", "1"], ["bonacci", "null", "--k", "3"]],
    ids=["verify", "null"],
)
def test_bonacci_exit_needs_a_verified_certificate(capsys, monkeypatch, argv):
    # exit 0 rests on the certificate re-verifying, as for c2 and certify-slice3
    from qslice import cli

    monkeypatch.setattr(cli, "verify", lambda cert: ["a check fails"])
    code, lines = invoke(capsys, argv)
    assert code == 2
    assert json.loads(lines[0])["verified"] is False


def _failing_exact_check(label, relation, lhs, rhs):
    from qslice.certificates import exact_check

    return exact_check(label, "lt", 1, 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["bonacci", "verify", "--k", "3", "--m", "1"],
        ["bonacci", "null", "--k", "3"],
        ["bonacci", "c2", "--q", "algebraic:1,-2,-1,1:3/2:19/10"],
    ],
    ids=["verify", "null", "c2"],
)
def test_failed_bonacci_check_exits_two(capsys, monkeypatch, argv):
    # a failed exact check is a verdict the program could not reach, not a
    # fault of the program
    from qslice import bonacci

    monkeypatch.setattr(bonacci, "exact_check", _failing_exact_check)
    code, lines = invoke(capsys, argv)
    assert code == 2
    assert json.loads(lines[0])["error"].startswith("inequality ")


@pytest.mark.parametrize(
    "label", ["left-end-flush", "aq-position-11-below", "product-exceeds-one", "hull-left-contained"]
)
def test_failed_newhouse_check_exits_two_with_its_message(capsys, monkeypatch, label):
    # one check from each part of the certificate: the cover, the aq laws,
    # the thickness product and the interleaving
    from qslice import thickness
    from qslice.certificates import CertificateError, exact_check

    raised = []

    def fails_at_label(name, relation, lhs, rhs):
        if name != label:
            return exact_check(name, relation, lhs, rhs)
        try:
            return _failing_exact_check(name, relation, lhs, rhs)
        except CertificateError as e:
            raised.append(str(e))
            raise

    monkeypatch.setattr(thickness, "exact_check", fails_at_label)
    code, lines = invoke(
        capsys, ["certify-slice3", "--q", "1999/1000", "--depth", "30", "--level", "12"]
    )
    assert code == 2
    assert records(lines) == [{"error": raised[0]}]
    assert raised[0].startswith(f"inequality {label} failed")


def test_bonacci_verify_rejects_finite_delta(capsys):
    code, lines = invoke(
        capsys, ["bonacci", "verify", "--k", "3", "--m", "1", "--delta", "0101"]
    )
    assert code == 1
    assert "error" in json.loads(lines[0])


def test_bonacci_c2_exit_codes(capsys):
    code, lines = invoke(capsys, ["bonacci", "c2", "--q", "bonacci:3"])
    assert code == 0
    assert json.loads(lines[0])["outcome"] == "NotTwo"

    code, lines = invoke(
        capsys, ["bonacci", "c2", "--q", "algebraic:1,-2,-1,1:3/2:19/10"]
    )
    assert code == 0
    assert json.loads(lines[0])["outcome"] == "TwoOrbitsCertified"

    code, lines = invoke(capsys, ["bonacci", "c2", "--q", "199/100"])
    assert code == 2
    assert json.loads(lines[0])["outcome"] == "Unknown"


def test_dimension_mass_method(capsys):
    code, lines = invoke(
        capsys,
        [
            "dimension", "--q", "3/2", "--y", "1/6",
            "--method", "mass", "--levels", "3",
        ],
    )
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["method"] == "mass"
    assert rec["M"] == 12  # the fork-time bound on estimate_M's default grid
    assert rec["s_lower"] is not None
    assert rec["box_estimate"] is None and rec["residual"] is None
    assert rec["tree"]["valid"] and rec["tree"]["leaves"] == 8
    from fractions import Fraction as F

    lo, hi = (F(s) for s in rec["affinity_dimension"])
    assert lo < F("1.464973520717927") < hi
    assert hi - lo < F(1, 10**13)


def test_dimension_max_len_bounds_the_tree(capsys):
    # at 3/2, y = 1/3 the refinement tree's longest forced walk is 20 maps,
    # longer than the M = 12 the fork-time bound prints
    argv = ["dimension", "--q", "3/2", "--y", "1/3", "--method", "mass", "--max-len"]
    code, lines = invoke(capsys, argv + ["19"])
    assert code == 2
    assert json.loads(lines[0]) == {"error": "level 6: no fork within 19 steps"}
    code, lines = invoke(capsys, argv + ["20"])
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["M"] == 12 and rec["tree"]["max_branch"] == 20 and rec["tree"]["valid"]


def test_dimension_box_method(capsys):
    code, lines = invoke(
        capsys,
        [
            "dimension", "--q", "3/2", "--y", "1/6",
            "--method", "box", "--levels", "4",
        ],
    )
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["box_counts"] == [33, 55, 87, 147]
    assert rec["M"] is None and rec["s_lower"] is None
    assert rec["box_estimate"] is not None and rec["residual"] is not None
    from fractions import Fraction as F

    lo, hi = (F(s) for s in rec["box_estimate"])
    assert F(2, 10) < lo < hi < F(8, 10)


def test_render_command(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    code, lines = invoke(
        capsys,
        [
            "render", "--q", "5/3", "--iterations", "3",
            "--svg", str(out), "--slice-height", "3/8",
            "--marker", "1/4,3/8", "--band", "1/10:1/5",
            "--width", "480", "--height", "360",
        ],
    )
    assert code == 0
    rec = json.loads(lines[0])
    assert rec["bytes"] == out.stat().st_size
    content = out.read_text()
    assert content.startswith("<svg") and "<circle" in content
    assert 'width="480" height="360"' in content


def test_render_to_stdout_is_raw_svg(capsys):
    code = run(["render", "--q", "5/3", "--iterations", "2", "--svg", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("<svg")


def test_outputs_are_byte_deterministic(capsys):
    argv = ["slice", "--q", "5/3", "--y", "5/8", "--depth", "16"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second
    argv = ["bonacci", "null", "--k", "3"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second


def test_outputs_do_not_depend_on_earlier_refinement(capsys):
    argv = ["slice", "--q", "bonacci:3", "--y", "1/3", "--depth", "12"]
    _, first = invoke(capsys, argv)
    bonacci_root(3).refine_to(Fraction(1, 10**200))
    _, second = invoke(capsys, argv)
    assert first == second


def test_no_bare_floats_in_output(capsys):
    for argv in (
        ["slice", "--q", "5/3", "--y", "3/8", "--depth", "12"],
        ["dimension", "--q", "3/2", "--y", "1/6", "--levels", "0"],
        ["dimension", "--q", "3/2", "--y", "1/6", "--method", "box", "--levels", "3"],
        ["bonacci", "c2", "--q", "bonacci:3"],
        ["orbit-tree", "--q", "3/2", "--y", "1/6", "--depth", "4"],
    ):
        _, lines = invoke(capsys, argv)
        for line in lines:
            assert not re.search(r'(?<!")\b\d+\.\d+\b(?!")', line), line


def test_input_errors_exit_one(capsys):
    code, lines = invoke(capsys, ["slice", "--q", "7/3", "--y", "1/2"])
    assert code == 1
    assert "error" in json.loads(lines[0])
    # the degenerate endpoint base is invalid input, not a failed search
    code, _ = invoke(capsys, ["slice", "--q", "2", "--y", "1/2", "--depth", "8"])
    assert code == 1
    code, _ = invoke(capsys, ["slice", "--q", "5/3", "--y", "3/2"])
    assert code == 1
    code, _ = invoke(capsys, ["bonacci", "c2"])
    assert code == 1
    code, _ = invoke(capsys, ["no-such-command"])
    assert code == 1
    code, _ = invoke(capsys, ["orbit-tree", "--q", "3/2", "--y", "1/6", "--depth", "600"])
    assert code == 1


_OUT_OF_RANGE = [
    (["orbit-tree", "--q", "5/3", "--y", "1/2", "--depth", "-2"], "must be at least"),
    (["thickness", "--q", "1999/1000", "--set", "sk:9", "--level", "-2"], "must be at least"),
    (["slice", "--q", "5/3", "--y", "1/2", "--depth", "-3"], "must be at least"),
    (["slice", "--q", "5/3", "--y", "1/2", "--max-cylinders", "0"], "must be at least"),
    (["certify-slice3", "--q", "1999/1000", "--depth", "-5"], "must be at least"),
    (["bonacci", "null", "--k", "3", "--depth", "-4"], "must be at least"),
    (["bonacci", "verify", "--k", "1"], "must be at least"),
    # a tail with a uniform run; the uniformly run-limited shift is empty below k = 3
    (["bonacci", "verify", "--k", "3", "--m", "1", "--delta", "0(11)*"], "tail must avoid"),
    (["bonacci", "verify", "--k", "2", "--m", "1"], "empty below k = 3"),
    (["dimension", "--q", "3/2", "--y", "1/3", "--levels", "-1"], "must be at least"),
    # the grid of M's search is not an option: it would set the printed bound
    (["dimension", "--q", "3/2", "--y", "1/3", "--grid", "2"], "unrecognized arguments"),
    (["render", "--q", "5/3", "--svg", "-", "--width", "0"], "must be at least"),
    # the base of every subcommand must lie in (1, 2)
    (["thickness", "--q", "3", "--set", "sk:9", "--level", "3"], "strictly between 1 and 2"),
    (["thickness", "--q", "1", "--set", "sk:3"], "strictly between 1 and 2"),
    (["thickness", "--q", "1/2", "--set", "sk:9"], "strictly between 1 and 2"),
    (["thickness", "--q", "3", "--set", "aq"], "strictly between 1 and 2"),
    (["certify-slice3", "--q", "3"], "strictly between 1 and 2"),
    (["dimension", "--q", "3", "--y", "1/3"], "strictly between 1 and 2"),
    (["bonacci", "c2", "--q", "2"], "strictly between 1 and 2"),
    # run-limited shifts need a run bound of at least 2
    (["thickness", "--q", "1999/1000", "--set", "sk:1"], "run bound must be at least 2"),
    (["thickness", "--q", "1999/1000", "--set", "sk:-2"], "run bound must be at least 2"),
    (["thickness", "--q", "1999/1000", "--set", "scaled-sk:1"], "run bound must be at least 2"),
    # every height must lie in [0, 1]
    (["orbit-tree", "--q", "3/2", "--y", "2", "--depth", "6"], "height must lie in [0, 1]"),
    (["dimension", "--q", "3/2", "--y=-1/3", "--method", "mass"], "height must lie in [0, 1]"),
    (["slice", "--q", "3/2", "--y", "5/4", "--depth", "6"], "height must lie in [0, 1]"),
    # a negative fraction is a value, not an option, with or without "="
    (["slice", "--q", "3/2", "--y", "-1/3", "--depth", "4"], "height must lie in [0, 1]"),
    (["dimension", "--q", "3/2", "--y", "-1/3", "--method", "mass"], "height must lie in [0, 1]"),
    (["slice", "--q", "-3/2", "--y", "1/3", "--depth", "4"], "strictly between 1 and 2"),
    # each bonacci mode takes only the options it reads
    (["bonacci", "null", "--k", "3", "--delta", "garbage"], "unrecognized arguments"),
    (["bonacci", "c2", "--q", "3/2", "--k", "7", "--m", "4", "--delta", "0*"],
     "unrecognized arguments"),
    (["bonacci", "verify", "--q", "3/2"], "unrecognized arguments"),
    # the mass tree has 2^levels leaves; a level count past the cap exits
    # before any tree is built
    (["dimension", "--q", "3/2", "--y", "1/3", "--method", "mass", "--levels", "17"],
     "mass tree capped at 65536 leaves; --levels 17 has 2^17"),
    (["dimension", "--q", "3/2", "--y", "1/3", "--method", "mass", "--levels", "1000000000"],
     "mass tree capped at 65536 leaves"),
    # every k the command line reads is at most 64, checked before any work
    (["slice", "--q", "bonacci:99999999999999999999999", "--y", "1/3"],
     "bonacci index must be at most 64, got 99999999999999999999999"),
    (["certify-slice3", "--q", "bonacci:65"], "bonacci index must be at most 64, got 65"),
    (["thickness", "--q", "1999/1000", "--set", "sk:65", "--level", "3"],
     "run bound must be at most 64, got 65"),
    (["thickness", "--q", "1999/1000", "--set", "scaled-sk:99999999999999999999999"],
     "run bound must be at most 64"),
    (["bonacci", "verify", "--k", "65"], "argument --k: must be at most 64, got 65"),
    (["bonacci", "null", "--k", "99999999999999999999999"], "argument --k: must be at most 64"),
    # every --depth and the block count m are bounded too, checked before any work
    (["bonacci", "verify", "--k", "64", "--m", "6"], "argument --m: must be at most 5, got 6"),
    (["bonacci", "verify", "--k", "64", "--m", "100000"], "argument --m: must be at most 5"),
    (["bonacci", "verify", "--k", "3", "--depth", "501"],
     "argument --depth: must be at most 500, got 501"),
    (["bonacci", "null", "--k", "3", "--depth", "100000000"],
     "argument --depth: must be at most 500"),
    (["bonacci", "c2", "--q", "3/2", "--depth", "501"], "argument --depth: must be at most 500"),
    (["slice", "--q", "5/3", "--y", "1/2", "--depth", "501"],
     "argument --depth: must be at most 500"),
    (["certify-slice3", "--q", "1999/1000", "--depth", "501"],
     "argument --depth: must be at most 500"),
    (["orbit-tree", "--q", "5/3", "--y", "1/2", "--depth", "401"],
     "argument --depth: must be at most 400, got 401"),
    # a run bound that is no integer
    (["thickness", "--q", "1999/1000", "--set", "sk:x"], "bad set spec 'sk:x': invalid literal"),
    # the fork-search length and the slice walk's path cap are bounded too
    (["dimension", "--q", "3/2", "--y", "1/3", "--max-len", "501"],
     "argument --max-len: must be at most 500, got 501"),
    (["dimension", "--q", "3/2", "--y", "1/3", "--method", "mass", "--max-len", "100000"],
     "argument --max-len: must be at most 500"),
    (["slice", "--q", "5/3", "--y", "1/2", "--max-cylinders", "65537"],
     "argument --max-cylinders: must be at most 65536, got 65537"),
    (["slice", "--q", "bonacci:3", "--y", "1/3", "--max-cylinders", "10000000000"],
     "argument --max-cylinders: must be at most 65536"),
    # a tail's powers are at least 1 and expand to at most 1000 symbols
    (["bonacci", "verify", "--k", "3", "--delta", "(01)^99999999999999999999*"],
     "word longer than 1000 symbols"),
    (["bonacci", "verify", "--k", "64", "--delta", "(0011)^1000(01)*"],
     "word longer than 1000 symbols"),
    (["bonacci", "verify", "--k", "3", "--delta", "(10^0)(01)*"], "power must be positive"),
    (["bonacci", "verify", "--k", "3", "--delta", "1^0(01)*"], "power must be positive"),
]


@pytest.mark.parametrize(
    "argv, message", _OUT_OF_RANGE, ids=[f"argv{i}" for i in range(len(_OUT_OF_RANGE))]
)
def test_out_of_range_sizes_exit_one(capsys, argv, message):
    code, lines = invoke(capsys, argv)
    assert code == 1
    assert message in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # (01)* avoids 00 and 11, yet no tail lies in the empty k = 2 shift
        (["bonacci", "verify", "--k", "2", "--m", "0"],
         "the uniformly run-limited shift is empty below k = 3"),
        # (011)* has no run of three; it ends in the barred cycle 0 1^(k-1)
        (["bonacci", "verify", "--k", "3", "--m", "1", "--delta", "(011)*"],
         "tail must not end in the barred cycle (011)*"),
        # the shift is binary, so a digit 2 anywhere rules the tail out
        (["bonacci", "verify", "--delta", "(012)*"], "tail must be a binary word"),
    ],
)
def test_rejected_tail_names_its_reason(capsys, argv, message):
    code, lines = invoke(capsys, argv)
    assert code == 1
    assert json.loads(lines[0]) == {"error": message}


@pytest.mark.parametrize(
    "extra",
    [["--marker", "1/4"], ["--marker", "a,b"], ["--band", "x"], ["--slice-height", "zz"]],
)
def test_malformed_render_specs_exit_one(capsys, extra):
    code, lines = invoke(capsys, ["render", "--q", "5/3", "--svg", "-", "--iterations", "1"] + extra)
    assert code == 1
    assert "error" in json.loads(lines[0])


def test_unwritable_svg_path_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "pic.svg"
    code, lines = invoke(capsys, ["render", "--q", "5/3", "--iterations", "1", "--svg", str(target)])
    assert code == 1
    assert "cannot write" in json.loads(lines[0])["error"]


def test_internal_faults_exit_three(capsys, monkeypatch):
    # with no applicable branch in the rational kernel, the leaf probe finds
    # its point escaped: a fault of the program, not of the input
    from qslice.dynamics import _Rational

    monkeypatch.setattr(_Rational, "children", lambda self, n, den, branches: [])
    code = run(["slice", "--q", "5/3", "--y", "3/8", "--depth", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal error" in captured.err
    assert "point escaped the expansion interval" in captured.err


@pytest.mark.parametrize("cmd", ["slice", "orbit-tree"])
@pytest.mark.parametrize("q, y", [("bonacci:3", "1/3"), ("5/3", "3/8")])
def test_walk_dead_end_exits_three(capsys, monkeypatch, cmd, q, y):
    # a point with no applicable branch in the breadth-first walk is a fault
    # of the program, not an empty slice or a tree without leaves
    from qslice.dynamics import _Lattice, _Rational

    if q == "5/3":
        # the rational walk tests the domains of branches(den) itself
        branches = _Rational.branches
        monkeypatch.setattr(
            _Rational, "branches",
            lambda self, den: [(lab, s, od, 1, 0) for lab, s, od, _, _ in branches(self, den)],
        )
    else:
        monkeypatch.setattr(_Lattice, "children", lambda self, v, den, branches: [])
    code = run([cmd, "--q", q, "--y", y, "--depth", "12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "point escaped the expansion interval" in captured.err


def test_orbit_tree_at_depth_cap(capsys):
    # one alive path (0, 2)* at q=5/3, y=3/8 nests the record to the full
    # depth; both the output and json.loads of it must fit the stack
    code, lines = invoke(
        capsys, ["orbit-tree", "--q", "5/3", "--y", "3/8", "--depth", str(MAX_TREE_DEPTH)]
    )
    assert code == 0
    head, tree = records(lines)
    assert head["alive"] == 1
    assert _leaf_count(tree, MAX_TREE_DEPTH) == 1


def test_orbit_tree_leaf_cap(capsys):
    # at q=3/2, y=1/2 the tree has 3445 leaves at depth 14 and 5735 at 15
    argv = ["orbit-tree", "--q", "3/2", "--y", "1/2", "--depth"]
    code, lines = invoke(capsys, argv + ["14"])
    assert code == 0
    assert records(lines)[0]["alive"] == 3445
    code, lines = invoke(capsys, argv + ["15"])
    assert code == 1
    assert len(lines) == 1  # nothing of the tree is printed
    assert f"{MAX_TREE_LEAVES} leaves" in json.loads(lines[0])["error"]


def test_box_count_path_cap(capsys):
    # at q=3/2, y=1/3 depth 20 holds 44312 paths and depth 21 holds 73838
    argv = ["dimension", "--q", "3/2", "--y", "1/3", "--method", "box", "--levels"]
    code, lines = invoke(capsys, argv + ["13"])
    assert code == 0
    assert records(lines)[0]["box_counts"][-1] == 44312
    code, lines = invoke(capsys, argv + ["14"])
    assert code == 1
    assert len(lines) == 1
    assert f"{MAX_BOX_PATHS} paths; depth 21" in json.loads(lines[0])["error"]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="platform has no SIGPIPE")
def test_closed_stdout_ends_the_process_quietly():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # about 328 kB of output, more than a pipe buffer holds
    argv = ["orbit-tree", "--q", "3/2", "--y", "1/6", "--depth", "16"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qslice.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert b"internal error" not in err


def test_thickness_prints_gap_counts_past_the_digit_limit(capsys):
    # at level 15000 the exact sk:9 gap count has over 4300 digits, the
    # interpreter's default limit for printing an int; a fresh process and
    # an in-process run, started from the default limit, both print it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["thickness", "--q", "1999/1000", "--set", "sk:9", "--level", "15000"]
    out = subprocess.run(
        [sys.executable, "-m", "qslice.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    code, lines = invoke(capsys, argv)
    assert code == 0
    for head, *laws in (out.stdout.decode().splitlines(), lines):
        assert len(laws) == 17 and len(json.loads(head, parse_int=str)["gap_count"]) > 4300


def test_sorted_keys(capsys):
    _, lines = invoke(
        capsys, ["orbit-tree", "--q", "3/2", "--y", "1/2", "--depth", "4"]
    )
    for line in lines:
        keys = list(json.loads(line).keys())
        assert keys == sorted(keys)


def test_common_commands_load_neither_numpy_nor_sympy():
    # a fresh interpreter shows what these commands really import, factoring
    # a degree-5 algebraic: literal and a degree-10 polynomial included
    runs = [
        ["bonacci", "null", "--k", "3"],
        ["thickness", "--q", "1999/1000", "--set", "aq", "--level", "12"],
        ["dimension", "--q", "3/2", "--y", "1/6", "--method", "box", "--levels", "3"],
        ["bonacci", "c2", "--q", "algebraic:1,-2,-1,1:3/2:19/10"],
        ["bonacci", "c2", "--q", "algebraic:1,-1,-1,1,-2,1:101/100:199/100"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); from qslice.cli import run\n"
        f"assert [run(argv) for argv in {runs!r}] == [0, 0, 0, 0, 0]\n"
        "from qslice.algebraic import algebraic_from_poly\n"
        "assert algebraic_from_poly([-1] * 10 + [1], 1, 2).degree == 10\n"
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
