"""Command line interface.

Output is JSON lines with sorted keys and no timestamps, so runs are
byte-reproducible. Every inexact numeric quantity is reported as a pair
of rational bounds, never as a bare float.

Exit codes: 0 for a definite or certified answer, 2 for an honest
"could not decide", 1 for unusable input, 3 for a fault of the program
itself (reported on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional, Sequence

from .algebraic import AlgebraicNumber, algebraic_from_poly, bonacci_root, enclose
from .bonacci import (
    BonacciError,
    C2Outcome,
    CertificationFailed,
    DeltaNotInSTilde,
    c2_probe,
    null_infinite_probe,
    verify_odd_cardinality,
)
from .certificates import CertificateError, bracket, verify
from .dimension import (
    MAX_FORK_WALK,
    DimensionError,
    affinity_dimension,
    box_dimension_estimate,
    build_r_tree,
    dimension_lower_bound,
    estimate_M,
)
from .dynamics import InvalidBase, check_base, enumerate_orbits, ternary_branch_system
from .render import RenderError, RenderSpec, render_kq
from .slices import (
    ClaimKind,
    SliceInputError,
    compute_slice,
    expansion_point,
    geometric_slice_oracle,
    slice_matches_oracle,
)
from .thickness import (
    GapFamily,
    ThicknessError,
    enumerate_gaps,
    find_slice3_witness,
    newhouse_certify,
    thickness_lower_bound,
)
from .words import (
    MAX_RUN_BOUND,
    Tail,
    WordSyntaxError,
    check_run_bound,
    format_word,
    parse_word,
    ternary_string,
)

MAX_TREE_DEPTH = 400  # JSON nesting for orbit-tree is one level per step
MAX_DEPTH = 500  # every other --depth, and --max-len: walks, probes and searches grow with them
MAX_BLOCKS = 5  # bonacci verify --m: its witness has k*m zero digits, and k may be 64
MAX_TREE_LEAVES = 4096  # orbit-tree output grows with its leaf count
MAX_BOX_PATHS = 65536  # paths held at once: box counting, the mass tree and --max-cylinders


class InputError(ValueError):
    pass


def _run_bound(k: int, what: str) -> int:
    """The k of bonacci:<k>, sk:<k> or scaled-sk:<k>, held to the bound that
    --k has too: the work grows with k, and a k far past the bound runs on
    for minutes or cannot be built at all."""
    if k > MAX_RUN_BOUND:
        raise InputError(f"{what} must be at most {MAX_RUN_BOUND}, got {k}")
    return k


def parse_number(text: str) -> AlgebraicNumber:
    """The base of every --q: "3/2", "1.8", "bonacci:3", or
    "algebraic:c0,c1,...,cn:lo:hi" for the root of a polynomial given by
    ascending coefficients, isolated in the open interval (lo, hi). The coefficients may be
    rationals ("-3/2"); their denominators are cleared, so the literal names
    the root of the integer polynomial with the same roots. The base must
    lie strictly between 1 and 2."""
    text = text.strip()
    try:
        if text.startswith("bonacci:"):
            q = bonacci_root(_run_bound(int(text.split(":", 1)[1]), "bonacci index"))
        elif text.startswith("algebraic:"):
            parts = text.split(":")
            if len(parts) != 4:
                raise InputError(f"bad algebraic literal: {text!r}")
            coeffs = [Fraction(c) for c in parts[1].split(",")]
            q = algebraic_from_poly(coeffs, Fraction(parts[2]), Fraction(parts[3]))
        else:
            q = AlgebraicNumber.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as e:
        if isinstance(e, InputError):
            raise
        raise InputError(f"cannot parse number {text!r}: {e}")
    check_base(q)
    return q


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"cannot parse {what} {text!r}: {e}")


def parse_height(text: str) -> Fraction:
    return _parse_fraction(text, "height")


def _parse_pair(text: str, sep: str, what: str) -> tuple[Fraction, Fraction]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise InputError(f"bad {what} {text!r}: expected two numbers joined by {sep!r}")
    return _parse_fraction(parts[0], what), _parse_fraction(parts[1], what)


def _interval(x) -> list[str]:
    """Rational bound pair for any exact or floating quantity: exact for a
    rational, the 10^-18 grid cell that holds an irrational, and for a
    float its 10^-15 grid cell widened by one unit on each side."""
    if isinstance(x, float):
        # pad by one grid unit so the pair encloses the true value, not
        # just the float that approximates it
        grid = 10**15
        return [
            str(Fraction(math.floor(x * grid) - 1, grid)),
            str(Fraction(math.ceil(x * grid) + 1, grid)),
        ]
    if isinstance(x, (int, Fraction)):
        return [str(Fraction(x)), str(Fraction(x))]
    lo, hi = enclose(x, 10**18)
    return [str(lo), str(hi)]


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _claim_record(claim) -> dict:
    return {
        "type": claim.kind.value,
        "n": claim.n,
        "certified": claim.certified,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_slice(args) -> int:
    q = parse_number(args.q)
    y = parse_height(args.y)
    res = compute_slice(q, y, args.depth, max_cylinders=args.max_cylinders)
    rec = {
        "command": "slice",
        "q": _interval(q),
        "y": _interval(y),
        "depth": res.depth,
        "cylinders": [ternary_string(code, res.length) for code in res.codes],
        "claim": _claim_record(res.claim),
        "branch_events": len(res.forks),
        "truncated": res.truncated,
    }
    agree = True
    if args.oracle:
        # a truncated walk has no frontier at --depth to check: the oracle
        # is not run, and the cross-check that was asked for is not made
        rec["oracle"], agree = None, False
        if not res.truncated:
            boxes = geometric_slice_oracle(q, y, args.depth)
            agree = slice_matches_oracle(res, boxes)
            rec["oracle"] = {"boxes": len(boxes), "agrees": agree}
    _emit(rec)
    if not agree:
        return 2
    if res.claim.certified or res.claim.kind == ClaimKind.UncountablePattern:
        return 0
    return 2


def _node_record(sys_, path: tuple[int, ...], point, leaves: list[tuple[int, ...]]) -> dict:
    """The subtree at path, given the walk's paths below it in path order.
    Each child's point is its parent's point under one branch."""
    rec = {
        "label": path[-1] if path else None,
        "point_interval": _interval(point),
        "children": [],
    }
    d = len(path)
    if d < len(leaves[0]):
        for label, group in groupby(leaves, key=itemgetter(d)):
            child = sys_.branch(label)(point)
            rec["children"].append(_node_record(sys_, path + (label,), child, list(group)))
    return rec


def _cmd_orbit_tree(args) -> int:
    q = parse_number(args.q)
    y = parse_height(args.y)
    sys_ = ternary_branch_system(q)
    x0 = expansion_point(q, y)
    walk = enumerate_orbits(sys_, x0, args.depth, max_cylinders=MAX_TREE_LEAVES)
    if walk.truncated:
        raise InputError(
            f"tree capped at {MAX_TREE_LEAVES} leaves; depth {len(walk.sizes) - 1}"
            f" has {walk.sizes[-1]}"
        )
    _emit(
        {
            "command": "orbit-tree",
            "q": _interval(q),
            "y": _interval(y),
            "depth": args.depth,
            "alive": walk.sizes[-1],
            # the branch domains cover the expansion interval and each branch
            # maps into it, so every node has a child: the walk raises if a
            # path ends early
            "dead_ends": 0,
        }
    )
    _emit(_node_record(sys_, (), x0, walk.paths))
    return 0


def _parse_set(text: str) -> tuple[GapFamily, Optional[int]]:
    t = text.strip().lower()
    if t == "aq":
        return GapFamily.AqSet, None
    for prefix, family in (("sk:", GapFamily.SkSet), ("scaled-sk:", GapFamily.ScaledShiftedSk)):
        if t.startswith(prefix):
            try:
                k = int(t[len(prefix):])
            except ValueError as e:
                raise InputError(f"bad set spec {text!r}: {e}")
            return family, _run_bound(check_run_bound(k), "run bound")
    raise InputError(
        f"unknown set {text!r}; expected aq, sk:<k>, or scaled-sk:<k>"
    )


def _cmd_thickness(args) -> int:
    q = parse_number(args.q)
    family, k = _parse_set(args.set)
    gs = enumerate_gaps(q, family, args.level, k=k if k is not None else 9)
    try:
        bound = _interval(thickness_lower_bound(gs))
    except ThicknessError:
        bound = None
    _emit(
        {
            "command": "thickness",
            "q": _interval(q),
            "set": args.set,
            "level": gs.level,
            "k": gs.k,
            "gap_count": gs.gap_count,
            "hull": [_interval(gs.hull[0][0]), _interval(gs.hull[1][1])],
            "thickness_lower_bound": bound,
        }
    )
    # one line per law: the ends of its leftmost largest gap give every
    # other gap of the law by the map README states
    for law in gs.gaps:
        rec = {"command": "thickness", **law.meta, "level": law.level, "count": law.count}
        for key in ("left", "right", "size"):
            lo, hi = getattr(law, key)
            rec[key] = [_interval(lo)[0], _interval(hi)[1]]
        rec["bridge_lower_bound"] = _interval(law.bridge_lb)
        _emit(rec)
    return 0


def _cmd_certify_slice3(args) -> int:
    q = parse_number(args.q)
    cert = newhouse_certify(q, level=args.level)
    failures = verify(cert)
    height, res = find_slice3_witness(q, depth=args.depth)
    _emit(
        {
            "command": "certify-slice3",
            "q": _interval(q),
            "witness_interval": list(bracket(height)),
            "depth": res.depth,
            "claim": _claim_record(res.claim),
            "cylinders": [ternary_string(code, res.length) for code in res.codes],
            "intersection_verified": not failures,
            "failures": failures,
        }
    )
    _emit({"command": "certify-slice3", "certificate": asdict(cert)})
    # exit 0 rests on the verified Newhouse certificate, the proof that
    # some height has exactly three points; the witness only locates one,
    # and n == 3 says its walk keeps three separated groups to --depth
    return 0 if res.claim.n == 3 and not failures else 2


def _parse_delta(text: str) -> Tail:
    w = parse_word(text)
    if not isinstance(w, Tail):
        raise InputError(
            "delta must be eventually periodic: end it with a starred block"
        )
    return w


def _certified_bonacci(mode: str, certify, head) -> int:
    """Run one bonacci certification and print its verdict: an error
    record with exit 2 when it cannot be built; otherwise the head record,
    which head builds from the certificate, with whether it verifies, then
    the certificate itself, and exit 2 on any failure."""
    try:
        cert = certify()
    except CertificationFailed as e:
        _emit({"command": "bonacci", "mode": mode, "error": str(e)})
        return 2
    failures = verify(cert)
    _emit({"command": "bonacci", "mode": mode, **head(cert), "verified": not failures})
    _emit({"command": "bonacci", "certificate": asdict(cert)})
    return 2 if failures else 0


def _cmd_bonacci(args) -> int:
    if args.mode == "verify":
        delta = _parse_delta(args.delta)
        return _certified_bonacci(
            "verify",
            lambda: verify_odd_cardinality(args.k, args.m, delta=delta, depth=args.depth),
            lambda cert: {
                "k": args.k, "m": args.m, "delta": format_word(delta), "count": cert.data["count"],
            },
        )
    if args.mode == "null":
        return _certified_bonacci(
            "null",
            lambda: null_infinite_probe(args.k, depth=args.depth),
            lambda cert: {"k": args.k, "branches_at_depth": cert.data["branches-at-depth"]},
        )
    # c2
    q = parse_number(args.q)
    report = c2_probe(q, depth=args.depth)
    rec = {
        "command": "bonacci",
        "mode": "c2",
        "q": _interval(q),
        "outcome": report.outcome.value,
    }
    if report.branch_step is not None:
        rec["branch_step"] = report.branch_step
    if report.route is not None:
        rec["route"] = report.route
    _emit(rec)
    ok = True
    if report.certificate is not None:
        ok = not verify(report.certificate)
        _emit(
            {
                "command": "bonacci",
                "certificate": asdict(report.certificate),
                "verified": ok,
            }
        )
    if report.exhibited_pair is not None:
        a, b = report.exhibited_pair
        _emit(
            {
                "command": "bonacci",
                "pair": [format_word(a), format_word(b)],
            }
        )
    return 2 if report.outcome == C2Outcome.Unknown or not ok else 0


def _cmd_dimension(args) -> int:
    q = parse_number(args.q)
    y = parse_height(args.y)
    rec = {
        "command": "dimension",
        "q": _interval(q),
        "y": _interval(y),
        "method": args.method,
        "M": None,
        "s_lower": None,
        "box_estimate": None,
        "residual": None,
        "affinity_dimension": _interval(affinity_dimension(q)),
    }
    x0 = expansion_point(q, y)
    if args.method == "mass":
        levels = args.levels if args.levels is not None else 6
        if levels >= MAX_BOX_PATHS.bit_length():  # the tree has 2^levels leaves
            raise InputError(
                f"mass tree capped at {MAX_BOX_PATHS} leaves; --levels {levels} has 2^{levels}"
            )
        M = estimate_M(q, max_len=args.max_len)
        rec["M"] = M
        rec["s_lower"] = _interval(dimension_lower_bound(M))
        problems: list[str] = []
        if levels > 0:
            tree = build_r_tree(q, x0, levels, m_bound=M, max_len=args.max_len)
            problems = tree.validate()
            rec["tree"] = {
                "levels": levels,
                "leaves": len(tree.leaves()),
                "max_branch": tree.max_branch_length,
                "valid": not problems,
            }
        _emit(rec)
        return 0 if not problems else 2
    # box counting
    levels = args.levels if args.levels is not None else 9
    if levels < 2:
        raise InputError("box method needs at least two depths")
    depths = list(range(8, 8 + levels))
    walk = enumerate_orbits(ternary_branch_system(q), x0, depths[-1], max_cylinders=MAX_BOX_PATHS)
    if walk.truncated:
        raise InputError(
            f"box count capped at {MAX_BOX_PATHS} paths; depth {len(walk.sizes) - 1}"
            f" has {walk.sizes[-1]}"
        )
    counts = walk.sizes[depths[0]:]
    slope, residual = box_dimension_estimate(counts, depths)
    rec["box_counts"] = counts
    rec["box_estimate"] = _interval(slope)
    rec["residual"] = _interval(residual)
    _emit(rec)
    return 0


def _cmd_render(args) -> int:
    q = parse_number(args.q)
    spec = RenderSpec(
        width=args.width,
        height=args.height,
        iterations=args.iterations,
        slice_height=parse_height(args.slice_height) if args.slice_height else None,
        markers=tuple(_parse_pair(m, ",", "marker") for m in args.marker or []),
        bands=tuple(_parse_pair(b, ":", "band") for b in args.band or []),
    )
    svg = render_kq(q, spec)
    if args.svg == "-":
        sys.stdout.write(svg)
        return 0
    try:
        with open(args.svg, "w") as f:
            f.write(svg)
    except OSError as e:
        raise InputError(f"cannot write {args.svg!r}: {e.strerror}")
    _emit({"command": "render", "svg": args.svg, "bytes": len(svg)})
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "--y -1/3" passes a value, as "--level -2" does, to the range checks
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # argparse would exit 2; bad input should be 1
        raise InputError(message)


def _int_from(least: int, most: float = math.inf):
    """argparse type of the integer options: an integer from least to most."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        if n > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {n}")
        return n

    return parse


_NONNEGATIVE = _int_from(0)
_POSITIVE = _int_from(1)
_DEPTH = _int_from(0, MAX_DEPTH)


def _build_parser() -> _Parser:
    p = _Parser(prog="qslice", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("slice", help="enumerate the expansion orbits at a height")
    s.add_argument("--q", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--depth", type=_DEPTH, default=48)
    s.add_argument("--max-cylinders", type=_int_from(1, MAX_BOX_PATHS), default=4096)
    s.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the geometric box oracle (exponential in depth); "
        "not run, and exit 2, when the walk stops before --depth",
    )
    s.set_defaults(fn=_cmd_slice)

    s = sub.add_parser("orbit-tree", help="expand the branch tree at a height")
    s.add_argument("--q", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--depth", type=_int_from(0, MAX_TREE_DEPTH), default=12)
    s.set_defaults(fn=_cmd_orbit_tree)

    s = sub.add_parser("thickness", help="gap laws and thickness bound of a fractal set family")
    s.add_argument("--q", required=True)
    s.add_argument("--set", required=True, help="aq, sk:<k>, or scaled-sk:<k>")
    s.add_argument("--level", type=_NONNEGATIVE, default=40)
    s.set_defaults(fn=_cmd_thickness)

    s = sub.add_parser(
        "certify-slice3", help="locate and certify a three-orbit height"
    )
    s.add_argument("--q", required=True)
    s.add_argument("--depth", type=_DEPTH, default=48)
    s.add_argument("--level", type=_NONNEGATIVE, default=40)
    s.set_defaults(fn=_cmd_certify_slice3)

    s = sub.add_parser("bonacci", help="orbit counts at multinacci bases")
    s.set_defaults(fn=_cmd_bonacci)
    modes = s.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("verify", help="certify 2m + 1 orbits at the k-bonacci base")
    m.add_argument("--k", type=_int_from(2, MAX_RUN_BOUND), default=3)
    m.add_argument("--m", type=_int_from(0, MAX_BLOCKS), default=1)
    m.add_argument("--delta", default="(01)*", help="tail pattern, e.g. \"(01)*\"")
    m.add_argument("--depth", type=_int_from(1, MAX_DEPTH), help="walk depth; default k(m + 2) + 18")
    m = modes.add_parser("null", help="certify a countably infinite slice at the k-bonacci base")
    m.add_argument("--k", type=_int_from(2, MAX_RUN_BOUND), default=3)
    m.add_argument("--depth", type=_int_from(1, MAX_DEPTH), default=30)
    m = modes.add_parser("c2", help="probe whether 1/q has exactly two orbits")
    m.add_argument("--q", required=True)
    m.add_argument("--depth", type=_int_from(1, MAX_DEPTH), default=64)

    s = sub.add_parser("dimension", help="dimension bounds for slices")
    s.add_argument("--q", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--method", choices=["mass", "box"], default="mass")
    s.add_argument("--levels", type=_NONNEGATIVE)
    s.add_argument(
        "--max-len", type=_int_from(1, MAX_DEPTH), default=MAX_FORK_WALK,
        help="mass method: most maps a fork search walks, for M and the tree alike",
    )
    s.set_defaults(fn=_cmd_dimension)

    s = sub.add_parser("render", help="draw the carrier as SVG")
    s.add_argument("--q", required=True)
    s.add_argument("--iterations", type=_NONNEGATIVE, default=7)
    s.add_argument("--svg", required=True, help="file path, or - for stdout")
    s.add_argument("--width", type=_POSITIVE, default=640)
    s.add_argument("--height", type=_POSITIVE, default=640)
    s.add_argument("--slice-height")
    s.add_argument("--marker", action="append", help="x,y (repeatable)")
    s.add_argument("--band", action="append", help="lo:hi (repeatable)")
    s.set_defaults(fn=_cmd_render)
    return p


def run(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # thickness prints exact gap counts, past level ~14000 over 4300 digits
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (
        InputError, SliceInputError, WordSyntaxError, InvalidBase, RenderError, DeltaNotInSTilde
    ) as e:
        _emit({"error": str(e)})
        return 1
    except (BonacciError, CertificateError, DimensionError, ThicknessError) as e:
        _emit({"error": str(e)})
        return 2
    except Exception:
        # anything else is a fault of the program, never of its input
        print("qslice: internal error", file=sys.stderr)
        traceback.print_exc()
        return 3


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes the pipe early ends the process quietly, as
        # it would end cat; that is not a fault of the program
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
