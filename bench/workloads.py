"""The benchmark's workloads: seeded inputs, the runs, and their checks.

rational-sweep and algebraic-sweep make slice decisions in-process, one
seeded draw after another. proofs runs a fixed corpus of ``qslice`` CLI
invocations, each a fresh interpreter (or, traced, ``qslice.cli.run`` in
this process with stdout captured). The program receives only the
generated inputs: a base, a height and a depth, or a CLI argument list.

Timed runs convert every wall time to reference seconds (bench/refclock.py),
so that the speed of the shared host cancels out of the gated figures.

Nothing here imports ``qslice`` at module level, so that a fresh
interpreter can time that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

WORKLOADS = ("rational-sweep", "algebraic-sweep", "proofs")

ORACLE_DEPTH = 12
# every run completes at least this many decisions (sweeps) so that the
# verdict digest covers the same inputs in timed, traced and untraced runs
HEAD_DECISIONS = 12
CLI_TIMEOUT_S = 170

# x^3 - x^2 - 2x + 1 on (3/2, 19/10): the base of bonacci.two_orbit_base()
TWO_ORBIT = "algebraic:1,-2,-1,1:3/2:19/10"

# (id, argv): the proofs corpus, one certified verdict per entry
CORPUS = (
    ("certify-slice3", ("certify-slice3", "--q", "1999/1000", "--depth", "48", "--level", "30")),
    ("thickness-sk9", ("thickness", "--q", "1999/1000", "--set", "sk:9", "--level", "12")),
    ("thickness-aq", ("thickness", "--q", "1999/1000", "--set", "aq", "--level", "30")),
    ("bonacci-verify", ("bonacci", "verify", "--k", "3", "--m", "1")),
    ("bonacci-null", ("bonacci", "null", "--k", "3")),
    ("bonacci-c2", ("bonacci", "c2", "--q", TWO_ORBIT)),
    ("dimension-mass", ("dimension", "--q", "3/2", "--y", "1/3", "--method", "mass")),
    ("dimension-box", ("dimension", "--q", "3/2", "--y", "1/3", "--method", "box")),
    ("slice-bonacci3", ("slice", "--q", "bonacci:3", "--y", "1/3", "--depth", "24")),
    ("slice-rational", ("slice", "--q", "5/3", "--y", "3/8", "--depth", "48")),
)
CORPUS_IDS = tuple(entry for entry, _ in CORPUS)


@dataclass(frozen=True)
class SweepSpec:
    depth: int
    max_cylinders: int
    # Metrics are taken per stratum of decisions whose cost per enumeration
    # step is alike, then combined with equal weight, so that the seed's
    # mix of cheap and heavy draws does not move them. In degree-1 fields
    # the cost per step is set by the decision's size (small ones are
    # per-call overhead); at algebraic bases by the base (its degree sets
    # the cost of sign()).
    strata_by_base: bool = False


SPECS = {
    # criterion 08's draws: depth 12, cap 20000, oracle at the same depth
    "rational-sweep": SweepSpec(depth=12, max_cylinders=20000),
    # leaf probes at depth 24, then a depth-12 oracle cross-check
    "algebraic-sweep": SweepSpec(depth=24, max_cylinders=4096, strata_by_base=True),
}

ALGEBRAIC_BASES = tuple(f"bonacci:{k}" for k in range(2, 11)) + ("two-orbit",)


def _height(rng: random.Random) -> Fraction:
    b = rng.randint(1, 64)
    return Fraction(rng.randint(0, b), b)


def draws(workload: str, seed: int):
    """Endless seeded stream of (base label, height). A base label is a
    rational "num/den" or a name from ALGEBRAIC_BASES."""
    rng = random.Random(f"{workload}/{seed}")
    while True:  # rational draws are criterion 08's
        if workload == "rational-sweep":
            den = rng.randint(3, 48)
            num = rng.randint(den + 1, 2 * den - 1)
            label = f"{num}/{den}"
            yield label, _height(rng)
        else:
            # each block of draws visits every base once, in a seeded order
            block = list(ALGEBRAIC_BASES)
            rng.shuffle(block)
            for label in block:
                yield label, _height(rng)


class Bases:
    """Base labels to AlgebraicNumber. Algebraic bases are built once, at
    set-up, and each draw gets a fresh copy of one as built, so that no
    decision inherits the interval refinement of the draws before it.
    Rational bases are built per draw, as a caller of the library would."""

    def __init__(self, workload: str, seed: int):
        import qslice

        self._qslice = qslice
        self.built = {}  # label -> (minimal polynomial, isolating interval)
        if workload == "algebraic-sweep":
            for label in ALGEBRAIC_BASES:
                q = (qslice.two_orbit_base() if label == "two-orbit"
                     else qslice.bonacci_root(int(label.split(":")[1])))
                self.built[label] = (q.min_poly, *q.interval)
        elif workload == "rational-sweep":
            stream = draws(workload, seed)
            for _ in range(HEAD_DECISIONS):
                self[next(stream)[0]]
        else:
            from qslice.cli import parse_number

            for _, argv in CORPUS:
                if "--q" in argv:
                    parse_number(argv[argv.index("--q") + 1])

    def __getitem__(self, label: str):
        if label in self.built:
            return self._qslice.AlgebraicNumber(*self.built[label])
        return self._qslice.AlgebraicNumber.from_rational(Fraction(label))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _trie_size(words) -> int:
    """Distinct prefixes of a set of words, the empty one included. The
    frontier of both routes never loses a node (every point has a branch,
    every box a child), so this is the number of nodes each route visited."""
    total, prev = 1, ()
    for s in sorted(w.symbols for w in words):
        common = 0
        for a, b in zip(prev, s):
            if a != b:
                break
            common += 1
        total += len(s) - common
        prev = s
    return total


def _dynamics_steps(res) -> int:
    """Frontier nodes plus the orbit steps walked by the leaf probes."""
    probe_steps = sum(1 + len(p.digits) if p.digits is not None else 1
                      for p in res.leaf_probes)
    return _trie_size(res.cylinders) + probe_steps


@dataclass
class Decision:
    label: str
    t0: float  # perf_counter() at the start and end of the decision
    t1: float
    steps: int  # frontier cylinders + leaf-probe steps + oracle boxes
    ok: bool

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def decide(spec: SweepSpec, q, y: Fraction, label: str,
           with_record: bool = True) -> tuple[Decision, bytes]:
    """One cross-checked slice decision and, if asked, its digest record (the
    claim and its cylinders). A truncated enumeration stays in as an Unknown
    decision and skips only the oracle comparison."""
    from qslice import compute_slice, format_word, geometric_slice_oracle, slice_matches_oracle

    t0 = perf_counter()
    res = compute_slice(q, y, spec.depth, max_cylinders=spec.max_cylinders)
    check = res
    if spec.depth != ORACLE_DEPTH:
        check = compute_slice(q, y, ORACLE_DEPTH, max_cylinders=spec.max_cylinders)
    boxes, agrees = None, True
    if not check.truncated:
        boxes = geometric_slice_oracle(q, y, ORACLE_DEPTH)
        agrees = slice_matches_oracle(check, boxes)
    t1 = perf_counter()

    steps = _dynamics_steps(res)
    if check is not res:
        steps += _dynamics_steps(check)
    if boxes is not None:
        steps += _trie_size(boxes)
    if not with_record:
        return Decision(label, t0, t1, steps, agrees), f"{label} {y}\n".encode()
    c = res.claim
    record = " ".join(
        str(v) for v in (
            label, y, res.depth, c.kind.value, c.n, c.certified, res.truncated,
            "-" if boxes is None else len(boxes), agrees,
            ",".join(format_word(w) for w in res.cylinders),
        )
    )
    return Decision(label, t0, t1, steps, agrees), record.encode() + b"\n"


@dataclass
class SweepRun:
    spec: SweepSpec
    decisions: list = field(default_factory=list)
    failed: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def head_s(self) -> float:
        return sum(d.wall_s for d in self.decisions[:HEAD_DECISIONS])

    def strata(self) -> list[list[Decision]]:
        groups: dict = {}
        for d in self.decisions:
            if d.steps:
                key = d.label if self.spec.strata_by_base else len(str(d.steps))
                groups.setdefault(key, []).append(d)
        return list(groups.values())


def run_sweep(workload: str, seed: int, seconds: float, bases: Bases,
              limit: int | None = None) -> SweepRun:
    """Decide draws until ``seconds`` have passed and at least
    HEAD_DECISIONS are done, or exactly ``limit`` draws if given. The digest
    covers the first HEAD_DECISIONS records."""
    run = SweepRun(SPECS[workload])
    start = perf_counter()
    for label, y in draws(workload, seed):
        n = len(run.decisions)
        if limit is not None:
            if n >= limit:
                break
        elif n >= HEAD_DECISIONS and perf_counter() - start >= seconds:
            break
        try:
            d, record = decide(run.spec, bases[label], y, label, n < HEAD_DECISIONS)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            t = perf_counter()
            d, record = Decision(label, t, t, 0, False), f"{label} {y} error\n".encode()
        if not d.ok:
            run.failed += 1
            print(f"# FAILED {record.decode()[:200]}", file=sys.stderr)
        if n < HEAD_DECISIONS:
            run.digest.update(record)
        run.decisions.append(d)
    return run


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _stratified(strata, seconds) -> tuple[float, float]:
    """Steps per second of each stratum, and the geometric mean over its
    decisions of ms per step, each combined over the strata by geometric
    mean; ``seconds`` gives a decision's duration. The geometric mean
    weighs a small decision like a large one, as a median would, but is
    steadier over the few decisions a stratum holds."""
    per_s = _geomean(sum(d.steps for d in g) / sum(seconds(d) for d in g) for g in strata)
    unit_ms = _geomean(_geomean(1000 * seconds(d) / d.steps for d in g) for g in strata)
    return per_s, unit_ms


def sweep_metrics(run: SweepRun, clock) -> dict[str, tuple[float, str]]:
    """End-to-end figures of a sweep run: the two gated ones, stratified and
    in reference seconds of ``clock`` (a started RefClock), their wall-time
    counterparts, then the per-decision figures, which follow the seed's mix
    of draws."""
    strata = run.strata()
    walls = [d.wall_s for d in run.decisions if d.steps]
    per_s, unit_ms = _stratified(strata, lambda d: clock.ref_seconds(d.t0, d.t1))
    wall_per_s, wall_unit_ms = _stratified(strata, lambda d: d.wall_s)
    return {
        "work_per_s": (per_s, "1/s"),
        "unit_gm_ms": (unit_ms, "ms"),
        "wall_work_per_s": (wall_per_s, "1/s"),
        "wall_unit_gm_ms": (wall_unit_ms, "ms"),
        "host_speed": (clock.speed(), "ratio"),
        "slices_per_s": (len(walls) / sum(walls), "1/s"),
        "slice_p50_ms": (1000 * statistics.median(walls), "ms"),
        "slice_p90_ms": (1000 * statistics.quantiles(walls, n=10)[-1], "ms"),
        "failed_ratio": (run.failed / len(run.decisions), "ratio"),
        "decisions": (len(run.decisions), "count"),
        "strata": (len(strata), "count"),
    }


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    """Environment of the benchmark's children: the checkout's sources, and
    one BLAS thread (numpy's only use here is one small least-squares fit;
    idle BLAS threads would only contend with the main one)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def cli_subprocess(root: Path, argv) -> tuple[int, bytes, float, float]:
    """One verdict in a fresh interpreter that runs ``python -m qslice.cli``
    under a reference clock (``run.py --ref-child``): exit code, stdout
    bytes, wall seconds and reference seconds."""
    from refclock import child_ref_seconds

    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", "proofs", "--ref-child",
         "--cli-json", json.dumps(list(argv))],
        cwd=root, env=cli_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S,
    )
    wall = perf_counter() - t0
    return proc.returncode, proc.stdout, wall, child_ref_seconds(wall, proc.stderr)


def cli_in_process(root: Path, argv) -> tuple[int, bytes, float, None]:
    """One verdict through ``qslice.cli.run`` with stdout captured; it has
    no reference time."""
    import qslice.cli

    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = qslice.cli.run(list(argv))
    wall = perf_counter() - t0
    return rc, buf.getvalue().encode(), wall, None


def check_cli(argv, rc: int, out: bytes) -> list[str]:
    """Problems with one CLI verdict; empty when it passes the gate.

    Exit 2 is an honest "could not decide" and passes. Each certificate
    must re-verify from its JSON form alone. The ``certified`` flag of a
    claim is reported, not gated."""
    from qslice import from_json, verify

    if rc not in (0, 2):
        return [f"exit code {rc}"]
    try:
        records = [json.loads(line) for line in out.splitlines()]
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON lines: {e}"]
    if not records:
        return ["no output"]
    problems = []
    for rec in records:
        if "certificate" in rec:
            failures = verify(from_json(json.dumps(rec["certificate"])))
            problems += [f"certificate: {f}" for f in failures]
    head = records[0]
    if rc == 0 and argv[0] == "certify-slice3":
        if head["claim"]["n"] != 3 or head["intersection_verified"] is not True:
            problems.append(f"certify-slice3: n={head['claim']['n']}, "
                            f"intersection_verified={head['intersection_verified']}")
    if rc == 0 and argv[:2] == ("bonacci", "verify"):
        m = int(argv[argv.index("--m") + 1])
        if head["count"] != 2 * m + 1:
            problems.append(f"bonacci verify: count {head['count']} != {2 * m + 1}")
    return problems


def claims_certified(out: bytes) -> tuple[int, int]:
    """(certified, total) over the claim records of one verdict; lines that
    are not JSON are skipped here, check_cli fails them."""
    claims = []
    for line in out.splitlines():
        try:
            claims.append(json.loads(line).get("claim"))
        except json.JSONDecodeError:
            pass
    claims = [c for c in claims if c]
    return sum(c.get("certified") is True for c in claims), len(claims)


@dataclass
class ProofsRun:
    passes: list = field(default_factory=list)  # per pass: {id: (rc, bytes, wall, ref_s)}
    pass_walls: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0

    def digest(self) -> str:
        """sha256 over the exact stdout bytes of the first pass, in corpus order."""
        h = hashlib.sha256()
        first = self.passes[0]
        for entry in CORPUS_IDS:
            rc, out = first[entry][:2]
            h.update(f"{entry} {rc} {len(out)}\n".encode())
            h.update(out)
        return h.hexdigest()


def run_proofs(root: Path, seed: int, seconds: float, invoke,
               max_passes: int | None = None) -> ProofsRun:
    """Passes over the corpus, in a seeded order, while another pass is
    expected to end within ``seconds`` (at least one pass), or exactly
    ``max_passes``."""
    order = list(CORPUS)
    random.Random(f"proofs/{seed}").shuffle(order)
    run = ProofsRun()
    start = perf_counter()
    while True:
        if max_passes is not None and len(run.passes) >= max_passes:
            break
        if (max_passes is None and run.passes
                and perf_counter() - start + run.pass_walls[-1] > seconds):
            break
        results = {}
        t0 = perf_counter()
        for entry, argv in order:
            run.attempted += 1
            try:
                rc, out, wall, ref_s = invoke(root, argv)
                problems = check_cli(argv, rc, out)
            except Exception as e:
                traceback.print_exc(file=sys.stderr)
                rc, out, wall, ref_s, problems = -1, b"", 0.0, None, [repr(e)]
            if problems:
                run.failed += 1
                print(f"# FAILED {entry}: {problems}", file=sys.stderr)
            results[entry] = (rc, out, wall, ref_s)
        run.pass_walls.append(perf_counter() - t0)
        run.passes.append(results)
    return run


def proofs_metrics(run: ProofsRun) -> dict[str, tuple[float, str]]:
    """The gated figures are in reference seconds of each verdict's own
    interpreter; corpus_s and verdict_p50_s are their wall-time
    counterparts."""
    def per_entry(i):
        return [statistics.median(p[entry][i] for p in run.passes) for entry in CORPUS_IDS]

    ref_corpus_s = statistics.median(sum(r[3] for r in p.values()) for p in run.passes)
    corpus_s = statistics.median(run.pass_walls)
    verdict_s = statistics.median(per_entry(2))
    certified = total = 0
    for entry in CORPUS_IDS:
        c, t = claims_certified(run.passes[0][entry][1])
        certified, total = certified + c, total + t
    return {
        "work_per_s": (len(CORPUS) / ref_corpus_s, "1/s"),
        "unit_gm_ms": (1000 * _geomean(per_entry(3)), "ms"),
        "corpus_s": (corpus_s, "s"),
        "verdict_p50_s": (verdict_s, "s"),
        "failed_ratio": (run.failed / run.attempted, "ratio"),
        "certified_claims": (certified, "count"),
        "claims": (total, "count"),
        "passes": (len(run.passes), "count"),
    }
