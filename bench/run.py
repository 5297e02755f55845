"""qslice benchmark.

    python3 bench/run.py --workload rational-sweep --seed 1 --seconds 30 --trace 0

Workloads are rational-sweep, algebraic-sweep and proofs (see
BENCHMARK.json and bench/layer_map.json for why each exists), or ``all``
to run the three one after another, each in its own child process.

With ``--trace 0`` the run is timed untraced and reports the end-to-end
metrics. Their times are in reference seconds (bench/refclock.py): wall
time corrected for how fast the shared host runs Python while the work
runs, so that two runs of the same code agree; the wall-time figures are
printed beside them. With ``--trace 1`` every public layer function is wrapped
(bench/tracer.py) and the run reports the per-layer metrics, including the
tracing overhead: traced wall time of the leading inputs minus the mean of
two untraced runs of them, one before and one after. The sweeps run traced in this process; each proofs verdict runs
``qslice.cli.run`` traced in a fresh interpreter, one at a time. Spans are
written to .bench_out/ when the run ends.

Every output is checked. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
each metric by name and unit, the verdict digest and the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5

# the gated metrics, in BENCHMARK.json's order
END_TO_END = ("setup_s", "work_per_s", "unit_gm_ms", "peak_rss_mb")


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child side of set-up: import qslice, build the workload's bases and
    report the import time, under a reference clock."""
    clock = refclock.RefClock().start()
    t0 = perf_counter()
    import qslice.cli  # noqa: F401

    import_s = perf_counter() - t0
    workloads.Bases(workload, seed)
    clock.stop()
    print(json.dumps({"import_s": import_s}))
    print(clock.summary(), file=sys.stderr)


def ref_child(argv) -> int:
    """Child side of a timed verdict: ``python -m qslice.cli`` under a
    reference clock, whose summary goes last on stderr. The verdict's stdout
    is held in memory and written once the clock has stopped: a timer signal
    that interrupts a write to a full pipe can lose the rest of that write
    (seen with CPython 3.11 and a 74 kB line)."""
    clock = refclock.RefClock().start()
    rc, out = workloads.cli_in_process(ROOT, argv)[:2]
    clock.stop()
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    print(clock.summary(), file=sys.stderr)
    return rc


def fresh_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """A fresh interpreter that imports qslice and builds the bases: its wall
    time, its reference seconds and the import time it reports."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=workloads.cli_env(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=workloads.CLI_TIMEOUT_S, check=True,
    )
    wall = perf_counter() - t0
    import_s = json.loads(proc.stdout.splitlines()[-1])["import_s"]
    return wall, refclock.child_ref_seconds(wall, proc.stderr), import_s


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def timed(args) -> tuple[dict, int, int, str]:
    setups = [fresh_setup(args.workload, args.seed) for _ in range(SETUP_RUNS)]
    setup_s = statistics.median(ref_s for _, ref_s, _ in setups)
    wall_setup_s = statistics.median(wall for wall, _, _ in setups)
    if args.workload == "proofs":
        run = workloads.run_proofs(ROOT, args.seed, args.seconds, workloads.cli_subprocess)
        figures = workloads.proofs_metrics(run)
        rss = peak_rss_mb(children=True)
        attempted, failed, digest = run.attempted, run.failed, run.digest()
    else:
        bases = workloads.Bases(args.workload, args.seed)
        clock = refclock.RefClock().start()
        try:
            run = workloads.run_sweep(args.workload, args.seed, args.seconds, bases)
        finally:
            clock.stop()
        figures = workloads.sweep_metrics(run, clock)
        rss = peak_rss_mb(children=False)
        attempted, failed = len(run.decisions), run.failed
        digest = run.digest.hexdigest()
    figures = {"setup_s": (setup_s, "s"), "wall_setup_s": (wall_setup_s, "s"),
               **figures, "peak_rss_mb": (rss, "MB")}
    return figures, attempted, failed, digest


def trace_child(path: Path, argv) -> int:
    """Child side of a traced verdict: run ``qslice.cli.run`` under the
    tracer, pass its stdout through and dump the tracer to ``path``."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    rc, out = workloads.cli_in_process(ROOT, argv)[:2]
    tracer.dump(path)
    sys.stdout.buffer.write(out)
    return rc


def traced(args) -> tuple[dict, int, int, str]:
    import tracer as tracing

    cli_import_s = fresh_setup("proofs", args.seed)[2]
    tracer = tracing.Tracer()
    extra = {"cli.import_s": cli_import_s}
    OUT.mkdir(exist_ok=True)
    if args.workload == "proofs":
        # Each traced verdict gets a fresh interpreter, as in the timed run:
        # in one shared process the library's cached roots carry their
        # refined intervals from one command into the next, and the brackets
        # printed by bonacci c2 and slice at bonacci:3 change with them.
        child_dump = OUT / f"child-{os.getpid()}.json"

        def invoke(root, argv):
            with tracer.span("bench.verdict"):
                t0 = perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", "proofs",
                     "--trace-child", str(child_dump), "--cli-json", json.dumps(argv)],
                    cwd=root, env=workloads.cli_env(root), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, timeout=workloads.CLI_TIMEOUT_S,
                )
                wall = perf_counter() - t0
                tracer.absorb(json.loads(child_dump.read_text()))
                child_dump.unlink()
            return proc.returncode, proc.stdout, wall, None

        def untraced_pass():
            return workloads.run_proofs(ROOT, args.seed, 0, workloads.cli_subprocess, max_passes=1)

        # untraced passes before and after the traced ones cancel slow drift
        # in machine speed out of the overhead
        before = untraced_pass()
        with tracer.span("bench.run"):
            run = workloads.run_proofs(ROOT, args.seed, args.seconds, invoke)
        after = untraced_pass()
        plain = (before, after)
        extra["trace.overhead_s"] = (
            run.pass_walls[0] - (before.pass_walls[0] + after.pass_walls[0]) / 2)
        untraced = before.passes[0]
        extra["cli.output_bytes"] = sum(len(r[1]) for r in untraced.values())
        for entry, (_, _, wall, _) in untraced.items():
            extra[f"cli.{entry}.wall_s"] = wall
        attempted = run.attempted + sum(p.attempted for p in plain)
        failed = run.failed + sum(p.failed for p in plain)
        digest, plain_digests = run.digest(), {p.digest() for p in plain}
    else:
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                bases = workloads.Bases(args.workload, args.seed)
        finally:
            tracer.uninstall()

        def untraced_head():
            return workloads.run_sweep(args.workload, args.seed, 0, bases,
                                       limit=workloads.HEAD_DECISIONS)

        before = untraced_head()
        tracer.install()
        try:
            with tracer.span("bench.run"):
                run = workloads.run_sweep(args.workload, args.seed, args.seconds, bases)
        finally:
            tracer.uninstall()
        after = untraced_head()
        plain = (before, after)
        extra["trace.overhead_s"] = run.head_s() - (before.head_s() + after.head_s()) / 2
        attempted = len(run.decisions) + sum(len(p.decisions) for p in plain)
        failed = run.failed + sum(p.failed for p in plain)
        digest, plain_digests = run.digest.hexdigest(), {p.digest.hexdigest() for p in plain}

    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    if plain_digests != {digest}:
        print(f"# traced digest {digest} != untraced {plain_digests}", file=sys.stderr)
        failed += 1
    figures = tracing.layer_metrics(tracer, workloads.CORPUS_IDS, extra)
    return figures, attempted, failed, digest


def run_all(args) -> int:
    """Each workload in its own child, one at a time; the last line merges them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--trace-child", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--ref-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cli-json", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace_child:
        return trace_child(args.trace_child, json.loads(args.cli_json))
    if args.ref_child:
        return ref_child(json.loads(args.cli_json))
    if args.workload == "all":
        return run_all(args)

    print(f"# meta {json.dumps(metadata(args), sort_keys=True)}")
    figures, attempted, failed, digest = (traced if args.trace else timed)(args)
    print(f"# digest {args.workload} sha256:{digest}")
    for name, (value, unit) in figures.items():
        print(f"{args.workload:16} {name:44} {value:>16.6g} {unit}")
    if args.trace:
        shown = figures
    else:
        shown = {name: figures[name] for name in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
    }))
    return 0


if not (ROOT / "src" / "qslice" / "__init__.py").is_file():
    sys.exit(f"bench: no qslice sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import refclock  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
