"""Paired benchmark runs of two checkouts, written as a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload algebraic-sweep --workload rational-sweep --workload proofs \\
        --pairs 10 --first-seed 5 --seconds 10 --about "..." --out BENCH_21.json

Each checkout is a directory holding the repository's files, for instance
one made with ``git archive <rev> | tar -x -C <dir>``. For each workload,
pair i runs ``bench/run.py`` untraced on seed first_seed + i - 1 in both
checkouts, one after the other: the parent first in odd pairs, the change
first in even ones, so that drift of the shared host falls on both sides.

The output keeps every run (its exit code, verdict digest, wall time and
result line) and, per workload and end-to-end metric of BENCHMARK.json,
the medians of both sides, the distance between the quartiles of the
parent's runs, how many pairs the change read better (ties count for
neither side) and the change/parent ratio of each pair. Each workload's
``flags`` lists the pairs that cannot be taken at face value: a run that
printed no digest or no result line, exited non-zero, read ``correct``
false or failed an operation, or a pair whose two digests differ or that
lacks a side.
The file is rewritten after every pair, so a stopped run keeps what it
measured; the script exits 1 when any pair is flagged.

Each run starts with PYTHONDONTWRITEBYTECODE=1, and the script refuses,
exiting 1 before the first run, a checkout that holds a __pycache__ under
src/ or bench/: with the bytecode cached, the short proofs verdicts can end
before the first sample of bench/refclock.py's reference clock, and the
run loses them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py run: exit code, digest, wall time and the
    parsed result line (None when the run printed none)."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    wall_s = perf_counter() - t0
    lines = proc.stdout.splitlines()
    digest = next((line.split()[-1] for line in lines if line.startswith("# digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "digest": digest, "wall_s": round(wall_s, 1),
            "result": result}


def cached_bytecode(checkout: Path) -> list[Path]:
    """The __pycache__ directories under the checkout's src/ and bench/."""
    return sorted(p for top in ("src", "bench") for p in (checkout / top).rglob("__pycache__"))


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run_faults(run: dict) -> list[str]:
    """What makes one run unfit to compare: no digest line, a non-zero exit,
    no result line, a result that reads incorrect, or a failed operation."""
    faults = []
    if run["digest"] is None:
        faults.append("no digest line")
    if run["exit"] != 0:
        faults.append(f"exit {run['exit']}")
    result = run["result"]
    if result is None:
        faults.append("no result line")
    else:
        if result.get("correct") is not True:
            faults.append(f"correct {result.get('correct')}")
        if result.get("failed", 0) > 0:
            faults.append(f"{result['failed']} failed")
    return faults


def pair_flags(pair: int, sides: dict) -> list[str]:
    """One line per fault of a pair, given its runs by side."""
    seed = next(iter(sides.values()))["seed"]
    where = f"pair {pair} (seed {seed})"
    flags = [f"{where}: {side} {fault}" for side in ("parent", "change") if side in sides
             for fault in run_faults(sides[side])]
    if len(sides) < 2:
        flags.append(f"{where}: only the {next(iter(sides))} side ran")
    elif len({run["digest"] for run in sides.values()}) > 1:
        flags.append(f"{where}: digests differ")
    return flags


def summarise(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload: the flags of its pairs and, per metric, medians, the
    parent's quartile distance, change wins over pairs with both results,
    and each pair's ratio. metrics maps a metric name to "higher" or
    "lower", the better way."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = {n: {side: r["result"]["metrics"] for side, r in sides.items()
                     if r["result"] is not None}
                 for n, sides in by_pair.items()}
        both = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        rows = out[workload] = {
            "flags": [f for n, sides in sorted(by_pair.items()) for f in pair_flags(n, sides)]
        }
        for name, better in metrics.items():
            if not both:
                break
            parent = [p["parent"][name]["value"] for p in both]
            change = [p["change"][name]["value"] for p in both]
            sign = 1 if better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            rows[name] = {
                "parent_median": statistics.median(parent),
                "change_median": statistics.median(change),
                "parent_iqr": quartile_distance(parent),
                "change_wins": f"{wins}/{len(both)}",
                "pair_ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="a bench/run.py workload; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--about", default="", help="what the change is and how the runs were made")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            p.error(f"--{side} {checkout} holds no bench/run.py")
        cached = cached_bytecode(checkout)
        if cached:
            print(f"--{side} {checkout} holds cached bytecode, which lets short verdicts end "
                  f"before the reference clock's first sample; remove {cached[0]} and any "
                  f"other __pycache__ under src/ and bench/", file=sys.stderr)
            return 1

    doc = {
        "about": args.about,
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{os.cpu_count()}-vCPU {platform.system()} host, "
                f"Python {platform.python_version()}",
        "summary": {},
        "runs": [],
    }
    for workload in args.workload:
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for i, side in enumerate(order):
                run = run_once(sides[side], workload, seed, args.seconds)
                doc["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                    "side": side, "ran_first": i == 0, **run})
                print(f"{workload} seed {seed} {side}: exit {run['exit']} {run['digest']}",
                      flush=True)
            doc["summary"] = summarise(doc["runs"], metrics)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    flags = [f"{workload} {flag}" for workload, rows in doc["summary"].items()
             for flag in rows["flags"]]
    for flag in flags:
        print(f"flagged: {flag}", file=sys.stderr)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
