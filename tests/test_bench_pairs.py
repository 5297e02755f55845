"""The pairing script's summary: flags for runs that cannot be compared."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"work_per_s": "higher", "unit_gm_ms": "lower"}


def _run(pair, side, *, exit=0, digest="sha256:a", correct=True, failed=0, result=True,
         work=100.0, unit=1.0):
    metrics = {"setup_s": 0.1, "work_per_s": work, "unit_gm_ms": unit, "peak_rss_mb": 30.0}
    return {
        "workload": "w", "seed": 4 + pair, "pair": pair, "side": side, "exit": exit,
        "digest": digest,
        "result": {"correct": correct, "attempted": 10, "failed": failed,
                   "metrics": {k: {"value": v} for k, v in metrics.items()}}
        if result else None,
    }


def test_clean_pairs_are_not_flagged():
    runs = [_run(1, "parent"), _run(1, "change", work=110.0, unit=0.9),
            _run(2, "change", work=90.0, unit=1.1), _run(2, "parent")]
    rows = bench_pairs.summarise(runs, METRICS)["w"]
    assert rows["flags"] == []
    assert rows["work_per_s"]["change_wins"] == "1/2"
    assert rows["work_per_s"]["pair_ratios"] == [1.1, 0.9]
    assert rows["unit_gm_ms"]["change_wins"] == "1/2"


def test_each_fault_flags_its_pair():
    runs = [
        _run(1, "parent"), _run(1, "change", digest="sha256:b"),
        _run(2, "parent"), _run(2, "change", exit=1, result=False, digest=None),
        _run(3, "parent", correct=False), _run(3, "change", failed=2),
        _run(4, "parent"),
    ]
    rows = bench_pairs.summarise(runs, METRICS)["w"]
    assert rows["flags"] == [
        "pair 1 (seed 5): digests differ",
        "pair 2 (seed 6): change no digest line",
        "pair 2 (seed 6): change exit 1",
        "pair 2 (seed 6): change no result line",
        "pair 2 (seed 6): digests differ",
        "pair 3 (seed 7): parent correct False",
        "pair 3 (seed 7): change 2 failed",
        "pair 4 (seed 8): only the parent side ran",
    ]
    # pairs 2 and 4 lack a result on one side, so the wins count the rest
    assert rows["work_per_s"]["change_wins"] == "0/2"


def test_main_exits_one_on_a_flagged_pair(tmp_path, monkeypatch):
    outcomes = iter([{"exit": 0, "digest": "sha256:a", "result": _run(1, "p")["result"]},
                     {"exit": 0, "digest": "sha256:b", "result": _run(1, "c")["result"]}])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: {**next(outcomes), "wall_s": 0.0})
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert '"pair 1 (seed 1): digests differ"' in out.read_text()


def test_runs_write_no_bytecode(monkeypatch):
    seen = {}

    def run(argv, **kwargs):
        seen.update(kwargs["env"])
        return bench_pairs.subprocess.CompletedProcess(argv, 0, stdout="# digest w sha256:a\n{}\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = bench_pairs.run_once(Path("."), "w", 1, 1.0)
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"
    assert out["digest"] == "sha256:a" and out["result"] == {}


def test_main_refuses_a_checkout_with_cached_bytecode(tmp_path, monkeypatch, capsys):
    def never(*a):
        raise AssertionError("ran a checkout with cached bytecode")

    monkeypatch.setattr(bench_pairs, "run_once", never)
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--pairs", "1", "--out", str(tmp_path / "pairs.json")]
    for cached in (tmp_path / "change" / "src" / "qslice" / "__pycache__",
                   tmp_path / "parent" / "bench" / "__pycache__"):
        cached.mkdir(parents=True)
        assert bench_pairs.main(argv) == 1
        assert "cached bytecode" in capsys.readouterr().err
        assert not (tmp_path / "pairs.json").exists()
        cached.rmdir()
