"""Tests of the benchmark itself, on tiny variants of its workloads.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    """A minimal checkout: the sources, BENCHMARK.json and the benchmark."""
    shutil.copytree(REPO / "src" / "rwig", tmp_path / "src" / "rwig")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def _tiny_bench(name: str, root: Path, seed: int = 7) -> run.Bench:
    bench = run.Bench(name, TINY[name], seed, root)
    bench.work.mkdir(parents=True)
    return bench


def _inputs_digest(name: str, seed: int, directory: Path) -> str:
    directory.mkdir()
    workload = TINY[name]
    workload.impl.inputs(workload.params, seed, directory)
    return run.digest(directory)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_per_seed_and_differ_across_seeds(name, tmp_path):
    first = _inputs_digest(name, 1, tmp_path / "a")
    assert _inputs_digest(name, 1, tmp_path / "b") == first
    assert _inputs_digest(name, 2, tmp_path / "c") != first


def test_tiny_variants_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)
    for name, workload in TINY.items():
        assert workload.kind == WORKLOADS[name].kind
        assert workload.params.keys() == WORKLOADS[name].params.keys()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_its_gates(name, trace, checkout, capsys):
    assert run.run(name, TINY[name], 3, 0.0, trace, checkout) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics(checkout, "per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert not (checkout / run.WORK_DIR / f"{name}-3-{run.os.getpid()}").exists()


def test_traced_counts_match_the_state_space(checkout, capsys):
    assert run.run("pmf_skewed", TINY["pmf_skewed"], 3, 0.0, True, checkout) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    # M=5 walkers on N=3 states: S(5,1) + S(5,2) + S(5,3) graphs, each
    # expanding into bell(cliques) terms; 2^5 - 1 walker subsets.
    assert metrics["contact_graph.graphs"]["value"] == 1 + 15 + 25
    assert metrics["pmf.expansion_terms"]["value"] == 1 * 1 + 15 * 2 + 25 * 5
    assert metrics["pmf.sigma_evals"]["value"] == 31


def _corrupt_pmf(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc[-1]["p"] += 1e-6
    path.write_text(json.dumps(doc))


def _garbage(path: Path) -> None:
    path.write_text("not json")


@pytest.mark.parametrize("damage", [_corrupt_pmf, _garbage])
def test_damaged_output_counts_as_failure(damage, checkout):
    bench = _tiny_bench("pmf_dense", checkout)
    bench.setup()
    good = bench.run_job()
    bench.verify()
    assert not bench.failures and len(good.parts) == 1

    job = run.Job(bench.work / "damaged")
    out = job.out / "pmf"
    out.mkdir(parents=True)
    argv = bench.impl.argv("pmf", bench.workload.params, bench.inputs, out)
    job.parts["pmf"] = run.run_process(argv, bench.env, checkout, bench.work / "x.err")
    damage(out / "pmf.json")
    attempted = bench.attempted
    bench.collect(job)
    bench.verify()
    assert bench.attempted == attempted + 1
    assert len(bench.failures) == 1


def test_timed_processes_are_scaled_by_the_references_around_them(checkout):
    bench = _tiny_bench("steady", checkout)
    bench.setup()
    job = bench.run_job()
    # One reference before the first timed process and one after each.
    refs = bench.ref_walls
    assert len(refs) == 3 and len(job.parts) == 1
    nominal = run.REF_NOMINAL_S
    assert bench.setup_scaled[0] == pytest.approx(
        bench.setup_walls[0] * nominal / ((refs[0] + refs[1]) / 2))
    assert job.scaled_s == pytest.approx(job.wall_s * nominal / ((refs[1] + refs[2]) / 2))


def test_nonzero_exit_counts_as_failure(checkout):
    bench = _tiny_bench("steady", checkout)
    bench.setup()
    job = run.Job(bench.work / "job")
    (job.out / "steady").mkdir(parents=True)
    argv = [sys.executable, "-m", "rwig.cli", "steady", "--policy", "missing.csv",
            "--walkers", "3"]
    job.parts["steady"] = run.run_process(argv, bench.env, checkout, bench.work / "x.err")
    bench.collect(job)
    bench.verify()
    assert len(bench.failures) == 1 and "exited 1" in bench.failures[0]


def test_refuses_to_run_without_sources(tmp_path, capsys):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    assert run.run("steady", TINY["steady"], 1, 0.0, False, tmp_path) != 0
    assert capsys.readouterr().out == ""


def test_spec_lists_the_declared_workloads_and_metrics():
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "spec.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(spec["workloads"])
    assert set(spec["workloads"]) == set(WORKLOADS)
    for name, entry in spec["workloads"].items():
        assert entry["params"] == WORKLOADS[name].params
    for key in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        assert {n: (m["unit"], m["better"]) for n, m in spec[key].items()} == listed
        for metric in spec[key].values():
            assert set(metric["workloads"]) <= set(WORKLOADS)
