import json
import math

import pytest

import rwig.combinatorics as combinatorics
import rwig.ingest as ingest
from rwig.bench import random_ensemble
from rwig.cli import main
from rwig.contact_graph import ContactGraph, enumerate_graphs
from rwig.markov import ensemble_from_json, ensemble_to_json
from rwig.pmf import full_distribution
from rwig.simulate import histogram_from_csv, histogram_mean

from conftest import uniform_ensemble


def write_ensemble(path, ensemble):
    path.write_text(json.dumps(ensemble_to_json(ensemble)))
    return str(path)


@pytest.fixture
def uniform2(tmp_path):
    return write_ensemble(tmp_path / "ens.json", uniform_ensemble(2, 2))


def test_enumerate_prints_count(capsys):
    assert main(["enumerate", "--walkers", "5", "--states", "3"]) == 0
    assert capsys.readouterr().out.strip() == "41"


def test_enumerate_stream(tmp_path, capsys, monkeypatch):
    out = tmp_path / "graphs.jsonl"
    code = main(
        ["enumerate", "--walkers", "3", "--states", "3", "--stream", "-o", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "5"
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0]) == [["w1", "w2", "w3"]]
    # With small blocks the graphs arrive in many pieces; the file is the same.
    expected = "".join(
        json.dumps(g.to_json_obj(), separators=(",", ":")) + "\n"
        for g in enumerate_graphs(6, 4)
    )
    monkeypatch.setattr(combinatorics, "_RGS_ROWS", 8)
    assert len(list(combinatorics.restricted_growth_strings(6, 4))) > 1
    code = main(
        ["enumerate", "--walkers", "6", "--states", "4", "--stream", "-o", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "187"
    assert out.read_text() == expected


def test_pmf_two_uniform_walkers(uniform2, tmp_path, capsys):
    out = tmp_path / "dist.json"
    assert main(["pmf", "--ensemble", uniform2, "--time", "1", "-o", str(out)]) == 0
    entries = json.loads(out.read_text())
    assert sorted(e["p"] for e in entries) == [0.5, 0.5]


def test_pmf_oracle_passes_on_random_ensemble(tmp_path):
    path = write_ensemble(tmp_path / "e.json", random_ensemble(4, 4, seed=12))
    out = tmp_path / "d.json"
    assert main(["pmf", "--ensemble", path, "--time", "2", "--oracle", "-o",
                 str(out)]) == 0
    with open(path, encoding="utf-8") as fh:
        expected = full_distribution(ensemble_from_json(json.load(fh)), 2)
    written = json.loads(out.read_text(encoding="utf-8"))
    assert {ContactGraph.from_json_obj(e["graph"]): e["p"] for e in written} == (
        expected.entries
    )


def test_pmf_oracle_builds_each_graph_once(tmp_path, built_graphs):
    path = write_ensemble(tmp_path / "e.json", random_ensemble(5, 5, seed=3))
    plain, checked = tmp_path / "plain.json", tmp_path / "checked.json"
    assert main(["pmf", "--ensemble", path, "--time", "2", "-o", str(plain)]) == 0
    assert built_graphs == []
    argv = ["pmf", "--ensemble", path, "--time", "2", "--oracle", "-o", str(checked)]
    assert main(argv) == 0
    assert len(built_graphs) == len(set(built_graphs)) == 52
    assert checked.read_bytes() == plain.read_bytes()


def test_pmf_oracle_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    import rwig.cli as cli_module

    real = cli_module.pmf_mod.full_distribution

    def skewed(ensemble, k, *, budget=10**6, method="closed_form"):
        dist = real(ensemble, k, budget=budget, method=method)
        if method == "bruteforce":
            first = next(iter(dist.entries))
            dist.entries[first] += 1e-6
        return dist

    monkeypatch.setattr(cli_module.pmf_mod, "full_distribution", skewed)
    path = write_ensemble(tmp_path / "e.json", uniform_ensemble(2, 2))
    assert main(["pmf", "--ensemble", path, "--time", "1", "--oracle"]) == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_pmf_malformed_ensemble_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n_states": 2,
        "walkers": [{"label": "w1", "s0": [0.5, 0.5], "policy": [[0.9, 0.0], [0.5, 0.5]]}],
    }))
    assert main(["pmf", "--ensemble", bad.as_posix(), "--time", "0"]) == 1
    assert "error" in capsys.readouterr().err

    # json writes and reads NaN; the run must stop before it writes "p": NaN.
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps({
        "n_states": 2,
        "walkers": [{"label": "w1", "s0": [float("nan"), 1.0],
                     "policy": [[0.5, 0.5], [0.5, 0.5]]}],
    }))
    out = tmp_path / "nan_dist.json"
    code = main(["pmf", "--ensemble", nan.as_posix(), "--time", "0", "-o", str(out)])
    assert code == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()

    walker = {"s0": [0.5, 0.5], "policy": [[0.5, 0.5], [0.5, 0.5]]}
    for doc, named in (
        ({"n_states": 2, "walkers": [{"label": "a", **walker}, {"label": 1, **walker}]},
         "walker 1 has label 1"),
        ({"n_states": 2, "walkers": [{"label": ["a"], **walker}]}, "walker 0 has label ['a']"),
        ({"n_states": 2, "walkers": [5]}, "walker 0"),
        ({"n_states": 2, "walkers": 5}, '"walkers" list'),
        ([{"label": "a", **walker}], '"walkers" list'),
        ({"walkers": [{"label": "a", **walker}]}, 'ensemble has no "n_states"'),
        ({"n_states": 2, "walkers": [{"label": "a", "policy": walker["policy"]}]},
         'walker 0 (\'a\') has no "s0"'),
    ):
        bad.write_text(json.dumps(doc))
        assert main(["pmf", "--ensemble", bad.as_posix(), "--time", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
    # Integer labels are accepted.
    bad.write_text(json.dumps({
        "n_states": 2, "walkers": [{"label": 2, **walker}, {"label": 1, **walker}],
    }))
    assert main(["pmf", "--ensemble", bad.as_posix(), "--time", "0"]) == 0


def test_steady_from_vector_writes_outputs(tmp_path):
    vec = tmp_path / "vec.csv"
    vec.write_text("0.003," * 14 + "0.96\n")
    prefix = tmp_path / "steady"
    code = main(
        ["steady", "--vector", str(vec), "--walkers", "10", "-o", str(prefix)]
    )
    assert code == 0
    dist = json.loads((tmp_path / "steady_distribution.json").read_text())
    assert math.fsum(e["p"] for e in dist) == pytest.approx(1.0, abs=1e-9)
    sizes = histogram_from_csv((tmp_path / "steady_clique_sizes.csv").read_text())
    assert set(sizes) <= set(range(2, 11))


def test_steady_contrast_between_vectors(tmp_path):
    means = {}
    for name, last in (("s33", 0.33), ("s96", 0.96)):
        vec = tmp_path / f"{name}.csv"
        rest = (1.0 - last) / 14.0
        vec.write_text(",".join([str(rest)] * 14 + [str(last)]) + "\n")
        prefix = tmp_path / name
        assert main(
            ["steady", "--vector", str(vec), "--walkers", "10", "-o", str(prefix)]
        ) == 0
        sizes = histogram_from_csv((tmp_path / f"{name}_clique_sizes.csv").read_text())
        means[name] = histogram_mean(sizes)
    assert means["s96"] > means["s33"]


def test_steady_multimodal_vector_normalizes(tmp_path, capsys):
    # Raw weights sum to 0.97; the CLI treats explicit vectors as weights.
    vec = tmp_path / "multi.csv"
    vec.write_text(",".join(["0.000833333333"] * 12 + ["0.32"] * 3) + "\n")
    assert main(["steady", "--vector", str(vec), "--walkers", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.fsum(e["p"] for e in doc["distribution"]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert sum(doc["steady_state"]) == pytest.approx(1.0, abs=1e-12)


def test_steady_from_policy_and_nonconvergence(tmp_path, capsys):
    policy = tmp_path / "policy.csv"
    policy.write_text("0.5,0.5\n0.5,0.5\n")
    assert main(["steady", "--policy", str(policy), "--walkers", "2"]) == 0
    capsys.readouterr()

    slow = tmp_path / "slow.csv"
    slow.write_text("0.999999999,1e-9\n2e-9,0.999999998\n")
    code = main(
        ["steady", "--policy", str(slow), "--walkers", "2", "--max-iters", "5"]
    )
    assert code == 1
    assert "no steady state reached" in capsys.readouterr().err


def test_steady_rejects_non_finite_input(tmp_path, capsys):
    for name, text in (("nan.csv", "0.5,nan\n"), ("inf.csv", "inf,0.5\n")):
        vec = tmp_path / name
        vec.write_text(text)
        assert main(["steady", "--vector", str(vec), "--walkers", "2"]) == 1
        assert "finite" in capsys.readouterr().err
    policy = tmp_path / "policy.csv"
    policy.write_text("0.5,0.5\nnan,1.0\n")
    assert main(["steady", "--policy", str(policy), "--walkers", "2"]) == 1
    assert "(1, 0) is not finite" in capsys.readouterr().err
    # A JSON input missing a field is named with where it was expected.
    for flag, doc, named in (
        ("--policy", {"rows": [[0.5, 0.5], [0.5, 0.5]]}, 'transition matrix JSON has no "n"'),
        ("--vector", {"p": [0.5, 0.5]}, 'steady vector JSON has no "probs"'),
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main(["steady", flag, str(path), "--walkers", "2"]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"


def test_steady_cross_check_passes(tmp_path):
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1,0.2,0.3,0.4\n")
    assert main(["steady", "--vector", str(vec), "--walkers", "4", "--cross-check",
                 "-o", str(tmp_path / "s")]) == 0


def test_steady_cross_check_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    import rwig.cli as cli_module

    real = cli_module.pmf_mod.unlabelled_steady_state_pmf_bruteforce

    def skewed(u, s_tilde):
        return real(u, s_tilde) + (1e-6 if u.n_cliques == 1 else 0.0)

    monkeypatch.setattr(
        cli_module.pmf_mod, "unlabelled_steady_state_pmf_bruteforce", skewed
    )
    vec = tmp_path / "vec.csv"
    vec.write_text("0.1,0.2,0.3,0.4\n")
    code = main(["steady", "--vector", str(vec), "--walkers", "4", "--cross-check"])
    assert code == 2
    assert "oracle mismatch" in capsys.readouterr().err


def test_steady_requires_common_policy(tmp_path, capsys):
    ens = random_ensemble(2, 2, seed=5)
    path = write_ensemble(tmp_path / "mixed.json", ens)
    assert main(["steady", "--ensemble", path, "--walkers", "2"]) == 1
    assert "common policy" in capsys.readouterr().err


def test_sample_is_reproducible(uniform2, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert main(
            ["sample", "--ensemble", uniform2, "--horizon", "10", "--seed", "7",
             "-o", str(out)]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_valid_and_invalid(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0 a b\n0 a c\n0 b c\n")
    assert main(["analyze", "--input", str(good)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["clique_size_histogram"] == {"3": 1.0}
    assert main(["analyze", "--input", str(good), "-o", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r_graphs.jsonl").read_text() == '{"t":0,"graph":[["a","b","c"]]}\n'

    bad = tmp_path / "bad.txt"
    bad.write_text("0 a b\n0 b c\n")
    assert main(["analyze", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "t=0" in err
    assert "['a', 'b', 'c']" in err
    assert "missing 1 pair" in err


def test_analyze_validates_each_snapshot_once(tmp_path, capsys, monkeypatch):
    validated = []
    original = ingest.validate_clique_union

    def counting(record):
        validated.append(record.timestamp)
        return original(record)

    monkeypatch.setattr(ingest, "validate_clique_union", counting)
    data = tmp_path / "data.txt"
    data.write_text("0 a b\n0 a c\n0 b c\n1 a b\n2 b c\n2 b d\n2 c d\n")
    roster = tmp_path / "roster.txt"
    roster.write_text("a\nb\nc\nd\n")
    assert main(["analyze", "--input", str(data), "--roster", str(roster)]) == 0
    capsys.readouterr()
    assert validated == [0, 1, 2]


def test_analyze_with_roster(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("0 a b\n")
    roster = tmp_path / "roster.txt"
    roster.write_text("a\nb\nc\n")
    assert main(["analyze", "--input", str(data), "--roster", str(roster)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["clique_count_histogram"] == {"2": 1.0}

    # Snapshot nodes outside the roster are an input error, not extra cliques.
    data.write_text("0 a b\n0 x y\n")
    roster.write_text("a\nb\n")
    assert main(["analyze", "--input", str(data), "--roster", str(roster)]) == 1
    assert "missing from the roster: x, y" in capsys.readouterr().err


def test_bench_csv_output(tmp_path, capsys):
    prefix = tmp_path / "bench"
    code = main(
        ["bench", "--m-range", "2", "--n-range", "2:3", "--iterations", "3",
         "--seed", "0", "-o", str(prefix)]
    )
    assert code == 0
    csv_lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "M,N,t_bruteforce,t_closed_form,ratio,timed_out"
    assert len(csv_lines) == 3
    grid = json.loads((tmp_path / "bench.json").read_text())
    assert grid["n_values"] == [2, 3]

    # Empty ranges, values below 1 and non-integers are input errors that
    # name their flag, not an empty grid or an error from deeper down.
    for flag, text, reason in (
        ("--m-range", "3:2", "empty range"),
        ("--n-range", "0", "at least 1"),
        ("--n-range", "2,-1", "at least 1"),
        ("--m-range", "a:b", "integers"),
        ("--n-range", "2,x", "integers"),
    ):
        ranges = {"--m-range": "2", "--n-range": "2", flag: text}
        argv = ["bench", "--iterations", "3"]
        for name, value in ranges.items():
            argv += [name, value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{flag} {text!r}" in err and reason in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("enumerate", "pmf", "steady", "sample", "analyze", "bench"):
        assert main([sub, "--help"]) == 0
        capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    assert main(["enumerate", "--walkers", "3", "--states", "3", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    assert main(["pmf", "--ensemble", "/nonexistent.json", "--time", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_unparseable_json_exits_one_with_location(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"n_states": 2,\n  "walkers": [}\n')
    assert main(["pmf", "--ensemble", str(broken), "--time", "0"]) == 1
    assert "line 2" in capsys.readouterr().err
