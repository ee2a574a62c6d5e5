import json

import numpy as np
import pytest

from rwig.bench import (
    BenchCell,
    benchmark_grid,
    cells_to_csv,
    cells_to_json,
    diagonal_ratio_regressions,
    random_ensemble,
)


def test_random_ensemble_is_deterministic():
    a = random_ensemble(3, 4, seed=9)
    b = random_ensemble(3, 4, seed=9)
    assert a.labels == b.labels
    assert np.array_equal(a.state_matrix(0), b.state_matrix(0))
    for (_, _, pa), (_, _, pb) in zip(a.walkers, b.walkers):
        assert np.array_equal(pa.entries, pb.entries)
    c = random_ensemble(3, 4, seed=10)
    assert not np.array_equal(a.state_matrix(0), c.state_matrix(0))


def test_tiny_grid_runs_and_reports_sane_cells():
    cells = benchmark_grid([2], [2], iterations=3, seed=0)
    [cell] = cells
    assert cell.m_walkers == 2 and cell.n_states == 2
    assert cell.t_bruteforce > 0 and cell.t_closed_form > 0
    assert cell.t_bruteforce_min <= cell.t_bruteforce
    assert not cell.timed_out
    # Tiny instances are noise-bound; the ratio only has to be finite-ish.
    assert 0.01 < cell.ratio < 100


def test_grid_covers_all_cells_in_order():
    cells = benchmark_grid([2, 3], [2, 3], iterations=3, seed=1)
    assert [(c.m_walkers, c.n_states) for c in cells] == [
        (2, 2),
        (2, 3),
        (3, 2),
        (3, 3),
    ]


def test_iterations_must_be_at_least_three():
    with pytest.raises(ValueError):
        benchmark_grid([2], [2], iterations=2)


def test_budget_marks_timeout_but_continues():
    cells = benchmark_grid([3, 4], [3], iterations=3, seed=0, budget_s=0.0)
    assert len(cells) == 2
    assert all(c.timed_out for c in cells)
    assert all(c.t_bruteforce > 0 for c in cells)


def test_diagonal_regression_check():
    def cell(m, ratio, timed_out=False):
        return BenchCell(m, m, ratio, 1.0, ratio, 1.0, timed_out)

    assert diagonal_ratio_regressions([cell(4, 2.0), cell(5, 3.0)]) == []
    [message] = diagonal_ratio_regressions([cell(4, 3.0), cell(5, 2.0)])
    assert "M=N=5" in message
    # Grids below M=N=4 are noise-bound and never warn.
    assert diagonal_ratio_regressions([cell(2, 0.76), cell(3, 0.74)]) == []
    # Timed-out and off-diagonal cells are ignored.
    off = BenchCell(4, 6, 9.0, 1.0, 9.0, 1.0, False)
    assert diagonal_ratio_regressions([cell(4, 3.0), off, cell(5, 2.0, True)]) == []


def test_csv_format():
    cell = BenchCell(4, 5, 0.2, 0.1, 0.18, 0.09, False)
    text = cells_to_csv([cell])
    header, row = text.strip().splitlines()
    assert header == "M,N,t_bruteforce,t_closed_form,ratio,timed_out"
    fields = row.split(",")
    assert fields[0] == "4" and fields[1] == "5"
    assert float(fields[4]) == pytest.approx(2.0)
    assert fields[5] == "false"


def test_json_grid_shape():
    cells = benchmark_grid([2, 3], [2], iterations=3, seed=2)
    doc = json.loads(cells_to_json(cells))
    assert doc["m_values"] == [2, 3]
    assert doc["n_values"] == [2]
    assert len(doc["ratio"]) == 2 and len(doc["ratio"][0]) == 1
    assert len(doc["cells"]) == 2
