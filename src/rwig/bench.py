"""Wall-clock comparison of the two probability-distribution routes.

Cells run strictly sequentially on one thread; a warm-up evaluation per
method is discarded (it doubles as the correctness gate: both routes must
produce the same distribution before any timing is reported).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .markov import StateVector, TransitionMatrix, WalkerEnsemble

# Diagonal cells below this M = N take milliseconds, so their speedup ratios
# are timing noise and the soft check ignores them.
DIAGONAL_MIN_SIZE = 4


@dataclass
class BenchCell:
    """Timing of both routes for one (M, N) grid point, seconds wall clock."""

    m_walkers: int
    n_states: int
    t_bruteforce: float
    t_closed_form: float
    t_bruteforce_min: float
    t_closed_form_min: float
    timed_out: bool

    @property
    def ratio(self) -> float:
        return self.t_bruteforce / self.t_closed_form


def random_ensemble(m_walkers: int, n_states: int, seed) -> WalkerEnsemble:
    """Random walkers: policy rows and initial vectors from flat Dirichlet."""
    rng = np.random.default_rng(seed)
    walkers = []
    for i in range(m_walkers):
        s0 = StateVector(rng.dirichlet(np.ones(n_states)))
        policy = TransitionMatrix(rng.dirichlet(np.ones(n_states), size=n_states))
        walkers.append((f"w{i + 1}", s0, policy))
    return WalkerEnsemble(walkers)


def _time_method(run, iterations: int, budget_s: float) -> tuple[float, float, bool]:
    """Mean and min of ``run`` over up to ``iterations`` timed repeats."""
    times = []
    timed_out = False
    for _ in range(iterations):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
        if sum(times) > budget_s:
            timed_out = True
            break
    return sum(times) / len(times), min(times), timed_out


def benchmark_grid(
    m_range: Iterable[int],
    n_range: Iterable[int],
    iterations: int = 5,
    seed: int = 0,
    budget_s: float = 120.0,
) -> list[BenchCell]:
    """Time full-distribution computation over the (M, N) grid.

    Each cell gets its own deterministically derived random ensemble and a
    random small evaluation time.  A cell whose per-method time exceeds
    ``budget_s`` is marked timed out and the sweep continues.  Raises if the
    two routes disagree beyond 1e-9 anywhere, since a speedup of a wrong
    answer is meaningless.
    """
    # Imported here: building a random ensemble compiles no exact engine.
    from .pmf import full_distribution, max_deviation

    if iterations < 3:
        raise ValueError("iterations must be at least 3")
    cells = []
    for m in m_range:
        for n in n_range:
            rng = np.random.default_rng([seed, m, n])
            ensemble = random_ensemble(m, n, rng)
            k = int(rng.integers(1, 4))

            def run_closed():
                return full_distribution(ensemble, k, method="closed_form")

            def run_brute():
                return full_distribution(ensemble, k, method="bruteforce")

            # Warm-up both routes and gate on agreement before timing.
            dist_closed = run_closed()
            dist_brute = run_brute()
            worst = max_deviation(dist_closed, dist_brute)
            if worst > 1e-9:
                raise RuntimeError(
                    f"routes disagree at M={m}, N={n}: max deviation {worst:.3e}"
                )

            t_brute, t_brute_min, out_b = _time_method(run_brute, iterations, budget_s)
            t_closed, t_closed_min, out_c = _time_method(
                run_closed, iterations, budget_s
            )
            cells.append(
                BenchCell(
                    m_walkers=m,
                    n_states=n,
                    t_bruteforce=t_brute,
                    t_closed_form=t_closed,
                    t_bruteforce_min=t_brute_min,
                    t_closed_form_min=t_closed_min,
                    timed_out=out_b or out_c,
                )
            )
    for message in diagonal_ratio_regressions(cells):
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return cells


def diagonal_ratio_regressions(cells: Sequence[BenchCell]) -> list[str]:
    """Soft check: the speedup should grow with M along the M = N diagonal.

    A dip usually means timing noise (tiny instances or a busy machine), so
    callers get warnings rather than failures.  Cells below
    ``DIAGONAL_MIN_SIZE`` are not compared.
    """
    diagonal = [c for c in cells if c.m_walkers == c.n_states >= DIAGONAL_MIN_SIZE]
    diagonal = sorted((c for c in diagonal if not c.timed_out), key=lambda c: c.m_walkers)
    messages = []
    for earlier, later in zip(diagonal, diagonal[1:]):
        if later.ratio < earlier.ratio:
            messages.append(
                f"speedup ratio dipped along the diagonal: M=N={later.m_walkers} "
                f"gives {later.ratio:.2f} after {earlier.ratio:.2f} at "
                f"M=N={earlier.m_walkers}"
            )
    return messages


def cells_to_csv(cells: Sequence[BenchCell]) -> str:
    lines = ["M,N,t_bruteforce,t_closed_form,ratio,timed_out"]
    for c in cells:
        lines.append(
            f"{c.m_walkers},{c.n_states},{c.t_bruteforce!r},{c.t_closed_form!r},"
            f"{c.ratio!r},{str(c.timed_out).lower()}"
        )
    return "\n".join(lines) + "\n"


def cells_to_json(cells: Sequence[BenchCell]) -> str:
    """Grid layout suitable for heatmap rendering."""
    ms = sorted({c.m_walkers for c in cells})
    ns = sorted({c.n_states for c in cells})
    by_key = {(c.m_walkers, c.n_states): c for c in cells}
    grid = [[by_key[m, n].ratio if (m, n) in by_key else None for n in ns] for m in ms]
    return json.dumps(
        {
            "m_values": ms,
            "n_values": ns,
            "ratio": grid,
            "cells": [
                {
                    "M": c.m_walkers,
                    "N": c.n_states,
                    "t_bruteforce": c.t_bruteforce,
                    "t_closed_form": c.t_closed_form,
                    "t_bruteforce_min": c.t_bruteforce_min,
                    "t_closed_form_min": c.t_closed_form_min,
                    "ratio": c.ratio,
                    "timed_out": c.timed_out,
                }
                for c in cells
            ],
        },
        indent=2,
    )
