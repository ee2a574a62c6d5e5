"""Shared oracles and input builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rwig.bench import random_ensemble
from rwig.contact_graph import ContactGraph
from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble


def reference_partitions(labels) -> list[list[list]]:
    """Enumerate set partitions by element insertion.

    Deliberately a different algorithm from the package's growth-string
    enumerator, so the two can check each other.
    """
    labels = list(labels)
    if not labels:
        return [[]]
    first, rest = labels[0], labels[1:]
    out = []
    for sub in reference_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [[first] + sub[i]] + sub[i + 1 :])
        out.append([[first]] + sub)
    return out


def as_cell_sets(cells) -> frozenset:
    """Representation-free form of a partition for comparisons."""
    return frozenset(frozenset(c) for c in cells)


def table3_vector(kind: str, n: int) -> StateVector:
    """Steady-state vectors in the style of the benchmark scenarios.

    "s33"/"s96": the first n-1 states share the leftover mass and the last
    state holds 0.33 or 0.96.  "multimodal": three heavy states at 0.32 and
    a 1/1200 floor elsewhere, normalized (the raw weights do not sum to 1).
    """
    if kind in ("s33", "s96"):
        last = 0.33 if kind == "s33" else 0.96
        v = np.full(n, (1.0 - last) / (n - 1))
        v[-1] = last
    elif kind == "multimodal":
        if n < 4:
            raise ValueError("multimodal vector needs at least 4 states")
        v = np.full(n, 1.0 / 1200.0)
        v[-3:] = 0.32
        v = v / v.sum()
    else:
        raise ValueError(f"unknown vector kind {kind!r}")
    return StateVector(v / v.sum())


def dict_size_histogram(weighted_sizes, min_size: int = 2) -> dict[int, float]:
    """The clique-size histogram pooled in a dict, one weight at a time: an
    oracle for ``pmf.clique_size_histogram`` that shares none of its code."""
    pooled: dict[int, float] = {}
    for sizes, weight in weighted_sizes:
        for q in sizes:
            if q >= min_size:
                pooled[q] = pooled.get(q, 0.0) + weight
    total = math.fsum(pooled.values())
    if total == 0.0:
        raise ValueError("empty histogram: no cliques at or above min_size")
    return {q: w / total for q, w in sorted(pooled.items())}


def dict_count_histogram(weighted_sizes, include_singletons: bool = True) -> dict[int, float]:
    """The clique-count histogram pooled in a dict: an oracle for
    ``pmf.clique_count_histogram`` that shares none of its code."""
    hist: dict[int, float] = {}
    for sizes, weight in weighted_sizes:
        count = len(sizes) if include_singletons else sum(1 for q in sizes if q > 1)
        hist[count] = hist.get(count, 0.0) + weight
    total = math.fsum(hist.values())
    if total == 0.0:
        raise ValueError("empty histogram: no realisations")
    return {c: w / total for c, w in sorted(hist.items())}


def rank_one_policy(s_tilde: StateVector) -> TransitionMatrix:
    """Policy whose every row is the target vector: stationary by design."""
    n = s_tilde.n_states
    return TransitionMatrix(np.tile(s_tilde.probs, (n, 1)))


def uniform_ensemble(m: int, n: int) -> WalkerEnsemble:
    """All walkers uniform initially, under the uniform mixing policy."""
    policy = TransitionMatrix(np.full((n, n), 1.0 / n))
    return WalkerEnsemble.common_policy(
        [f"w{i}" for i in range(1, m + 1)],
        [StateVector(np.full(n, 1.0 / n))] * m,
        policy,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


__all__ = [
    "as_cell_sets",
    "dict_count_histogram",
    "dict_size_histogram",
    "random_ensemble",
    "rank_one_policy",
    "reference_partitions",
    "table3_vector",
    "uniform_ensemble",
]


@pytest.fixture
def built_graphs(monkeypatch) -> list:
    """Every ``ContactGraph`` constructed during the test, in order."""
    built = []
    real_init = ContactGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ContactGraph, "__init__", counting_init)
    return built
