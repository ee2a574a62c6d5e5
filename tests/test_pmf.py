import io
import itertools
import json
import math

import numpy as np
import pytest

import rwig.pmf as pmf_module
from rwig.combinatorics import integer_partitions
from rwig.contact_graph import (
    ContactGraph,
    UnlabelledContactGraph,
    amass,
    enumerate_graphs,
    from_assignment,
    to_unlabelled,
)
from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble
from rwig.pmf import (
    GraphDistribution,
    ProbabilityError,
    distribution_clique_count_histogram,
    distribution_clique_size_histogram,
    full_distribution,
    labelled_steady_state_pmf,
    max_deviation,
    pmf_bruteforce,
    pmf_closed_form,
    sigma,
    sigma_expansion_terms,
    unlabelled_steady_state_distribution,
    unlabelled_steady_state_pmf,
    unlabelled_steady_state_pmf_bruteforce,
)
from rwig.combinatorics import set_partitions

from conftest import random_ensemble, table3_vector, uniform_ensemble


def assignment_distribution(ensemble, k):
    """Oracle: enumerate every joint state assignment and bin by graph.

    Completely independent of both pmf routes; cost N^M.
    """
    states = ensemble.state_matrix(k)
    dist = {}
    for assignment in itertools.product(range(ensemble.n_states), repeat=ensemble.n_walkers):
        p = 1.0
        for walker, state in enumerate(assignment):
            p *= states[walker, state]
        g = from_assignment(dict(zip(ensemble.labels, assignment)))
        dist[g] = dist.get(g, 0.0) + p
    return dist


# --- sigma --------------------------------------------------------------------


def test_sigma_singleton_is_one():
    ens = random_ensemble(3, 4, seed=1)
    for w in ens.labels:
        assert sigma([w], ens, 2) == pytest.approx(1.0, abs=1e-12)


def test_sigma_two_uniform_walkers():
    ens = uniform_ensemble(2, 2)
    assert sigma(["w1", "w2"], ens, 5) == pytest.approx(0.5, abs=1e-12)


def test_sigma_disjoint_support_is_zero():
    p = TransitionMatrix(np.eye(2))
    ens = WalkerEnsemble(
        [("a", StateVector.basis(2, 0), p), ("b", StateVector.basis(2, 1), p)]
    )
    assert sigma(["a", "b"], ens, 3) == 0.0


def test_sigma_rejects_bad_subsets():
    ens = uniform_ensemble(2, 2)
    with pytest.raises(ValueError):
        sigma([], ens, 0)
    with pytest.raises(KeyError):
        sigma(["nope"], ens, 0)


# --- closed form vs oracle ------------------------------------------------------


def test_one_clique_graph_equals_sigma():
    ens = random_ensemble(4, 3, seed=7)
    g = ContactGraph.from_cells([ens.labels])
    for k in (0, 1, 3):
        assert pmf_closed_form(g, ens, k) == pytest.approx(
            sigma(ens.labels, ens, k), abs=1e-12
        )


def test_two_clique_graph_inclusion_exclusion():
    ens = random_ensemble(3, 3, seed=11)
    g = ContactGraph.from_cells([["w1", "w2"], ["w3"]])
    expected = sigma(["w1", "w2"], ens, 2) * sigma(["w3"], ens, 2) - sigma(
        ens.labels, ens, 2
    )
    assert pmf_closed_form(g, ens, 2) == pytest.approx(expected, abs=1e-12)


def test_two_uniform_singletons():
    ens = uniform_ensemble(2, 2)
    g = ContactGraph.from_cells([["w1"], ["w2"]])
    assert pmf_closed_form(g, ens, 1) == pytest.approx(0.5, abs=1e-12)
    assert pmf_bruteforce(g, ens, 1) == pytest.approx(0.5, abs=1e-12)


def test_complete_graph_three_uniform_walkers():
    ens = uniform_ensemble(3, 3)
    g = ContactGraph.from_cells([ens.labels])
    assert pmf_bruteforce(g, ens, 4) == pytest.approx(1 / 9, abs=1e-12)


def test_more_cliques_than_states_is_impossible():
    ens = random_ensemble(3, 2, seed=3)
    g = ContactGraph.from_cells([["w1"], ["w2"], ["w3"]])
    assert pmf_closed_form(g, ens, 1) == 0.0
    assert pmf_bruteforce(g, ens, 1) == 0.0


def test_graph_must_partition_walker_set():
    ens = random_ensemble(3, 3, seed=5)
    with pytest.raises(ValueError):
        pmf_closed_form(ContactGraph.from_cells([["w1", "w2"]]), ens, 0)
    with pytest.raises(ValueError):
        pmf_bruteforce(ContactGraph.from_cells([["w1", "x"], ["w3"]]), ens, 0)


def test_routes_agree_on_random_ensembles():
    for m in range(1, 5):
        for n in range(1, 5):
            ens = random_ensemble(m, n, seed=(m, n))
            for k in (0, 1, 3):
                states = ens.state_matrix(k)
                cache = {}
                batched = full_distribution(ens, k)
                for g in enumerate_graphs(m, n, labels=ens.labels):
                    closed = pmf_closed_form(
                        g, ens, k, _states=states, _sigma_cache=cache
                    )
                    brute = pmf_bruteforce(g, ens, k, _states=states)
                    assert closed == pytest.approx(brute, abs=1e-10)
                    assert abs(batched.entries[g] - closed) <= 1e-15


def test_closed_form_matches_assignment_oracle():
    ens = random_ensemble(3, 3, seed=42)
    oracle = assignment_distribution(ens, 2)
    for g, expected in oracle.items():
        assert pmf_closed_form(g, ens, 2) == pytest.approx(expected, abs=1e-12)


# --- expansion structure ---------------------------------------------------------


def test_sigma_expansion_term_count_and_weights():
    g = ContactGraph.from_cells([["a"], ["b"], ["c"]])
    terms = list(sigma_expansion_terms(g))
    assert len(terms) == 5
    full = frozenset("abc")
    # Exactly one term amasses everything; its weight is +2 for three cliques.
    [(weight, _)] = [(w, a) for w, a in terms if a == (full,)]
    assert weight == 2


def test_full_clique_coefficient_by_clique_count():
    for m in range(1, 7):
        g = ContactGraph.from_cells([[f"w{i}"] for i in range(1, m + 1)])
        coefficient = sum(
            w for w, amassed in sigma_expansion_terms(g) if len(amassed) == 1
        )
        assert coefficient == (-1) ** (m - 1) * math.factorial(m - 1)


def test_probability_recursion_identity():
    # For every graph: the product of per-clique sigmas equals the graph's own
    # probability plus those of all its strictly coarser amassings.
    ens = random_ensemble(4, 4, seed=9)
    k = 1
    states = ens.state_matrix(k)
    cache = {}
    for g in enumerate_graphs(4, 4, labels=ens.labels):
        sigma_product = 1.0
        for cell in g.cliques.cells:
            sigma_product *= sigma(cell, ens, k)
        total = 0.0
        for pi in set_partitions(range(g.n_cliques)):
            total += pmf_closed_form(
                amass(g, pi), ens, k, _states=states, _sigma_cache=cache
            )
        assert total == pytest.approx(sigma_product, abs=1e-10)


# --- full distribution ------------------------------------------------------------


def test_full_distribution_two_uniform_walkers():
    dist = full_distribution(uniform_ensemble(2, 2), 1)
    pair = ContactGraph.from_cells([["w1", "w2"]])
    singles = ContactGraph.from_cells([["w1"], ["w2"]])
    assert dist.probability(pair) == pytest.approx(0.5, abs=1e-12)
    assert dist.probability(singles) == pytest.approx(0.5, abs=1e-12)


def test_full_distribution_three_uniform_walkers():
    # Frozen from enumerating all 27 state triples: the complete graph takes
    # 3/27, each of the three 2-clique graphs 6/27, the singleton graph 6/27.
    ens = uniform_ensemble(3, 3)
    dist = full_distribution(ens, 0)
    oracle = assignment_distribution(ens, 0)
    assert dist.total() == pytest.approx(1.0, abs=1e-9)
    for g, p in dist.entries.items():
        assert p == pytest.approx(oracle[g], abs=1e-12)
    complete = ContactGraph.from_cells([ens.labels])
    assert dist.probability(complete) == pytest.approx(1 / 9, abs=1e-12)
    singles = ContactGraph.from_cells([["w1"], ["w2"], ["w3"]])
    assert dist.probability(singles) == pytest.approx(2 / 9, abs=1e-12)


def test_full_distribution_single_walker():
    dist = full_distribution(uniform_ensemble(1, 5), 3)
    assert dist.entries == {ContactGraph.from_cells([["w1"]]): pytest.approx(1.0)}


def test_full_distribution_is_independent_of_the_chunk_cap(monkeypatch):
    ens = random_ensemble(6, 5, seed=3)
    whole = full_distribution(ens, 2).entries
    for cap in (1, 100):
        monkeypatch.setattr(pmf_module, "_GATHER_CAP", cap)
        assert full_distribution(ens, 2).entries == whole


def test_full_distribution_many_walkers_on_one_state():
    # One graph, evaluated without a table over the 2^M walker subsets; 70
    # walkers overflow 64-bit walker masks.
    for m in (40, 70):
        ens = uniform_ensemble(m, 1)
        dist = full_distribution(ens, 3)
        assert dist.entries == {ContactGraph.from_cells([ens.labels]): 1.0}


def test_closed_form_many_singleton_cliques():
    # 12 cliques: 4.2 million partitions, evaluated as a recursion over the
    # 4,096 subsets of cliques.
    ens = uniform_ensemble(12, 12)
    g = ContactGraph.from_cells([[w] for w in ens.labels])
    expected = math.factorial(12) / 12**12
    assert abs(pmf_closed_form(g, ens, 0) - expected) <= 1e-10 * expected


def test_batched_range_check_names_the_first_offending_graph(monkeypatch):
    # k = 0: the complete graph has probability 0, the two-clique graphs
    # ([w1, w3], [w2]) 0.6 and ([w1], [w2, w3]) 0.4, so scaling the weights
    # by 3 or -1 pushes both out of [0, 1] in the same batch.
    ens = WalkerEnsemble.common_policy(
        ["w1", "w2", "w3"],
        [StateVector(np.array(s0)) for s0 in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.4])],
        TransitionMatrix(np.eye(2)),
    )
    real = pmf_module.subset_expansion

    def scaled(factor):
        # The last level holds only the full set of cliques, so scaling its
        # weights scales every probability exactly.
        def expansion(m):
            *lower, (subsets, blocks, rests, weights, offsets) = real(m)
            return (*lower, (subsets, blocks, rests, factor * weights, offsets))

        return expansion

    for factor, where in ((3, "well above one"), (-1, "well below zero")):
        monkeypatch.setattr(pmf_module, "subset_expansion", scaled(factor))
        with pytest.raises(ProbabilityError) as err:
            full_distribution(ens, 0)
        message = str(err.value)
        assert "closed-form probability of [['w1', 'w3'], ['w2']]" in message
        assert where in message
    # Dust below zero is clamped, not raised.
    monkeypatch.setattr(pmf_module, "subset_expansion", scaled(-1e-12))
    assert set(full_distribution(ens, 0).entries.values()) == {0.0}


def test_write_json_matches_json_dumps():
    quoted = ['say "hi"', "back\\slash", "\u00e9t\u00e9", "\u96ea"]
    labelled = GraphDistribution(
        {
            ContactGraph.from_cells([quoted[:2], quoted[2:]]): 1e-300,
            ContactGraph.from_cells([quoted]): 1.0,
            ContactGraph.from_cells([[q] for q in quoted]): 0.0,
        }
    )
    integers = GraphDistribution(
        {
            ContactGraph.from_cells([[1, 2], [3]]): 0.75,
            ContactGraph.from_cells([[1], [2], [3]]): 0.25,
        }
    )
    steady = unlabelled_steady_state_distribution(6, table3_vector("s33", 4))
    computed = full_distribution(random_ensemble(4, 3, seed=8), 2)
    for dist in (labelled, integers, steady, computed, GraphDistribution({})):
        buf = io.StringIO()
        dist.write_json(buf)
        assert buf.getvalue() == json.dumps(dist.to_json_obj(), indent=2) + "\n"


def test_write_json_breaks_ties_in_graph_order():
    # Computed distributions sort from arrays; they must match a plain-dict
    # copy sorted by (-p, ContactGraph.sort_key) entry for entry.
    uniform = StateVector(np.full(3, 1 / 3))
    concentrated = WalkerEnsemble.common_policy(
        ["a", "b", "c", "d", "e"],
        [StateVector.basis(3, 0)] * 3 + [uniform] * 2,
        TransitionMatrix(np.eye(3)),
    )
    integers = WalkerEnsemble.common_policy(
        [10, 2, 33, 1, 4], [uniform] * 5, TransitionMatrix(np.full((3, 3), 1 / 3))
    )
    cases = (
        (uniform_ensemble(6, 4), 187),  # heavy ties
        (concentrated, 41),  # exact zeros
        (uniform_ensemble(10, 2), 512),  # "w10" sorts before "w2"
        (integers, 41),
    )
    for ens, size in cases:
        copy = GraphDistribution(dict(full_distribution(ens, 1).entries))
        ranked = sorted(copy.entries.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
        expected = [{"graph": g.to_json_obj(), "p": p} for g, p in ranked]
        assert len(expected) == size
        assert len({e["p"] for e in expected}) < size / 4
        assert copy.to_json_obj() == expected
        assert full_distribution(ens, 1).to_json_obj() == expected
        assert full_distribution(ens, 1).sorted_items() == ranked
        buf = io.StringIO()
        full_distribution(ens, 1).write_json(buf)
        assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"
    assert copy.probability(ContactGraph.from_cells([[1, 2], [4, 10, 33]])) > 0.0
    zeros = full_distribution(concentrated, 1).entries.values()
    assert sum(p == 0.0 for p in zeros) > 1


def test_full_distribution_writes_without_building_graphs(built_graphs):
    ens = random_ensemble(5, 4, seed=4)
    expected = io.StringIO()
    GraphDistribution(dict(full_distribution(ens, 2).entries)).write_json(expected)
    built_graphs.clear()
    dist = full_distribution(ens, 2)
    buf = io.StringIO()
    dist.write_json(buf)
    assert built_graphs == []
    assert buf.getvalue() == expected.getvalue()
    # Reading entries builds each graph once; later edits are what is written.
    entries = dist.entries
    assert len(built_graphs) == len(entries) == 51
    last = list(entries)[-1]
    before = entries[last]
    entries[last] = 2.0
    buf = io.StringIO()
    dist.write_json(buf)
    assert json.loads(buf.getvalue())[0] == {"graph": last.to_json_obj(), "p": 2.0}
    assert dist.total() == pytest.approx(3.0 - before, abs=1e-12)


def test_full_distribution_budget():
    ens = uniform_ensemble(5, 5)
    with pytest.raises(ValueError, match="unlabelled"):
        full_distribution(ens, 0, budget=10)


def test_full_distribution_bruteforce_method():
    ens = random_ensemble(3, 3, seed=2)
    closed = full_distribution(ens, 1, method="closed_form")
    brute = full_distribution(ens, 1, method="bruteforce")
    for g in closed.entries:
        assert closed.probability(g) == pytest.approx(brute.probability(g), abs=1e-12)
    # The brute force holds rows too, and streams what the json module writes.
    buf = io.StringIO()
    full_distribution(ens, 1, method="bruteforce").write_json(buf)
    copy = GraphDistribution(dict(brute.entries))
    assert buf.getvalue() == json.dumps(copy.to_json_obj(), indent=2) + "\n"
    with pytest.raises(ValueError):
        full_distribution(ens, 1, method="magic")


def test_max_deviation(built_graphs):
    assert max_deviation(GraphDistribution({}), GraphDistribution({})) == 0.0
    # Two computed distributions over the same rows compare aligned arrays,
    # building no graph, and agree with the comparison of their dict copies.
    a, b = (full_distribution(random_ensemble(4, 3, seed=s), 2) for s in (1, 2))
    aligned = max_deviation(a, b)
    assert built_graphs == []
    copies = [GraphDistribution(dict(d.entries)) for d in (a, b)]
    assert aligned > 0.0 and aligned == max_deviation(*copies)
    # Different graph sets: a graph missing from one side counts as 0 there.
    pair = ContactGraph.from_cells([["a", "b"]])
    split = ContactGraph.from_cells([["a"], ["b"]])
    both = GraphDistribution({pair: 0.5, split: 0.5})
    one = GraphDistribution({pair: 0.875})
    assert max_deviation(both, one) == max_deviation(one, both) == 0.5
    # Computed distributions over different rows fall back to the same rule.
    three, two = (full_distribution(uniform_ensemble(3, n), 0) for n in (3, 2))
    expected = max_deviation(
        GraphDistribution(dict(full_distribution(uniform_ensemble(3, 3), 0).entries)),
        GraphDistribution(dict(full_distribution(uniform_ensemble(3, 2), 0).entries)),
    )
    assert max_deviation(three, two) == expected == pytest.approx(2 / 9)


def test_distribution_serialization_sorted():
    ens = uniform_ensemble(3, 3)
    obj = full_distribution(ens, 0).to_json_obj()
    probs = [entry["p"] for entry in obj]
    assert probs == sorted(probs, reverse=True)

    pair = ContactGraph.from_cells([["w1", "w3"], ["w2"]])
    singles = ContactGraph.from_cells([["w1"], ["w2"], ["w3"]])
    complete = ContactGraph.from_cells([["w1", "w2", "w3"]])
    tied = GraphDistribution({singles: 0.25, pair: 0.25, complete: 0.5})
    obj = tied.to_json_obj()
    assert [e["p"] for e in obj] == [0.5, 0.25, 0.25]
    # Exact ties fall back to canonical graph order: fewer cliques first.
    assert obj[1]["graph"] == [["w1", "w3"], ["w2"]]
    assert obj[2]["graph"] == [["w1"], ["w2"], ["w3"]]


# --- steady state -----------------------------------------------------------------


def test_unlabelled_trivial_cases():
    assert unlabelled_steady_state_pmf(
        UnlabelledContactGraph.from_sizes([1]), StateVector([0.4, 0.6])
    ) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 4, 8):
        s = StateVector(np.full(n, 1.0 / n))
        assert unlabelled_steady_state_pmf(
            UnlabelledContactGraph.from_sizes([2]), s
        ) == pytest.approx(1.0 / n, abs=1e-12)


def test_unlabelled_rejects_too_many_cliques():
    with pytest.raises(ValueError):
        unlabelled_steady_state_pmf(
            UnlabelledContactGraph.from_sizes([1, 1, 1]), StateVector([0.5, 0.5])
        )


def test_unlabelled_routes_agree():
    s = table3_vector("multimodal", 5)
    for m in range(1, 8):
        for q in integer_partitions(m):
            if q.n_parts > 5:
                continue
            u = UnlabelledContactGraph(q)
            fast = unlabelled_steady_state_pmf(u, s)
            reference = unlabelled_steady_state_pmf_bruteforce(u, s)
            assert abs(fast - reference) <= 1e-10


def test_steady_state_relative_accuracy():
    # Relative, not absolute: the smallest of these sit near 4e-13.
    s = table3_vector("s96", 15)
    for q in integer_partitions(11):
        if q.n_parts > 4:
            continue
        u = UnlabelledContactGraph(q)
        fast = unlabelled_steady_state_pmf(u, s)
        reference = unlabelled_steady_state_pmf_bruteforce(u, s)
        assert abs(fast - reference) <= 1e-12 * reference


def test_unlabelled_distribution_matches_assignment_oracle():
    # Oracle: enumerate all N^M joint assignments of walkers sharing the
    # steady vector and bin by clique-size multiset.
    s = StateVector([0.1, 0.1, 0.1, 0.7])
    oracle = {}
    for assignment in itertools.product(range(4), repeat=4):
        p = math.prod(s.probs[i] for i in assignment)
        sizes = to_unlabelled(from_assignment(dict(enumerate(assignment))))
        oracle[sizes] = oracle.get(sizes, 0.0) + p

    dist = unlabelled_steady_state_distribution(4, s)
    assert dist.total() == pytest.approx(1.0, abs=1e-10)
    assert set(dist.entries) == set(oracle)
    for u, p in oracle.items():
        assert dist.probability(u) == pytest.approx(p, abs=1e-12)
    assert dist.argmax() == max(oracle, key=oracle.get)


def test_labelled_steady_state_sums_over_classes():
    s = table3_vector("s33", 5)
    for m in range(1, 6):
        grouped = {}
        for g in enumerate_graphs(m, 5):
            u = to_unlabelled(g)
            grouped[u] = grouped.get(u, 0.0) + labelled_steady_state_pmf(
                g.clique_sizes, s
            )
        for u, total in grouped.items():
            assert total == pytest.approx(
                unlabelled_steady_state_pmf(u, s), abs=1e-10
            )


# --- histograms over distributions --------------------------------------------------


def test_distribution_histograms():
    dist = GraphDistribution(
        {
            UnlabelledContactGraph.from_sizes([2, 1]): 0.5,
            UnlabelledContactGraph.from_sizes([3]): 0.25,
            UnlabelledContactGraph.from_sizes([1, 1, 1]): 0.25,
        }
    )
    sizes = distribution_clique_size_histogram(dist, min_size=2)
    assert sizes == {2: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}
    counts = distribution_clique_count_histogram(dist)
    assert counts == {1: 0.25, 2: 0.5, 3: 0.25}
    no_singles = distribution_clique_count_histogram(dist, include_singletons=False)
    assert no_singles == {0: 0.25, 1: 0.75}
    only_singles = GraphDistribution(
        {UnlabelledContactGraph.from_sizes([1, 1]): 1.0}
    )
    with pytest.raises(ValueError, match="empty histogram"):
        distribution_clique_size_histogram(only_singles, min_size=2)
    # Both histograms are normalized by the total weight, here 0.75.
    partial = GraphDistribution(
        {
            UnlabelledContactGraph.from_sizes([2, 1]): 0.5,
            UnlabelledContactGraph.from_sizes([3]): 0.25,
        }
    )
    for hist in (
        distribution_clique_size_histogram(partial, min_size=1),
        distribution_clique_count_histogram(partial),
    ):
        assert math.fsum(hist.values()) == pytest.approx(1.0, abs=1e-15)
