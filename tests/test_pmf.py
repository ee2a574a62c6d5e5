import io
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import rwig.contact_graph as contact_graph_module
import rwig.pmf as pmf_module
from rwig.combinatorics import integer_partitions, restricted_growth_strings
from rwig.contact_graph import (
    ContactGraph,
    UnlabelledContactGraph,
    amass,
    cell_order,
    cell_sizes,
    enumerate_graphs,
    from_assignment,
    json_blocks,
    row_graphs,
    to_unlabelled,
)
from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble
from rwig.pmf import (
    GraphDistribution,
    ProbabilityError,
    clique_count_histogram,
    clique_size_histogram,
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
from rwig.simulate import empirical_distribution, jsonl_blocks, rows_to_jsonl

from conftest import (
    dict_count_histogram,
    dict_size_histogram,
    random_ensemble,
    table3_vector,
    uniform_ensemble,
)


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
    # A repeated walker would count its row twice.
    ens = random_ensemble(3, 3, seed=1)
    with pytest.raises(ValueError, match="walker 'w1' is repeated"):
        sigma(["w1", "w2", "w1"], ens, 2)


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
                # The trace counts every non-empty walker set that is a union
                # of some graph's cliques: all of them, or on one state only
                # the full set.
                assert len(cache) == (2**m - 1 if n >= 2 else 1)


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
    # walkers are more than a 64-bit word has bits, and its string of 1,000
    # grows more columns than Python's default recursion limit.
    for m in (40, 70, 1000):
        ens = uniform_ensemble(m, 1)
        dist = full_distribution(ens, 3)
        assert dist.entries == {ContactGraph.from_cells([ens.labels]): 1.0}


def test_closed_form_many_walkers_on_several_states():
    # Three cliques of 70 walkers on 3 states.  Both values are near 1.6e-32,
    # so only a relative bound can see an error.
    ens = random_ensemble(70, 3, seed=70)
    labels = ens.labels
    g = ContactGraph.from_cells([labels[:30], labels[30:55], labels[55:]])
    closed, brute = pmf_closed_form(g, ens, 2), pmf_bruteforce(g, ens, 2)
    assert 0.0 < brute < 1e-30
    assert abs(closed - brute) <= 1e-12 * brute


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
            full_distribution(ens, 0, method="closed_form")
        message = str(err.value)
        assert "closed-form probability of [['w1', 'w3'], ['w2']]" in message
        assert where in message
    # Dust below zero is clamped, not raised.
    monkeypatch.setattr(pmf_module, "subset_expansion", scaled(-1e-12))
    assert set(full_distribution(ens, 0, method="closed_form").entries.values()) == {0.0}


def concentrated_ensemble(m_walkers, n_states, off_mass, seed):
    """Walkers that sit on state 0: ``off_mass`` of s0 and of each policy row
    is spread (flat Dirichlet) over the other states."""
    rng = np.random.default_rng(seed)
    walkers = []
    for i in range(m_walkers):
        s0 = np.empty(n_states)
        s0[0] = 1.0 - off_mass
        s0[1:] = off_mass * rng.dirichlet(np.ones(n_states - 1))
        rows = np.empty((n_states, n_states))
        rows[:, 0] = 1.0 - off_mass
        rows[:, 1:] = off_mass * rng.dirichlet(np.ones(n_states - 1), size=n_states)
        walkers.append((f"w{i + 1}", StateVector(s0), TransitionMatrix(rows)))
    return WalkerEnsemble(walkers)


@pytest.mark.parametrize("m, n", [(8, 8), (10, 4)])
def test_dp_is_relatively_accurate_on_concentrated_walkers(m, n):
    # Most graphs here sit far below 1e-8, where the closed form's signed
    # terms cancel; the DP must keep 12 digits on every one of them.
    ens = concentrated_ensemble(m, n, 1e-3, seed=201)
    dist = full_distribution(ens, 2)
    sample = np.random.default_rng(1).choice(len(dist._rows), 200, replace=False)
    small = sample[dist._probs[sample] < 1e-8]
    assert len(small) >= 20
    states = ens.state_matrix(2)
    for row, g in zip(small.tolist(), row_graphs(dist._rows[small], dist._labels)):
        brute = pmf_bruteforce(g, ens, 2, _states=states)
        assert abs(dist._probs[row] - brute) <= 1e-12 * brute
    # Every graph is possible, and every one is written as a positive number.
    buf = io.StringIO()
    dist.write_json(buf)
    written = [e["p"] for e in json.loads(buf.getvalue())]
    assert len(written) == len(dist._rows) and min(written) > 0.0
    assert sorted(written) == sorted(dist._probs.tolist())
    assert abs(math.fsum(written) - 1.0) <= 1e-12


def looped_clique_weights(rows, walker_rows, m):
    """(N, m, G) clique weights by one product per walker, in walker order."""
    w = np.ones((walker_rows.shape[1], m, len(rows)))
    graphs = np.arange(len(rows))
    for p, row in enumerate(walker_rows):
        w[:, rows[:, p], graphs] *= row[:, None]
    return w


def test_clique_weights_match_a_loop_over_walkers(monkeypatch):
    ens = random_ensemble(9, 4, seed=11)
    walker_rows = ens.state_matrix(2)
    rows = np.concatenate(list(restricted_growth_strings(9, 4)))
    top = rows.max(axis=1)
    # One table multiplies in the loop's order, bit for bit.
    tables = pmf_module._walker_tables(walker_rows)
    assert len(tables) == 1
    for c in range(4):
        at = top == c
        looped = looped_clique_weights(rows[at], walker_rows, c + 1)
        assert np.array_equal(pmf_module._clique_weights(rows[at], tables, c + 1), looped)
    # Several tables group the factors differently: each side is within
    # (M - 1) / 2 eps relative of the exact product.
    monkeypatch.setattr(pmf_module, "_TABLE_WALKERS", 4)
    tables = pmf_module._walker_tables(walker_rows)
    assert [lo for lo, _ in tables] == [0, 3, 6]
    for c in range(4):
        at = top == c
        looped = looped_clique_weights(rows[at], walker_rows, c + 1)
        blocked = pmf_module._clique_weights(rows[at], tables, c + 1)
        assert np.all(np.abs(blocked - looped) <= (9 - 1) * np.finfo(float).eps * looped)
    monkeypatch.undo()
    # One graph on one state, past 64 walkers.
    rng = np.random.default_rng(5)
    for m_walkers in (70, 300):
        walker_rows = rng.uniform(0.99, 1.0, (m_walkers, 1))
        row = np.zeros((1, m_walkers), np.uint8)
        tables = pmf_module._walker_tables(walker_rows)
        assert len(tables) == -(-m_walkers // 16)
        looped = looped_clique_weights(row, walker_rows, 1)
        blocked = pmf_module._clique_weights(row, tables, 1)
        assert 0.99**m_walkers < looped[0, 0, 0] < 1.0
        assert abs(blocked - looped) <= (m_walkers - 1) * np.finfo(float).eps * looped


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
    # Labels the json module writes as arrays, over indented lines.
    tuples = [("a", 1), ("b", 2), ("c", (3, "d")), ()]
    ens = WalkerEnsemble(
        [(w, s0, p) for w, (_, s0, p) in zip(tuples, random_ensemble(4, 3, seed=8).walkers)]
    )
    arrays = full_distribution(ens, 2)
    # Values that the json module spells NaN, Infinity and -Infinity.
    nonfinite = GraphDistribution(
        {
            ContactGraph.from_cells([[1, 2], [3]]): float("nan"),
            ContactGraph.from_cells([[1], [2], [3]]): 0.5,
            ContactGraph.from_cells([[1, 3], [2]]): float("inf"),
            ContactGraph.from_cells([[1, 2, 3]]): -float("inf"),
        }
    )
    dists = (labelled, integers, steady, computed, arrays, nonfinite, GraphDistribution({}))
    for dist in dists:
        buf = io.StringIO()
        dist.write_json(buf)
        assert buf.getvalue() == json.dumps(dist.to_json_obj(), indent=2) + "\n"


@pytest.mark.parametrize("chunks", [None, (3, 5)])
def test_row_writers_escape_labels_in_both_layouts(chunks, monkeypatch):
    # Labels the json module escapes or writes as non-ASCII escapes, in a
    # computed and a sampled row distribution.  With chunks, every writer
    # runs with json_blocks formatting 3, then 5 rows to a block.
    quoted = ['say "hi"', "back\\slash", "\u00e9t\u00e9", "\u96ea"]
    ens = WalkerEnsemble(
        [(q, s0, p) for q, (_, s0, p) in zip(quoted, random_ensemble(4, 3, seed=8).walkers)]
    )
    computed = full_distribution(ens, 2)
    sampled = empirical_distribution(ens, 2, 20, seed=5)
    assert (len(computed.entries), len(sampled.entries)) == (14, 9)
    for block_rows in chunks or (None,):
        if block_rows is not None:
            monkeypatch.setattr(contact_graph_module, "_JSON_ROWS", block_rows)
        for dist in (computed, sampled):
            rows, labels = dist._rows, dist._labels
            assert labels == tuple(sorted(quoted))
            expected = json.dumps(dist.to_json_obj(), indent=2) + "\n"
            copy = GraphDistribution(dict(dist.entries))
            assert expected == json.dumps(copy.to_json_obj(), indent=2) + "\n"
            buf = io.StringIO()
            dist.write_json(buf)
            assert buf.getvalue() == expected
            graphs = [g.to_json_obj() for g in row_graphs(rows, labels)]
            compact = [json.dumps(g, separators=(",", ":")) + "\n" for g in graphs]
            assert "".join(json_blocks(rows, labels, tail=("\n",))) == "".join(compact)
            times = range(10, 10 + len(rows))
            lines = "".join(
                json.dumps({"t": t, "graph": g}, separators=(",", ":")) + "\n"
                for t, g in zip(times, graphs)
            )
            assert rows_to_jsonl(times, rows, labels) == lines
            # The rows as pieces that come one by one, split again into
            # blocks, their per-row column read across the pieces.
            pieces = iter(np.split(rows, [1, 5]))
            assert "".join(jsonl_blocks(iter(times), pieces, labels)) == lines


def tie_cases() -> dict:
    """Ensembles whose distributions at k = 1 hold long runs of equal
    probabilities, and their graph counts."""
    uniform = StateVector(np.full(3, 1 / 3))
    concentrated = WalkerEnsemble.common_policy(
        ["a", "b", "c", "d", "e"],
        [StateVector.basis(3, 0)] * 3 + [uniform] * 2,
        TransitionMatrix(np.eye(3)),
    )
    integers = WalkerEnsemble.common_policy(
        [10, 2, 33, 1, 4], [uniform] * 5, TransitionMatrix(np.full((3, 3), 1 / 3))
    )
    return {
        "heavy ties": (uniform_ensemble(6, 4), 187),
        "exact zeros": (concentrated, 41),
        '"w10" sorts before "w2"': (uniform_ensemble(10, 2), 512),
        "integers": (integers, 41),
    }


def ranked_by_graph_order(ens) -> list:
    """A plain-dict copy of ``full_distribution(ens, 1)`` sorted by
    (-p, ContactGraph.sort_key)."""
    copy = GraphDistribution(dict(full_distribution(ens, 1).entries))
    return sorted(copy.entries.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))


def test_write_json_breaks_ties_in_graph_order():
    # Computed distributions sort from arrays; they must match a plain-dict
    # copy sorted by (-p, ContactGraph.sort_key) entry for entry.
    for ens, size in tie_cases().values():
        copy = GraphDistribution(dict(full_distribution(ens, 1).entries))
        ranked = ranked_by_graph_order(ens)
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
    zeros = full_distribution(tie_cases()["exact zeros"][0], 1).entries.values()
    assert sum(p == 0.0 for p in zeros) > 1


@pytest.mark.parametrize("case", ["heavy ties", "exact zeros"])
def test_write_json_breaks_ties_across_blocks(case, monkeypatch):
    # Seven rows to a block: runs of equal probabilities straddle blocks.
    monkeypatch.setattr(contact_graph_module, "_JSON_ROWS", 7)
    ens, size = tie_cases()[case]
    ranked = ranked_by_graph_order(ens)
    probs = [p for _, p in ranked]
    assert any(probs[i - 1] == probs[i] for i in range(7, size, 7))
    buf = io.StringIO()
    full_distribution(ens, 1).write_json(buf)
    expected = [{"graph": g.to_json_obj(), "p": p} for g, p in ranked]
    assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"


def test_row_order_breaks_ties_on_keys_of_several_words():
    # 20 walkers on 3 states: the tie-break key has up to 24 columns, and
    # most sampled graphs tie on a count of 1 in 200.
    dist = empirical_distribution(random_ensemble(20, 3, seed=2), 1, 200, seed=4)
    ranked = sorted(dist.entries.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
    assert len({p for _, p in ranked}) < len(ranked) / 4
    assert dist.sorted_items() == ranked
    buf = io.StringIO()
    dist.write_json(buf)
    expected = [{"graph": g.to_json_obj(), "p": p} for g, p in ranked]
    assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"


def test_row_order_sorts_only_tied_runs_by_graph():
    # Runs of equal probabilities among distinct ones: a uniform ensemble,
    # sampled counts, and 0.0 beside -0.0, which tie but print apart.  The
    # graphs come in reverse, so that their rows' order is not the key's.
    graphs = list(enumerate_graphs(4, 3))[::-1]
    values = [0.25, 0.0, -0.0, 1e-300, 0.125, -0.0, 0.25, 0.5, 0.0]
    signed = GraphDistribution({g: values[i % len(values)] for i, g in enumerate(graphs)})
    sampled = empirical_distribution(random_ensemble(6, 3, seed=5), 1, 300, seed=3)
    for dist in (full_distribution(uniform_ensemble(5, 3), 1), sampled, signed):
        items = list(dist.entries.items())
        reference = sorted(range(len(items)), key=lambda i: (-items[i][1], items[i][0].sort_key()))
        probs = dist._probs.tolist()
        assert any(probs.count(p) > 1 for p in probs)
        assert dist._row_order().tolist() == reference
        buf = io.StringIO()
        dist.write_json(buf)
        expected = [{"graph": items[i][0].to_json_obj(), "p": items[i][1]} for i in reference]
        assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"
    assert '"p": -0.0' in json.dumps(signed.to_json_obj())
    assert min(len(set(d._probs.tolist())) for d in (sampled, signed)) >= 5


def test_groups_are_the_rows_stable_argsort():
    # Keys of 8, 16 and 32 bits: 6, 20 and 300 walkers.  The rows of 20 and
    # 300 walkers come again with about a third of their labels absent (-1),
    # in int8 and int16, as first_position_rows holds them.
    rng = np.random.default_rng(5)
    inputs = [
        full_distribution(random_ensemble(6, 4, seed=2), 2)._rows,
        empirical_distribution(random_ensemble(20, 3, seed=2), 1, 200, seed=4)._rows,
        empirical_distribution(random_ensemble(300, 5, seed=1), 3, 50, seed=7)._rows,
    ]
    for rows, dtype in zip(inputs[1:], (np.int8, np.int16)):
        inputs.append(np.where(rng.random(rows.shape) < 1 / 3, -1, rows).astype(dtype))
    for rows in inputs:
        assert np.array_equal(cell_order(rows), np.argsort(rows, axis=1, kind="stable"))


def test_full_distribution_writes_without_building_graphs(built_graphs, monkeypatch):
    ens = random_ensemble(5, 4, seed=4)
    expected = io.StringIO()
    given = GraphDistribution(dict(full_distribution(ens, 2).entries))
    given.write_json(expected)
    twin = full_distribution(ens, 2, method="bruteforce")
    assert len(twin.entries) == 51
    sampled = GraphDistribution(dict(empirical_distribution(ens, 2, 400, seed=7).entries))
    built_graphs.clear()
    dist = full_distribution(ens, 2)
    buf = io.StringIO()
    dist.write_json(buf)
    assert dist.to_json_obj() == given.to_json_obj()
    empirical = empirical_distribution(ens, 2, 400, seed=7)
    assert empirical.to_json_obj() == sampled.to_json_obj()
    assert built_graphs == []
    assert "entries" not in vars(dist) and "entries" not in vars(empirical)
    assert buf.getvalue() == expected.getvalue()
    # Reading entries builds each graph once and keeps the rows, so writing
    # and comparing still run on the arrays, not through the entries.
    assert len(dist.entries) == len(built_graphs) == 51

    def refuse(*args):
        raise AssertionError("read through the entries")

    monkeypatch.setattr(GraphDistribution, "sorted_items", refuse)
    monkeypatch.setattr(GraphDistribution, "probability", refuse)
    buf = io.StringIO()
    dist.write_json(buf)
    assert buf.getvalue() == expected.getvalue()
    assert max_deviation(dist, twin) == max_deviation(twin, dist) < 1e-12


def test_total_reads_the_rows(built_graphs):
    ens = random_ensemble(5, 4, seed=4)
    dist = full_distribution(ens, 2)
    total = dist.total()
    # The sum came from the probability array: no graph, no entries.
    assert built_graphs == []
    assert "entries" not in vars(dist)
    assert total == math.fsum(dist.entries.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_argmax_and_sorted_items_read_the_rows(built_graphs):
    # argmax builds the one graph it returns, the first maximum in row order
    # as max over the entries picks it; sorted_items builds each graph once
    # and leaves entries unbuilt.
    for ens in (random_ensemble(5, 4, seed=4), uniform_ensemble(4, 4)):
        dist = full_distribution(ens, 1)
        built_graphs.clear()
        best = dist.argmax()
        assert built_graphs == [best]
        items = dist.sorted_items()
        assert "entries" not in vars(dist)
        assert built_graphs[1:] == [g for g, _ in items]
        assert len(set(built_graphs[1:])) == len(items) == len(dist._rows)
        assert best == max(dist.entries, key=dist.entries.get)
        ranked = sorted(dist.entries.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
        assert items == ranked
    steady = unlabelled_steady_state_distribution(6, table3_vector("multimodal", 5))
    assert steady.argmax() == max(steady.entries, key=steady.entries.get)
    with pytest.raises(ValueError):
        GraphDistribution({}).argmax()


def test_entries_are_read_only():
    source = {ContactGraph.from_cells([["a", "b"]]): 1.0}
    given = GraphDistribution(source)
    computed = full_distribution(random_ensemble(3, 2, seed=1), 1)
    for dist in (given, computed):
        first = next(iter(dist.entries))
        with pytest.raises(TypeError):
            dist.entries[first] = 0.5
    # A distribution holds a copy of the dict it was built from.
    source.clear()
    assert given.total() == 1.0


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


def test_unlabelled_ties_sort_by_clique_sizes():
    # Exact ties across clique counts sort as the clique sizes, largest
    # first, compare as tuples: (2, 1, 1) before (3, 1), in any insertion
    # order.
    sizes = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    probs = [0.25, 0.125, 0.25, 0.125, 0.25]
    for order in itertools.permutations(range(len(sizes))):
        entries = {UnlabelledContactGraph.from_sizes(sizes[i]): probs[i] for i in order}
        ranked = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0].clique_sizes.parts))
        dist = GraphDistribution(entries)
        assert dist.sorted_items() == ranked
        obj = dist.to_json_obj()
        assert obj == [{"graph": list(u.clique_sizes.parts), "p": p} for u, p in ranked]
        buf = io.StringIO()
        dist.write_json(buf)
        assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"
    assert [e["graph"] for e in obj] == [[1, 1, 1, 1], [2, 2], [4], [2, 1, 1], [3, 1]]


def test_empty_distribution_writes_an_empty_list():
    empty = GraphDistribution({})
    buf = io.StringIO()
    empty.write_json(buf)
    assert buf.getvalue() == "[]\n"
    assert empty.to_json_obj() == [] and empty.sorted_items() == []
    assert empty.total() == 0.0


def test_distribution_refuses_malformed_dicts():
    pair = ContactGraph.from_cells([["a", "b"]])
    other = ContactGraph.from_cells([["a"], ["c"]])
    with pytest.raises(ValueError, match=r"graph \[\['a', 'b'\]\] lacks walker 'c'"):
        GraphDistribution({pair: 0.5, other: 0.5})
    sizes = UnlabelledContactGraph.from_sizes([1, 1])
    mixed = "all UnlabelledContactGraph, not ContactGraph, UnlabelledContactGraph$"
    with pytest.raises(ValueError, match=mixed):
        GraphDistribution({pair: 0.5, sizes: 0.5})
    with pytest.raises(ValueError, match=r"graph \[1, 1\] lacks walker 3: every graph"):
        GraphDistribution({sizes: 0.5, UnlabelledContactGraph.from_sizes([3]): 0.5})
    with pytest.raises(ValueError, match="not str$"):
        GraphDistribution({"ab": 1.0})
    # Integer probabilities are held as floats.
    for key in (pair, sizes):
        dist = GraphDistribution({key: 1})
        assert type(dist.entries[key]) is float
        assert dist.to_json_obj() == [{"graph": key.to_json_obj(), "p": 1.0}]


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


@pytest.mark.parametrize("n", [150, 171, 300])
def test_steady_state_all_singletons_stay_exact(n):
    # n walkers on n uniform states, all apart: n!/n^n, a value whose
    # factorial fix-up once underflowed to 0.0 (n = 150) or overflowed (171).
    exact = float(Fraction(math.factorial(n), n**n))
    s = StateVector.uniform(n)
    labelled = labelled_steady_state_pmf((1,) * n, s)
    unlabelled = unlabelled_steady_state_pmf(UnlabelledContactGraph.from_sizes((1,) * n), s)
    for p in (labelled, unlabelled):
        assert abs(p - exact) <= 1e-13 * exact


def test_steady_state_multiplicity_past_the_float_range_names_the_sizes():
    # 160 pairs have about 1e331 labellings; the labelled value beside it
    # underflows, and no float holds the count.
    u = UnlabelledContactGraph.from_sizes((2,) * 160)
    message = f"multiplicity of clique sizes {[2] * 160} passes the float range (about 1e331)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        unlabelled_steady_state_pmf(u, StateVector.uniform(200))


def test_steady_distribution_relative_accuracy():
    s = table3_vector("s96", 15)
    dist = unlabelled_steady_state_distribution(11, s)
    checked = 0
    for u, p in dist.entries.items():
        if u.n_cliques <= 4:
            reference = unlabelled_steady_state_pmf_bruteforce(u, s)
            assert abs(p - reference) <= 1e-12 * reference
            checked += 1
    assert checked == sum(q.n_parts <= 4 for q in integer_partitions(11))
    # Nine ninths sum to 1 + 2^-52: dust above one comes back as exactly 1.0.
    ninths = StateVector(np.full(9, 1 / 9))
    assert unlabelled_steady_state_distribution(1, ninths)._probs.tolist() == [1.0]


@pytest.mark.parametrize("n_states", [2, 5])
def test_steady_distribution_rows_are_the_dict_layout(n_states):
    # Rows pour walkers 1..M into cliques of non-increasing size, as a dict
    # of UnlabelledContactGraph keys is converted, so --cross-check compares
    # aligned arrays.
    s = table3_vector("s33", n_states)
    for m in range(1, 9):
        dist = unlabelled_steady_state_distribution(m, s)
        rebuilt = GraphDistribution(dict(dist.entries))
        assert np.array_equal(dist._rows, rebuilt._rows)
        assert dist._labels is rebuilt._labels is None
    dist = unlabelled_steady_state_distribution(6, table3_vector("multimodal", 5))
    row = dist._rows[list(dist.entries).index(UnlabelledContactGraph.from_sizes([3, 2, 1]))]
    assert row.tolist() == [0, 0, 0, 1, 1, 2]


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


def test_labelled_steady_state_edge_cases(monkeypatch):
    # More cliques than states cannot be placed.
    assert labelled_steady_state_pmf([1, 1, 1], StateVector([0.5, 0.5])) == 0.0
    # Nine ninths sum to 1.0000000000000002, which is dust above one and
    # comes back as exactly 1.0.
    seen = []
    real = pmf_module._in_range
    monkeypatch.setattr(
        pmf_module, "_in_range", lambda p, what: seen.append(p.tolist()) or real(p, what)
    )
    assert labelled_steady_state_pmf([1], StateVector(np.full(9, 1 / 9))) == 1.0
    assert seen == [[1.0000000000000002]]


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


def test_row_histograms_match_the_graph_path(built_graphs):
    # A row distribution's histograms come from its rows, building no
    # graph, bit for bit as the dict oracles pool the clique sizes of its
    # entries.
    ens = random_ensemble(6, 4, seed=3)
    for dist in (full_distribution(ens, 2), empirical_distribution(ens, 2, 500, seed=9)):
        built_graphs.clear()
        sizes = {m: distribution_clique_size_histogram(dist, m) for m in (1, 2, 3)}
        counts = {i: distribution_clique_count_histogram(dist, i) for i in (True, False)}
        assert built_graphs == [] and "entries" not in vars(dist)
        pairs = [(g.clique_sizes, p) for g, p in dist.entries.items()]
        for m, hist in sizes.items():
            assert list(hist.items()) == list(dict_size_histogram(pairs, m).items())
        for include, hist in counts.items():
            assert list(hist.items()) == list(dict_count_histogram(pairs, include).items())


def test_clique_histograms_take_cell_sizes():
    # The kernels take a cell_sizes matrix (rows may lack walkers) and
    # optional weights, against the dict oracles, order included.
    rows = np.array([[0, 0, 1, -1], [0, 1, 2, 2], [0, 0, 0, 0], [-1, 0, -1, 1]])
    sizes = cell_sizes(rows)
    for weights in (None, np.array([0.5, 0.125, 0.25, 0.125])):
        ones = [1.0] * len(rows) if weights is None else weights.tolist()
        pairs = list(zip([(2, 1), (1, 1, 2), (4,), (1, 1)], ones))
        for m in (1, 2, 3):
            hist = clique_size_histogram(sizes, weights, m)
            assert list(hist.items()) == list(dict_size_histogram(pairs, m).items())
        for include in (True, False):
            hist = clique_count_histogram(sizes, weights, include)
            assert list(hist.items()) == list(dict_count_histogram(pairs, include).items())
        with pytest.raises(ValueError, match="empty histogram"):
            clique_size_histogram(sizes, weights, 5)
    with pytest.raises(ValueError, match="min_size must be positive"):
        clique_size_histogram(sizes, None, 0)


def test_distribution_histograms_keep_exact_zeros():
    # Row distributions with many exact-zero probabilities, against the
    # histograms of their entries pooled in dicts.  The second ensemble
    # pins d apart from a, b and c, so size 5 and count 1 get weight 0.0.
    uniform = StateVector(np.full(3, 1 / 3))
    pinned = [StateVector.basis(3, 0)] * 3
    ensembles = [
        WalkerEnsemble.common_policy(
            ["a", "b", "c", "d", "e"], pinned + starts, TransitionMatrix(np.eye(3))
        )
        for starts in ([uniform] * 2, [StateVector.basis(3, 1), uniform])
    ]
    zeros = []
    for ens in ensembles:
        dist = full_distribution(ens, 1)
        assert dist._rows is not None
        pairs = [(g.clique_sizes, p) for g, p in dist.entries.items()]
        assert sum(p == 0.0 for _, p in pairs) > len(pairs) / 2
        for min_size in (1, 2, 3):
            hist = distribution_clique_size_histogram(dist, min_size=min_size)
            assert hist == dict_size_histogram(pairs, min_size)
            assert list(hist) == sorted(hist)
            zeros += [q for q, p in hist.items() if p == 0.0]
        for include in (True, False):
            hist = distribution_clique_count_histogram(dist, include_singletons=include)
            assert hist == dict_count_histogram(pairs, include)
            assert list(hist) == sorted(hist)
            zeros += [c for c, p in hist.items() if p == 0.0]
    assert zeros == [5, 5, 5, 1]
