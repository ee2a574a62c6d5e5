import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwig.markov import (
    StateVector,
    SteadyStateError,
    TransitionMatrix,
    WalkerEnsemble,
    ensemble_from_json,
    ensemble_to_json,
    load_vector,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_json,
    propagate,
    steady_state,
    uniform_policy,
    validate_policy,
    vector_to_json,
)


TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
PATH3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def stochastic(rows):
    arr = np.asarray(rows, dtype=float)
    return TransitionMatrix(arr / arr.sum(axis=1, keepdims=True))


# --- construction -----------------------------------------------------------


def test_transition_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        TransitionMatrix([[0.5, 0.4], [0.5, 0.5]])  # row sums 0.9
    with pytest.raises(ValueError):
        TransitionMatrix([[1.1, -0.1], [0.5, 0.5]])  # out of range
    with pytest.raises(ValueError):
        TransitionMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # not square
    # Every comparison with NaN is false, so range and row-sum checks pass it.
    with pytest.raises(ValueError, match=r"\(0, 0\) is not finite"):
        TransitionMatrix([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"\(1, 1\) is not finite"):
        TransitionMatrix([[0.5, 0.5], [0.0, np.inf]])


def test_transition_matrix_refuses_to_repair():
    # Close to stochastic but outside tolerance: reject, never renormalize.
    with pytest.raises(ValueError):
        TransitionMatrix([[0.5 + 1e-9, 0.5], [0.5, 0.5]])


def test_state_vector_validation():
    v = StateVector([0.25, 0.75])
    assert v.n_states == 2
    with pytest.raises(ValueError):
        StateVector([0.5, 0.6])
    with pytest.raises(ValueError):
        StateVector([-0.1, 1.1])
    with pytest.raises(ValueError, match="1 is nan, not finite"):
        StateVector([1.0, np.nan])
    with pytest.raises(ValueError, match="0 is inf, not finite"):
        StateVector([np.inf, 0.0])
    assert StateVector.basis(3, 1).probs.tolist() == [0.0, 1.0, 0.0]


def test_values_are_immutable():
    p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        p.entries[0, 0] = 1.0


# --- uniform_policy / validate_policy ----------------------------------------


def test_uniform_policy_triangle():
    p = uniform_policy(TRIANGLE)
    assert np.allclose(p.entries, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])


def test_uniform_policy_path_middle_row():
    p = uniform_policy(PATH3)
    assert p.entries[1].tolist() == [0.5, 0.0, 0.5]


def test_uniform_policy_star():
    star = [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
    p = uniform_policy(star)
    assert np.allclose(p.entries[0], [0, 1 / 3, 1 / 3, 1 / 3])


def test_uniform_policy_isolated_node():
    with pytest.raises(ValueError, match="zero degree row"):
        uniform_policy([[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_uniform_policy_respects_its_own_support():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        adj = np.triu((rng.random((n, n)) < 0.6).astype(float), k=1)
        adj = adj + adj.T
        if np.any(adj.sum(axis=1) == 0):
            continue
        assert validate_policy(uniform_policy(adj), adj) == []


def test_validate_policy():
    p = uniform_policy(TRIANGLE)
    assert validate_policy(p, TRIANGLE) == []
    off_support = TransitionMatrix([[0.9, 0, 0.1], [0, 1, 0], [0, 0, 1]])
    assert validate_policy(off_support, PATH3) == [(0, 2)]
    identity = TransitionMatrix(np.eye(3))
    assert validate_policy(identity, TRIANGLE) == []  # staying put is allowed
    with pytest.raises(ValueError):
        validate_policy(p, [[0, 1], [1, 0]])


# --- propagate ----------------------------------------------------------------


def test_propagate_identity():
    s = StateVector.basis(3, 0)
    assert propagate(s, TransitionMatrix(np.eye(3)), 100) == s


def test_propagate_swap_parity():
    swap = TransitionMatrix([[0, 1], [1, 0]])
    s = StateVector.basis(2, 0)
    assert propagate(s, swap, 3).probs.tolist() == [0.0, 1.0]
    assert propagate(s, swap, 4).probs.tolist() == [1.0, 0.0]


def test_propagate_one_step_to_uniform():
    p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    out = propagate(StateVector([1.0, 0.0]), p, 1)
    assert out.probs.tolist() == [0.5, 0.5]


def test_propagate_k_zero_returns_input():
    s = StateVector([0.3, 0.7])
    assert propagate(s, TransitionMatrix([[0, 1], [1, 0]]), 0) is s


def test_propagate_long_run_stays_normalized():
    p = uniform_policy(TRIANGLE)
    out = propagate(StateVector([1.0, 0.0, 0.0]), p, 10_000)
    assert abs(out.probs.sum() - 1.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_propagate_semigroup(rows, a, b):
    policy = stochastic(rows)
    s = StateVector([0.2, 0.3, 0.5])
    direct = propagate(s, policy, a + b)
    stepped = propagate(propagate(s, policy, a), policy, b)
    assert np.allclose(direct.probs, stepped.probs, atol=1e-10)


# --- steady_state --------------------------------------------------------------


def test_steady_state_doubly_stochastic():
    p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(steady_state(p).probs, [0.5, 0.5], atol=1e-12)


def test_steady_state_path_graph():
    # Oracle: solve s = sP directly; for an unbiased walk on a graph the
    # stationary mass of a node is degree / (2 L), here [1/4, 1/2, 1/4].
    p = uniform_policy(PATH3)
    n = p.n_states
    lhs = np.vstack([p.entries.T - np.eye(n), np.ones(n)])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    oracle, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    assert np.allclose(oracle, [0.25, 0.5, 0.25], atol=1e-12)

    found = steady_state(p)
    assert np.allclose(found.probs, oracle, atol=1e-9)
    assert np.abs(found.probs @ p.entries - found.probs).max() <= 1e-12


def test_steady_state_periodic_chain_returns_fixed_point():
    # A two-state swap chain is periodic, but its stationary vector exists
    # and is unique; the damped iteration finds it.
    swap = TransitionMatrix([[0, 1], [1, 0]])
    assert np.allclose(steady_state(swap).probs, [0.5, 0.5], atol=1e-12)


def test_steady_state_reports_non_convergence():
    # A nearly-reducible chain with a non-uniform stationary vector mixes
    # far too slowly for 10 iterations.
    sticky = TransitionMatrix([[1 - 1e-9, 1e-9], [2e-9, 1 - 2e-9]])
    with pytest.raises(SteadyStateError, match="no steady state reached") as err:
        steady_state(sticky, tol=1e-12, max_iters=10)
    assert err.value.residual > 0


def test_steady_state_validates_arguments():
    p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        steady_state(p, tol=0.0)
    # NaN never satisfies the residual test, and inf accepts the start
    # vector of any chain; both are refused, naming the value.
    sticky = TransitionMatrix([[0.9, 0.1], [0.6, 0.4]])
    for tol in (float("nan"), float("inf"), -1e-12):
        with pytest.raises(ValueError, match=f"got {tol!r}$"):
            steady_state(sticky, tol=tol)
    with pytest.raises(ValueError):
        steady_state(p, max_iters=0)


# --- WalkerEnsemble ------------------------------------------------------------


def test_ensemble_validation():
    p = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    s = StateVector([1.0, 0.0])
    with pytest.raises(ValueError):
        WalkerEnsemble([])
    with pytest.raises(ValueError):
        WalkerEnsemble([("a", s, p), ("a", s, p)])
    with pytest.raises(ValueError):
        WalkerEnsemble([("a", s, p), ("b", StateVector([1, 0, 0]), p)])


def test_ensemble_state_matrix():
    p = TransitionMatrix([[0, 1], [1, 0]])
    ens = WalkerEnsemble(
        [("a", StateVector.basis(2, 0), p), ("b", StateVector.basis(2, 1), p)]
    )
    assert ens.state_matrix(0).tolist() == [[1, 0], [0, 1]]
    assert ens.state_matrix(1).tolist() == [[0, 1], [1, 0]]
    assert ens.labels == ("a", "b")
    assert ens.index == {"a": 0, "b": 1}


# --- file formats ---------------------------------------------------------------


def test_matrix_json_roundtrip():
    p = uniform_policy(TRIANGLE)
    assert matrix_from_json(matrix_to_json(p)) == p
    with pytest.raises(ValueError):
        matrix_from_json({"n": 3, "rows": [[1.0]]})


def test_vector_formats(tmp_path):
    v = StateVector([0.25, 0.75])
    as_json, as_csv = tmp_path / "v.json", tmp_path / "v.csv"
    as_json.write_text(json.dumps(vector_to_json(v)))
    assert load_vector(str(as_json)) == v
    as_csv.write_text("0.25,0.75\n")
    assert load_vector(str(as_csv)) == v
    # Weights separated by commas or whitespace, normalized.
    as_csv.write_text("1\n 3\n")
    assert load_vector(str(as_csv)) == v
    as_csv.write_text("0.25,-0.75\n")
    with pytest.raises(ValueError, match="non-negative"):
        load_vector(str(as_csv))
    as_json.write_text(json.dumps({"p": [1.0]}))
    with pytest.raises(ValueError, match='steady vector JSON has no "probs"'):
        load_vector(str(as_json))


def test_matrix_csv():
    assert matrix_from_csv("0,1\n1,0\n") == TransitionMatrix([[0, 1], [1, 0]])


def test_ensemble_json_roundtrip_and_support_rule():
    p = uniform_policy(TRIANGLE)
    ens = WalkerEnsemble.common_policy(
        ["w1", "w2"], [StateVector.basis(3, 0), StateVector.basis(3, 1)], p
    )
    doc = ensemble_to_json(ens)
    again = ensemble_from_json(json.loads(json.dumps(doc)))
    assert again.labels == ens.labels
    assert np.array_equal(again.state_matrix(0), ens.state_matrix(0))

    doc["adjacency"] = TRIANGLE
    ensemble_from_json(doc)  # uniform policy respects its own support

    doc["adjacency"] = PATH3
    with pytest.raises(ValueError, match="off the underlying graph"):
        ensemble_from_json(doc)
