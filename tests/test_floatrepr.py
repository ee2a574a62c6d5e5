import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwig.contact_graph import _JSON_ROWS
from rwig.floatrepr import json_reprs
from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble
from rwig.pmf import full_distribution


def _oracle_doubles() -> np.ndarray:
    """Over a million finite doubles: random bit patterns, random values at
    every exponent, each power of two and its neighbours, the subnormals'
    least values, and both sides of repr's layout thresholds."""
    rng = np.random.default_rng(20201)
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    at_every_exponent = np.repeat(exponents, 200) | rng.integers(
        0, 1 << 52, 2047 * 200, dtype=np.uint64
    )
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    thresholds = np.array([1e-4, 1e-5, 1e16, 1e15, 1.0, 0.1, 123.5, 5e-324, 1e-323])
    edges = [np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)]
    values = np.concatenate([
        rng.integers(0, 1 << 64, 600_000, dtype=np.uint64).view(np.float64),
        at_every_exponent.view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        np.arange(1, 5000, dtype=np.uint64).view(np.float64),
        thresholds, *edges, -thresholds,
        [0.0, -0.0, 1.0],
    ])
    return values[np.isfinite(values)]


def test_reprs_match_float_repr_on_a_million_doubles():
    values = _oracle_doubles()
    assert len(values) >= 10**6
    blocks = (json_reprs(values[lo : lo + (1 << 18)]) for lo in range(0, len(values), 1 << 18))
    got = [text for block in blocks for text in block]
    want = list(map(repr, values.tolist()))
    if got != want:
        mismatches = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
        raise AssertionError(f"{len(mismatches)} mismatches, the first {mismatches[:5]}")


def test_reprs_spell_the_smallest_subnormals_and_layouts():
    values = [5e-324, 1e-323, 1e-4, 9.999999999999999e-05, 1e-5, 1e16, 9999999999999998.0,
              1e15, 0.0, -0.0, 1.0, -1.5, 1e22, 1.7976931348623157e308]
    assert json_reprs(np.array(values)) == [
        "5e-324", "1e-323", "0.0001", "9.999999999999999e-05", "1e-05", "1e+16",
        "9999999999999998.0", "1000000000000000.0", "0.0", "-0.0", "1.0", "-1.5", "1e+22",
        "1.7976931348623157e+308",
    ]
    special = [np.nan, np.inf, -np.inf, -np.nan]
    assert json_reprs(np.array(special)) == [json.dumps(v) for v in special]
    assert json_reprs(np.array(special)) == ["NaN", "Infinity", "-Infinity", "NaN"]
    assert json_reprs(np.array([])) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([5e-324, -5e-324, 2.2250738585072014e-308, 0.1 + 0.2])
def test_reprs_match_float_repr(values):
    assert json_reprs(np.array(values, np.float64)) == list(map(repr, values))


def _concentrated(m: int, n: int, off_mass: float, seed: int) -> WalkerEnsemble:
    # Walkers that sit on state 0 but for off_mass spread over the others.
    rng = np.random.default_rng(seed)
    walkers = []
    for i in range(m):
        s0 = np.r_[1.0 - off_mass, off_mass * rng.dirichlet(np.ones(n - 1))]
        rows = np.c_[
            np.full(n, 1.0 - off_mass), off_mass * rng.dirichlet(np.ones(n - 1), size=n)
        ]
        walkers.append((f"w{i + 1}", StateVector(s0), TransitionMatrix(rows)))
    return WalkerEnsemble(walkers)


def test_write_json_spans_blocks_of_tiny_probabilities():
    dist = full_distribution(_concentrated(9, 4, 1e-3, seed=3), 2)
    probs = dist._probs
    assert len(probs) > 2 * _JSON_ROWS
    assert 0.0 < probs.min() < 1e-20
    buf = io.StringIO()
    dist.write_json(buf)
    assert buf.getvalue() == json.dumps(dist.to_json_obj(), indent=2) + "\n"
