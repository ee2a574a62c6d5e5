import io
import json
import re
from collections import Counter

import numpy as np
import pytest

import rwig.contact_graph as contact_graph
import rwig.simulate as simulate
from rwig.contact_graph import ContactGraph, from_assignment
from rwig.markov import StateVector, TransitionMatrix, WalkerEnsemble, ensemble_to_json
from rwig.pmf import full_distribution
from rwig.simulate import (
    ContactSequence,
    clique_count_distribution,
    clique_size_distribution,
    empirical_distribution,
    histogram_from_csv,
    histogram_to_csv,
    mean_clique_size,
    replica_seed,
    sample_sequence,
    sequence_to_jsonl,
    snapshots_from_jsonl,
    snapshots_to_jsonl,
)

from conftest import random_ensemble, rank_one_policy, table3_vector, uniform_ensemble


def test_deterministic_ensemble_gives_constant_sequence():
    identity = TransitionMatrix(np.eye(3))
    ens = WalkerEnsemble(
        [
            ("w1", StateVector.basis(3, 0), identity),
            ("w2", StateVector.basis(3, 0), identity),
            ("w3", StateVector.basis(3, 2), identity),
        ]
    )
    seq = sample_sequence(ens, 10, seed=99)
    expected = ContactGraph.from_cells([["w1", "w2"], ["w3"]])
    assert all(g == expected for g in seq.snapshots)
    assert len(seq) == 11


def test_lockstep_swap_walkers_stay_together():
    swap = TransitionMatrix([[0, 1], [1, 0]])
    ens = WalkerEnsemble(
        [("a", StateVector.basis(2, 0), swap), ("b", StateVector.basis(2, 0), swap)]
    )
    seq = sample_sequence(ens, 20, seed=0)
    k2 = ContactGraph.from_cells([["a", "b"]])
    assert all(g == k2 for g in seq.snapshots)


def test_sampling_is_deterministic_given_seed():
    ens = random_ensemble(4, 5, seed=8)
    a = sample_sequence(ens, 50, seed=1234)
    b = sample_sequence(ens, 50, seed=1234)
    assert a == b
    assert sequence_to_jsonl(a) == sequence_to_jsonl(b)
    c = sample_sequence(ens, 50, seed=1235)
    assert a != c


def test_sequence_equality_reads_rows(built_graphs):
    # A sequence converted from graphs holds intp rows, a sampled one small
    # rows: they compare and hash by value, without building snapshots.
    sampled = sample_sequence(random_ensemble(5, 3, seed=6), 40, seed=11)
    graphs = list(sampled.snapshots)
    other = ContactGraph.from_cells([[w] for w in sampled._labels])
    assert other != graphs[17]
    changed = graphs[:17] + [other] + graphs[18:]
    built_graphs.clear()
    fresh = sample_sequence(random_ensemble(5, 3, seed=6), 40, seed=11)
    converted = ContactSequence(graphs, seed=11)
    assert converted._rows.dtype != fresh._rows.dtype
    assert converted == fresh and hash(converted) == hash(fresh)
    assert len({converted, fresh}) == 1
    assert ContactSequence(changed, seed=11) != fresh
    assert ContactSequence(graphs, seed=12) != fresh
    assert built_graphs == []
    assert "snapshots" not in vars(fresh) and "snapshots" not in vars(converted)


def test_replica_seed_rule():
    assert replica_seed(5, 0) == 5
    assert replica_seed(5, 3) == 5 ^ 3


def test_empirical_single_replica_is_point_mass():
    ens = uniform_ensemble(3, 3)
    dist = empirical_distribution(ens, 2, replicas=1, seed=0)
    assert list(dist.entries.values()) == [1.0]


def test_empirical_matches_exact_for_two_walkers():
    ens = uniform_ensemble(2, 2)
    replicas = 20_000
    dist = empirical_distribution(ens, 1, replicas=replicas, seed=3)
    pair = ContactGraph.from_cells([["w1", "w2"]])
    assert dist.probability(pair) == pytest.approx(0.5, abs=0.02)
    assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-12)


def test_empirical_matches_full_distribution():
    ens = random_ensemble(3, 3, seed=21)
    replicas = 30_000
    emp = empirical_distribution(ens, 2, replicas=replicas, seed=11)
    exact = full_distribution(ens, 2)
    for g, p in exact.entries.items():
        bound = 4.0 * np.sqrt(p * (1 - p) / replicas)
        assert abs(emp.probability(g) - p) <= bound


def test_empirical_frequencies_are_exact_counts():
    replicas = 3000
    dist = empirical_distribution(random_ensemble(4, 3, seed=7), 2, replicas, seed=1)
    assert all(p == round(p * replicas) / replicas for p in dist.entries.values())
    # Graphs seen equally often come in canonical order.
    written = [(-round(p * replicas), g.sort_key()) for g, p in dist.sorted_items()]
    assert written == sorted(written)


def test_clique_size_distribution():
    snap = ContactGraph.from_cells([["a", "b"], ["c"]])
    assert clique_size_distribution([snap], min_size=2) == {2: 1.0}
    snap2 = ContactGraph.from_cells([["a", "b"], ["c", "d"], ["e", "f", "g"]])
    hist = clique_size_distribution([snap2], min_size=2)
    assert hist == {2: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}
    singles = ContactGraph.from_cells([["a"], ["b"]])
    with pytest.raises(ValueError, match="empty histogram"):
        clique_size_distribution([singles], min_size=2)


def test_clique_size_distribution_pools_sequences():
    seq = ContactSequence(
        (
            ContactGraph.from_cells([["a", "b"], ["c"]]),
            ContactGraph.from_cells([["a", "b", "c"]]),
        ),
        seed=0,
    )
    hist = clique_size_distribution([seq], min_size=2)
    assert hist == {2: 0.5, 3: 0.5}


def test_clique_histograms_read_sequence_rows(built_graphs):
    # Sequences of 6 and 4 walkers, pooled with loose graphs: the histograms
    # of their rows equal those of their snapshots, and build no graph.
    def source():
        return [
            sample_sequence(random_ensemble(6, 3, seed=2), 30, seed=5),
            ContactGraph.from_cells([["x", "y", "z"]]),
            sample_sequence(random_ensemble(4, 2, seed=3), 25, seed=8),
        ]

    graphs = [g for item in source() for g in getattr(item, "snapshots", [item])]
    readers = (
        lambda s: clique_size_distribution(s),
        lambda s: clique_size_distribution(s, min_size=1),
        lambda s: clique_count_distribution(s),
        lambda s: clique_count_distribution(s, include_singletons=False),
        lambda s: mean_clique_size(s),
    )
    expected = [read(graphs) for read in readers]
    sequences = source()
    built_graphs.clear()
    assert [read(sequences) for read in readers] == expected
    assert built_graphs == []


def test_clique_count_distribution():
    one = ContactGraph.from_cells([["a", "b"], ["c"]])
    assert clique_count_distribution([one]) == {2: 1.0}
    three = ContactGraph.from_cells([["a"], ["b"], ["c"]])
    five = ContactGraph.from_cells([["a"], ["b"], ["c"], ["d"], ["e"]])
    assert clique_count_distribution([three, five]) == {3: 0.5, 5: 0.5}
    km = ContactGraph.from_cells([["a", "b", "c", "d"]])
    assert clique_count_distribution([km]) == {1: 1.0}
    assert clique_count_distribution([one], include_singletons=False) == {1: 1.0}
    # Snapshots of different sizes pool, a graph of no walkers has no clique,
    # and anything but a graph or a sequence is refused.
    empty = ContactGraph.from_cells([])
    assert clique_count_distribution([empty, one, five]) == {0: 1 / 3, 2: 1 / 3, 5: 1 / 3}
    with pytest.raises(TypeError, match="expected ContactSequence or ContactGraph"):
        clique_count_distribution([one, [["a"]]])


def test_mean_clique_size():
    g = ContactGraph.from_cells([["a", "b", "c"], ["d"]])
    assert mean_clique_size([g]) == 2.0
    assert mean_clique_size([g], min_size=2) == 3.0


def test_sequence_jsonl_roundtrip():
    ens = random_ensemble(3, 3, seed=4)
    seq = sample_sequence(ens, 5, seed=77)
    text = sequence_to_jsonl(seq)
    parsed = snapshots_from_jsonl(text)
    assert [t for t, _ in parsed] == list(range(6))
    assert tuple(g for _, g in parsed) == seq.snapshots
    pairs = [(3, seq.snapshots[0]), (8, seq.snapshots[1])]
    assert snapshots_from_jsonl(snapshots_to_jsonl(pairs)) == pairs


def test_histogram_csv_roundtrip():
    hist = {2: 0.625, 3: 0.375}
    text = histogram_to_csv(hist)
    assert text.splitlines()[0] == "value,probability"
    assert histogram_from_csv(text) == hist


def draw(probs, u) -> int:
    """Inverse-CDF draw from one row: its count of cumulative values <= u,
    at most the last state."""
    cum = np.cumsum(probs)
    return min(int(np.count_nonzero(cum <= u)), len(cum) - 1)


def reference_walk(ensemble, horizon: int, seed: int) -> list[ContactGraph]:
    """The sampler spelled out per walker and per step: one rng.random(M)
    per time, an inverse-CDF draw from each walker's own row, and the graph
    through from_assignment."""
    rng = np.random.default_rng(seed)
    walkers = ensemble.walkers
    u = rng.random(len(walkers))
    states = [draw(s0.probs, x) for (_, s0, _), x in zip(walkers, u)]
    graphs = [from_assignment(dict(zip(ensemble.labels, states)))]
    for _ in range(horizon):
        u = rng.random(len(walkers))
        states = [
            draw(policy.entries[s], x) for (_, _, policy), s, x in zip(walkers, states, u)
        ]
        graphs.append(from_assignment(dict(zip(ensemble.labels, states))))
    return graphs


def coarse_ensemble(m: int, n: int, seed: int) -> WalkerEnsemble:
    """Random walkers whose rows are small integer weights over their sum:
    most rows hold zero-probability transitions, so a row repeats its
    cumulative values and rows share them."""
    rng = np.random.default_rng(seed)
    walkers = []
    for i in range(m):
        weights = rng.integers(0, 3, size=(n + 1, n)).astype(float)
        weights[np.arange(n + 1), rng.integers(n, size=n + 1)] += 1
        probs = weights / weights.sum(axis=1, keepdims=True)
        walkers.append((f"w{i}", StateVector(probs[0]), TransitionMatrix(probs[1:])))
    return WalkerEnsemble(walkers)


def edge_uniforms(ensemble, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Uniforms of the given (..., M) shape, half of them drawn from each
    walker's cumulative values, their neighbouring doubles, 0.0 and values
    of at least 1."""
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    for w, (_, s0, policy) in enumerate(ensemble.walkers):
        cum = np.concatenate([np.cumsum(s0.probs), np.cumsum(policy.entries, axis=1).ravel()])
        edges = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 2), [0.0, 1.0, 1.5]])
        pick = rng.random(shape[:-1]) < 0.5
        u[..., w][pick] = rng.choice(edges, size=int(pick.sum()))
    return u


def reference_states(ensemble, uniforms: np.ndarray) -> np.ndarray:
    """The walk spelled out per walker and per time: the first M uniforms
    draw the initial states, each later M a policy step."""
    walkers = ensemble.walkers
    states = [draw(s0.probs, x) for (_, s0, _), x in zip(walkers, uniforms[0])]
    out = [states]
    for u in uniforms[1:]:
        states = [draw(p.entries[s], x) for (_, _, p), s, x in zip(walkers, states, u)]
        out.append(states)
    return np.array(out)


@pytest.mark.parametrize("short", [None, "_WALK_ELEMENTS"])
@pytest.mark.parametrize(
    "m, n, seed", [(3, 1, 0), (4, 2, 1), (4, 3, 2), (6, 4, 3), (2, 6, 4), (40, 2, 5)]
)
def test_walk_matches_per_step_reference(m, n, seed, short, monkeypatch):
    # The step table holds M (N (N - 1) + 1) N entries: a cap of exactly
    # that builds it, one less keeps the per-step gather.
    ensemble = coarse_ensemble(m, n, seed)
    cap = m * (n * (n - 1) + 1) * n
    monkeypatch.setattr(simulate, "_WALK_ELEMENTS", cap - (short is not None))
    table = short is None
    cum0, cum_policy = simulate._walk_tables(ensemble)
    step_table = simulate._step_table(cum_policy)
    assert (step_table is not None) == table
    times, replicas = 30, 5
    u = edge_uniforms(ensemble, (times, replicas, m), seed)
    expected = np.stack([reference_states(ensemble, u[:, r]) for r in range(replicas)], 1)

    def walk(uniforms, lookup=None):
        return np.array(list(simulate._walk_states(cum0, cum_policy, uniforms, lookup)))

    # The gather and the table walk the replicas together, a step at a
    # time as empirical_distribution does, and one replica at a time; the
    # table also walks a replica's steps at once, as rwig sample does.
    np.testing.assert_array_equal(walk(u), expected)
    if table:
        np.testing.assert_array_equal(walk(u, step_table), expected)
    for r in range(replicas):
        np.testing.assert_array_equal(walk(u[:, r]), expected[:, r])
        if table:
            np.testing.assert_array_equal(walk(u[:, r], step_table), expected[:, r])
            tabled = simulate._table_walk(cum0, step_table, u[:, r])
            np.testing.assert_array_equal(tabled, expected[:, r])
    seq = sample_sequence(ensemble, 50, seed)
    assert seq == ContactSequence(reference_walk(ensemble, 50, seed), seed)


def crowded_ensemble(n: int) -> WalkerEnsemble:
    """Two walkers whose cumulative values crowd into a few buckets of the
    step table: a rank-one policy on criterion 7's s96 vector, whose every
    value repeats N times below 0.04, and rows of many tiny entries beside
    one large one, first or last, whose values crowd near 0 and near 1."""
    start = StateVector(np.full(n, 1 / n))
    tiny = np.full((n, n), 1e-12)
    tiny[np.arange(n), np.arange(n) % 2 * (n - 1)] = 1 - (n - 1) * 1e-12
    rank_one = rank_one_policy(table3_vector("s96", n))
    return WalkerEnsemble([("a", start, rank_one), ("b", start, TransitionMatrix(tiny))])


@pytest.mark.parametrize("n", [2, 3, 15, 40])
def test_intervals_pass_crowded_breaks_exactly(n):
    # The rank-one walker has N - 1 distinct breaks, each N times a row
    # value.  Uniforms sit on and beside every value, on every bucket's
    # lower edge, at 0.0 and at 1 and past it.
    ensemble = crowded_ensemble(n)
    cum0, cum_policy = simulate._walk_tables(ensemble)
    lookup = simulate._step_table(cum_policy)
    breaks, buckets, _ = lookup
    m, n_buckets = buckets.shape
    breaks = breaks.reshape(m, -1)
    assert np.isfinite(breaks[0]).sum() == n - 1
    edges = np.arange(n_buckets + 1) / n_buckets
    u = np.concatenate([edge_uniforms(ensemble, (500, m), n), np.stack([edges] * m, 1)])
    at = simulate._intervals(lookup, u)
    for w in range(m):
        expected = np.searchsorted(breaks[w], u[:, w], "right")
        np.testing.assert_array_equal(at[:, w] - w * breaks.shape[1], expected)
    # The walk through those intervals is the per-step reference walk.
    expected = reference_states(ensemble, u)
    np.testing.assert_array_equal(simulate._table_walk(cum0, lookup, u), expected)
    walk = simulate._walk_states(cum0, cum_policy, u[:, None], lookup)
    np.testing.assert_array_equal(np.array(list(walk))[:, 0], expected)


def cumulative_rows(m: int, n: int, seed: int) -> np.ndarray:
    """Cumulative policy rows (M x N x N) without an ensemble: half the
    walkers' rows in multiples of 1/8, whose values fall on the edges of
    few buckets, and half from flat Dirichlet."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=(m, n))
    eighths = rng.multinomial(8, np.ones(n) / n, size=(m, n)) / 8
    rows[: m // 2] = eighths[: m // 2]
    return np.cumsum(rows, axis=2)


@pytest.mark.parametrize(
    "m, n, table",
    [
        (43690, 2, True),
        (43691, 2, False),
        (700, 3, True),
        (300, 8, True),
        (1000, 6, True),
        (1000, 7, False),
        (20, 23, True),
        (20, 24, False),
        (100, 15, False),
    ],
)
def test_step_table_is_built_exactly_when_it_fits(m, n, table):
    # Whatever M N is: the table holds M (N (N - 1) + 1) N entries at most.
    assert (m * (n * (n - 1) + 1) * n <= simulate._WALK_ELEMENTS) == table
    lookup = simulate._step_table(cumulative_rows(m, n, m + n))
    assert (lookup is not None) == table
    if table:
        assert max(a.size for a in lookup) <= simulate._WALK_ELEMENTS


@pytest.mark.parametrize("m, n", [(700, 3), (300, 8)])
def test_walks_past_two_thousand_walker_states_take_the_table(m, n, monkeypatch):
    # M N > 2,048 with a table that fits: the sampler and the replicas walk
    # through it, and give the per-step reference's graphs.
    ensemble, seed = random_ensemble(m, n, seed=m), 5
    assert m * n > 2048
    assert simulate._step_table(simulate._walk_tables(ensemble)[1]) is not None
    calls = Counter()
    real = simulate._intervals
    monkeypatch.setattr(simulate, "_intervals", lambda *a: calls.update([1]) or real(*a))
    seq = sample_sequence(ensemble, 4, seed)
    assert seq == ContactSequence(reference_walk(ensemble, 4, seed), seed)
    k, replicas = 2, 12
    dist = empirical_distribution(ensemble, k, replicas, seed)
    counts = reference_empirical(ensemble, k, replicas, seed)
    assert dict(dist.entries) == {g: c / replicas for g, c in counts.items()}
    # One lookup for the sampler's block and one per policy step of the replicas.
    assert calls[1] == 1 + k


def test_intervals_in_few_buckets():
    # The largest M whose table fits at N = 2: the cap leaves four buckets
    # to a walker with up to two breaks.
    m, n = 43690, 2
    cum_policy = cumulative_rows(m, n, 11)
    cum0 = cum_policy[:, 0]
    lookup = simulate._step_table(cum_policy)
    breaks, buckets, table = lookup
    assert buckets.shape == (m, 4)
    assert max(breaks.size, buckets.size, table.size) <= simulate._WALK_ELEMENTS
    breaks = breaks.reshape(m, -1)
    # Bucket b of walker w holds w (D + 1) + the count of breaks <= b / 4,
    # complemented where a break x has b / 4 < x <= (b + 1) / 4 (any x past
    # b / 4 for the last bucket).  Every walker has such a bucket, and over
    # a third of all buckets are (uncapped, one in sixteen at most).
    x, edge = breaks[:, None, :], np.arange(4)[:, None] / 4
    below = (x <= edge).sum(axis=2) + np.arange(m)[:, None] * breaks.shape[1]
    inside = (x > edge) & ((x <= edge + 0.25) | (edge == 0.75)) & np.isfinite(x)
    np.testing.assert_array_equal(buckets, np.where(inside.any(axis=2), ~below, below))
    assert (buckets < 0).any(axis=1).all() and (buckets < 0).mean() > 1 / 3
    # Uniforms on every bucket's lower edge, at 0.0 and at 1, and on and
    # beside every break.
    finite = np.where(np.isfinite(breaks), breaks, 0.5).T
    u = np.concatenate(
        [
            np.repeat([[0.0], [0.25], [0.5], [0.75], [1.0]], m, axis=1),
            finite,
            np.nextafter(finite, 0),
            np.nextafter(finite, 2),
            np.random.default_rng(12).random((4, m)),
        ]
    )
    at = simulate._intervals(lookup, u)
    for w in range(m):
        expected = np.searchsorted(breaks[w], u[:, w], "right")
        np.testing.assert_array_equal(at[:, w] - w * breaks.shape[1], expected)
    gathered = np.array(list(simulate._walk_states(cum0, cum_policy, u)))
    np.testing.assert_array_equal(simulate._table_walk(cum0, lookup, u), gathered)


@pytest.mark.parametrize("table", [True, False])
def test_empirical_walks_the_step_table_when_one_is_built(table, monkeypatch):
    # Each policy step is one interval lookup on the table's route and one
    # gather of the walkers' rows otherwise; the initial draw is _draw's.
    ensemble = coarse_ensemble(4, 3, 6)
    if not table:
        monkeypatch.setattr(simulate, "_step_table", lambda _: None)
    calls = Counter()

    def counted(name):
        real = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a: calls.update([name]) or real(*a))

    names = ("_step_table", "_intervals", "_draw")
    for name in names:
        counted(name)
    k, replicas, seed = 5, 40, 3
    dist = empirical_distribution(ensemble, k, replicas, seed)
    assert [calls[name] for name in names] == [1, k, 1] if table else [1, 0, k + 1]
    counts = reference_empirical(ensemble, k, replicas, seed)
    assert dict(dist.entries) == {g: c / replicas for g, c in counts.items()}


@pytest.mark.parametrize(
    "route, cap",
    [("table", "_JSON_ROWS"), ("gather", "_JSON_ROWS"), ("gather", "_WALK_ELEMENTS")],
)
def test_sample_writes_the_sequence_a_block_at_a_time(route, cap, tmp_path, monkeypatch):
    # Blocks of b = 4 steps, set by either cap: horizons 0 and 1 fit in a
    # part of one block, b - 1, b and b + 1 end around a block's end, and
    # 2b + 3 spans three blocks.  Each block continues the walk from the
    # one before, and `rwig sample -o` writes each as soon as it is walked.
    from rwig.cli import main

    ensemble, b = coarse_ensemble(5, 3, 8), 4
    if cap == "_JSON_ROWS":
        monkeypatch.setattr(contact_graph, "_JSON_ROWS", b)
    else:
        monkeypatch.setattr(simulate, "_WALK_ELEMENTS", 5 * b)
    if route == "gather":
        monkeypatch.setattr(simulate, "_step_table", lambda _: None)
    assert (simulate._step_table(simulate._walk_tables(ensemble)[1]) is None) == (
        route == "gather"
    )
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(ensemble_to_json(ensemble)), encoding="utf-8")
    real_rows, blocks = simulate.first_appearance_rows, []

    def rows_of_block(states):
        blocks.append(len(states))
        return real_rows(states)

    monkeypatch.setattr(simulate, "first_appearance_rows", rows_of_block)
    for horizon in (0, 1, b - 1, b, b + 1, 2 * b + 3):
        seed = 31 + horizon
        blocks.clear()
        seq = sample_sequence(ensemble, horizon, seed)
        assert seq == ContactSequence(reference_walk(ensemble, horizon, seed), seed)
        sizes = [b] * ((horizon + 1) // b) + [(horizon + 1) % b] * ((horizon + 1) % b > 0)
        assert blocks == sizes
        out = tmp_path / f"h{horizon}.jsonl"
        argv = ["--ensemble", str(path), "--horizon", str(horizon), "--seed", str(seed)]
        assert main(["sample", *argv, "-o", str(out)]) == 0
        assert out.read_bytes() == sequence_to_jsonl(seq).encode("utf-8")
        assert blocks == sizes * 2


def dumps_lines(pairs) -> str:
    return "".join(
        json.dumps({"t": t, "graph": g.to_json_obj()}, separators=(",", ":")) + "\n"
        for t, g in pairs
    )


@pytest.mark.parametrize("seed", [3, 41, 2024])
def test_sample_sequence_pins_the_stream(seed):
    # Twelve walkers, so the sorted labels run w1, w10, w11, w12, w2, ...
    ens = random_ensemble(12, 4, seed=seed)
    seq = sample_sequence(ens, 40, seed=seed)
    reference = reference_walk(ens, 40, seed)
    assert len(seq) == 41
    assert seq.snapshots == tuple(reference)
    assert sequence_to_jsonl(seq) == dumps_lines(enumerate(reference))
    assert seq == ContactSequence(reference, seed)


def test_snapshots_to_jsonl_matches_json_dumps(monkeypatch):
    # Graphs over different walkers, one of them empty: each line holds
    # only its own walkers.  The second time round, with one row to a
    # block, rows with absent walkers straddle blocks.
    pairs = [
        (5, ContactGraph.from_cells([["b", "c"], ["a"]])),
        (7, ContactGraph.from_cells([])),
        (2, ContactGraph.from_cells([["d", "e", "a"], ["c"]])),
        (9, ContactGraph.from_cells([[3, 1], [2]])),
    ]
    for block_rows in (contact_graph._JSON_ROWS, 1):
        monkeypatch.setattr(contact_graph, "_JSON_ROWS", block_rows)
        for chosen in (pairs[:3], pairs[3:], pairs[1:2]):
            assert snapshots_to_jsonl(chosen) == dumps_lines(chosen)
        assert snapshots_to_jsonl([]) == "\n"


def reference_empirical(ensemble, k: int, replicas: int, seed: int) -> Counter:
    """The empirical distribution spelled out one replica at a time: replica
    r walks on its own default_rng(seed ^ r), k + 1 draws of random(M), and
    its graph at step k comes through from_assignment."""
    return Counter(reference_walk(ensemble, k, seed ^ r)[-1] for r in range(replicas))


def relabelled(ensemble, labels) -> WalkerEnsemble:
    walkers = ensemble.walkers
    return WalkerEnsemble([(l, s0, p) for l, (_, s0, p) in zip(labels, walkers)])


@pytest.mark.parametrize(
    "ensemble, k, replicas, cap, chunks",
    [
        # Chunks of four replicas (4 x 5 x 3 policy rows) and a ragged last one.
        (random_ensemble(5, 3, seed=2), 3, 10, 60, [4, 4, 2]),
        # One replica per chunk: its 5 x 3 policy rows fill the cap.
        (random_ensemble(5, 3, seed=2), 4, 4, 15, [1, 1, 1, 1]),
        # Sorted labels a, b, c, d, e, f differ from ensemble order.
        (relabelled(random_ensemble(6, 4, seed=5), "fbeadc"), 2, 300, None, [300]),
        # Sorted labels run w1, w10, w11, w12, w2, ...
        (random_ensemble(12, 4, seed=9), 3, 205, 500, [10] * 20 + [5]),
        # k = 0 chunks as any k does: three replicas of 4 x 3 policy rows.
        (random_ensemble(4, 3, seed=1), 0, 50, 36, [3] * 16 + [2]),
        (random_ensemble(4, 3, seed=1), 5, 1, None, [1]),
    ],
)
def test_empirical_matches_per_replica_reference(
    ensemble, k, replicas, cap, chunks, monkeypatch
):
    # The step table is built before the cap shrinks, so that the table's
    # route and the gather's walk the same chunks.
    lookup = simulate._step_table(simulate._walk_tables(ensemble)[1])
    assert lookup is not None
    if cap is not None:
        monkeypatch.setattr(simulate, "_WALK_ELEMENTS", cap)
    real_rows, real_draw = simulate.first_appearance_rows, simulate._draw
    seen, drawn = [], []

    def rows_of_chunk(states):
        seen.append(len(states))
        return real_rows(states)

    def draw(cum_rows, u):
        drawn.append(np.broadcast(cum_rows, u[..., None]).size)
        return real_draw(cum_rows, u)

    monkeypatch.setattr(simulate, "first_appearance_rows", rows_of_chunk)
    monkeypatch.setattr(simulate, "_draw", draw)
    seed = 1000 + replicas
    counts = reference_empirical(ensemble, k, replicas, seed)
    expected = {g: c / replicas for g, c in counts.items()}
    for route in (lookup, None):
        monkeypatch.setattr(simulate, "_step_table", lambda _, route=route: route)
        seen.clear()
        drawn.clear()
        dist = empirical_distribution(ensemble, k, replicas, seed)
        assert seen == chunks
        assert max(drawn) <= (cap or simulate._WALK_ELEMENTS)
        assert dict(dist.entries) == expected
    # The distinct rows in lexicographic order, as np.unique gives them.
    np.testing.assert_array_equal(dist._rows, np.unique(dist._rows, axis=0))
    assert (dist.time, dist.ensemble) == (k, ensemble)
    ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0].sort_key()))
    reference = [{"graph": g.to_json_obj(), "p": p} for g, p in ranked]

    # A row distribution takes its order from the arrays, not from sort_key.
    def refuse(self):
        raise AssertionError("sorted by sort_key")

    monkeypatch.setattr(ContactGraph, "sort_key", refuse)
    assert dist.to_json_obj() == reference
    buf = io.StringIO()
    dist.write_json(buf)
    assert buf.getvalue() == json.dumps(reference, indent=2) + "\n"


def test_replica_uniforms_are_default_rng_streams():
    # Seeds of one to ten uint32 words, so some take SeedSequence's mixing
    # rounds for words past the fourth, xor replica indices of one and two
    # words: across 2**32, the int64 range and near 2**64.
    rng = np.random.default_rng(12)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 3]
    seeds += [int(rng.integers(2**63)) << bits for bits in (0, 40, 90, 250)]
    ranges = [range(0, 5), range(7, 19, 4), range(2**32 - 2, 2**32 + 2)]
    ranges += [range(2**63 - 1, 2**63 + 1), range(2**64 - 3, 2**64 - 1)]
    steps, width = 6, 7
    for seed in seeds:
        for replicas in ranges:
            drawn = list(simulate._replica_uniforms(seed, replicas, steps, width))
            assert [u.shape for u in drawn] == [(len(replicas), width)] * steps
            streams = [replica_seed(seed, r) for r in replicas]
            expected = [np.random.default_rng(s).random(steps * width) for s in streams]
            np.testing.assert_array_equal(np.hstack(drawn), np.stack(expected))


@pytest.mark.parametrize("seed", [np.int64(1003), 2**130 + 5])
def test_empirical_takes_any_integer_seed(seed):
    ens = random_ensemble(5, 3, seed=2)
    dist = empirical_distribution(ens, 3, 300, seed)
    counts = reference_empirical(ens, 3, 300, seed)
    assert dict(dist.entries) == {g: c / 300 for g, c in counts.items()}


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"replicas": 2.5}, "replicas must be a positive integer, got 2.5"),
        ({"replicas": 0}, "replicas must be a positive integer, got 0"),
        ({"k": 1.5}, "k must be a non-negative integer, got 1.5"),
        ({"k": -1}, "k must be a non-negative integer, got -1"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": None}, "seed must be a non-negative integer, got None"),
        ({"replicas": True}, "replicas must be a positive integer, got True"),
        ({"k": True}, "k must be a non-negative integer, got True"),
        ({"seed": False}, "seed must be a non-negative integer, got False"),
    ],
)
def test_empirical_rejects_bad_arguments(bad, message):
    args = {"k": 1, "replicas": 3, "seed": 0, **bad}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        empirical_distribution(uniform_ensemble(2, 2), **args)


@pytest.mark.parametrize(
    "horizon, seed, message",
    [
        (3, -1, "seed must be a non-negative integer, got -1"),
        (3, 2.0, "seed must be a non-negative integer, got 2.0"),
        (1.5, 0, "horizon must be a non-negative integer, got 1.5"),
        (-1, 0, "horizon must be a non-negative integer, got -1"),
        (True, 0, "horizon must be a non-negative integer, got True"),
        (3, True, "seed must be a non-negative integer, got True"),
    ],
)
def test_sample_sequence_rejects_bad_arguments(horizon, seed, message):
    # The streamed writer raises at the call, before it walks a block.
    for sampler in (sample_sequence, simulate.sample_jsonl):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sampler(uniform_ensemble(2, 2), horizon, seed)
