import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rwig.combinatorics import (
    IntegerPartition,
    SetPartition,
    bell,
    contact_graph_count,
    expansion_weight,
    first_appearance_rows,
    integer_partitions,
    labelling_partition,
    multiplicity,
    restricted_growth_strings,
    set_partitions,
    stirling2,
    subset_expansion,
)

import rwig.combinatorics as combinatorics_module
from conftest import as_cell_sets, reference_partitions


def test_stirling2_values():
    assert stirling2(5, 2) == 15
    assert stirling2(7, 3) == 301
    assert stirling2(4, 4) == 1
    assert stirling2(6, 8) == 0  # more cells than elements
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0


def test_bell_values():
    assert bell(0) == 1
    assert bell(1) == 1
    assert bell(5) == 52
    assert bell(10) == 115975


def test_bell_equals_stirling_sum():
    for m in range(13):
        assert bell(m) == sum(stirling2(m, k) for k in range(m + 1))


def test_set_partitions_counts():
    assert len(list(set_partitions({1, 2, 3}))) == 5
    assert len(list(set_partitions({1, 2, 3, 4, 5}, max_cells=3))) == 41
    assert list(set_partitions({1})) == [SetPartition(((1,),))]


def test_set_partitions_match_reference_enumeration():
    labels = [1, 2, 3, 4, 5]
    ours = {as_cell_sets(p.cells) for p in set_partitions(labels)}
    reference = {as_cell_sets(p) for p in reference_partitions(labels)}
    assert ours == reference
    assert len(list(set_partitions(labels))) == len(ours)  # no duplicates


def test_set_partitions_canonical_form():
    for p in set_partitions(["c", "a", "b", "d"]):
        for cell in p.cells:
            assert list(cell) == sorted(cell)
        mins = [cell[0] for cell in p.cells]
        assert mins == sorted(mins)


def test_set_partitions_max_cells_counts():
    for m in range(1, 9):
        for n in range(1, 9):
            count = sum(1 for _ in set_partitions(range(m), max_cells=n))
            assert count == contact_graph_count(m, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7))
def test_bell_counts_partitions(m):
    assert bell(m) == sum(1 for _ in set_partitions(range(m)))


@st.composite
def labellings(draw):
    """(rows, width) states drawn from one of a few state sets, some with
    gaps in their names."""
    shape = (draw(st.integers(0, 5)), draw(st.integers(1, 140)))
    states = draw(st.sampled_from([(0,), (0, 7), (0, 1, 2), (3, 4, 9, 12)]))
    return draw(arrays(np.intp, shape, elements=st.sampled_from(states)))


@settings(max_examples=100, deadline=None)
@given(labellings())
@example(np.empty((0, 3), np.intp))  # no rows
@example(np.array([[0], [7]]))  # one column
@example(np.array([[7, 0, 7, 0, 0]]))  # names with a gap
@example(np.tile(np.array([[0, 1], [1, 0]]), 64))  # width 128: int16
def test_first_appearance_rows_is_each_rows_partition(states):
    # Row by row, the cell of each element in the partition that
    # ``labelling_partition`` builds, its cells in order of first appearance.
    n_rows, width = states.shape
    expected = []
    for row in states.tolist():
        cells = labelling_partition(row, range(width)).cells
        cell_of = {i: c for c, cell in enumerate(cells) for i in cell}
        expected.append([cell_of[i] for i in range(width)])
    rows = first_appearance_rows(states)
    assert rows.dtype == (np.int8 if width < 128 else np.int16)
    assert rows.shape == (n_rows, width)
    assert rows.tolist() == expected


def test_restricted_growth_strings_in_blocks(monkeypatch):
    # Every string a[0] = 0, a[i] <= 1 + max(a[:i]) with at most n blocks,
    # lexicographically, against a filter of all of range(n)^m; splitting
    # the blocks under a small row cap keeps the sequence.
    for m, n in ((1, 1), (5, 5), (7, 3), (6, 1)):
        expected = [
            a
            for a in itertools.product(range(n), repeat=m)
            if all(a[i] <= 1 + max(a[:i], default=-1) for i in range(m))
        ]
        for cap in (combinatorics_module._RGS_ROWS, 4):
            monkeypatch.setattr(combinatorics_module, "_RGS_ROWS", cap)
            blocks = list(restricted_growth_strings(m, n))
            assert all(len(b) <= max(cap, n) for b in blocks)
            assert [tuple(r) for b in blocks for r in b.tolist()] == expected
    with pytest.raises(ValueError):
        next(restricted_growth_strings(0, 3))


def test_set_partitions_rejects_bad_input():
    with pytest.raises(ValueError):
        list(set_partitions([]))
    with pytest.raises(ValueError):
        list(set_partitions([1, 1, 2]))
    with pytest.raises(ValueError):
        list(set_partitions([1, 2], max_cells=0))


def test_integer_partitions():
    assert len(list(integer_partitions(9))) == 30
    assert [p.parts for p in integer_partitions(1)] == [(1,)]
    # Frozen from brute-force enumeration of non-increasing tuples summing to 4.
    assert [p.parts for p in integer_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        list(integer_partitions(0))


def test_expansion_weight():
    singletons = SetPartition.from_cells([[0], [1], [2]])
    assert expansion_weight(singletons) == 1
    assert expansion_weight(SetPartition.from_cells([[0, 1, 2]])) == 2
    assert expansion_weight(SetPartition.from_cells([[0, 1, 2, 3]])) == -6
    mixed = SetPartition.from_cells([[0, 1], [2, 3, 4]])
    assert expansion_weight(mixed) == (-1) * 2


def test_one_cell_weight_solves_stirling_recursion():
    def one_cell_weight(m):
        return expansion_weight(SetPartition.from_cells([list(range(m))]))

    assert one_cell_weight(1) == 1
    for m in range(2, 11):
        recursed = -sum(stirling2(m, l) * one_cell_weight(l) for l in range(1, m))
        assert one_cell_weight(m) == recursed
        assert one_cell_weight(m) == (-1) ** (m - 1) * math.factorial(m - 1)


def test_multiplicity_against_enumeration():
    # Oracle: count set partitions of {1..4} by their cell-size multiset.
    by_sizes = {}
    for p in reference_partitions([1, 2, 3, 4]):
        sizes = tuple(sorted((len(c) for c in p), reverse=True))
        by_sizes[sizes] = by_sizes.get(sizes, 0) + 1
    assert multiplicity(IntegerPartition.from_parts([2, 1, 1])) == by_sizes[(2, 1, 1)] == 6
    assert multiplicity(IntegerPartition.from_parts([2, 2])) == by_sizes[(2, 2)] == 3
    for m in range(1, 7):
        assert multiplicity(IntegerPartition.from_parts([m])) == 1


def test_multiplicity_sums_to_state_space():
    for m in range(1, 9):
        for n in range(1, 9):
            total = sum(
                multiplicity(q) for q in integer_partitions(m) if q.n_parts <= n
            )
            assert total == contact_graph_count(m, n)


def test_contact_graph_count():
    assert contact_graph_count(5, 3) == 41
    assert contact_graph_count(10, 5) == 86472
    assert contact_graph_count(9, 10) == 21147
    assert contact_graph_count(6, 6) == bell(6)
    with pytest.raises(ValueError):
        contact_graph_count(0, 3)


def test_set_partition_canonicalization_and_validation():
    p = SetPartition.from_cells([[3], [2, 1]])
    assert p.cells == ((1, 2), (3,))
    assert p.labels == frozenset({1, 2, 3})
    assert p.cell_sizes == (2, 1)
    with pytest.raises(ValueError):
        SetPartition.from_cells([[1], []])
    with pytest.raises(ValueError):
        SetPartition.from_cells([[1, 2], [2, 3]])


def test_integer_partition_normalizes():
    q = IntegerPartition.from_parts([1, 3, 2])
    assert q.parts == (3, 2, 1)
    assert q.total == 6
    with pytest.raises(ValueError):
        IntegerPartition.from_parts([2, 0])


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6))
def test_set_partitions_are_partitions(labels):
    seen = set()
    for p in set_partitions(labels):
        assert set().union(*map(set, p.cells)) == labels
        assert sum(p.cell_sizes) == len(labels)
        assert p not in seen
        seen.add(p)
    assert len(seen) == bell(len(labels))


def test_subset_expansion_is_the_weighted_partition_sum():
    def recursion(m, x):
        values = np.zeros(2**m, dtype=np.int64)
        values[0] = 1
        for subsets, blocks, rests, weights, offsets in subset_expansion(m):
            assert weights.dtype == np.int64
            terms = x[blocks] * values[rests] * weights
            values[subsets] = np.add.reduceat(terms, offsets)
        return int(values[-1])

    # Integer values per subset keep every product exact, so the recursion
    # must equal the sum over partitions exactly.
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        x = rng.integers(-9, 10, size=2**m)
        expected = sum(
            expansion_weight(pi) * math.prod(int(x[sum(1 << i for i in c)]) for c in pi.cells)
            for pi in set_partitions(range(m))
        )
        assert recursion(m, x) == expected
        # On one state every sigma is 1, so the weights sum to the
        # probability of m cliques there: 1 for one clique, else 0.
        assert recursion(m, np.ones(2**m, dtype=np.int64)) == (1 if m == 1 else 0)
