"""Exact integer combinatorics for clique-partition state spaces.

Everything here is computed with exact integers; no value passes through
floating point.  Set partitions are enumerated in
restricted-growth-string order and always returned in canonical form
(cells sorted by their smallest element, elements ascending within each
cell), which makes partitions directly usable as dictionary keys; rows of
cell names are renamed into restricted growth strings without a sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class SetPartition:
    """A partition of a finite label set into disjoint non-empty cells."""

    cells: tuple[tuple[Hashable, ...], ...]

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[Hashable]]) -> "SetPartition":
        """Build the canonical partition for arbitrary cell input.

        Raises ValueError if cells overlap or any cell is empty.
        """
        normalized = []
        seen: set[Hashable] = set()
        for cell in cells:
            cell = tuple(sorted(cell))
            if not cell:
                raise ValueError("empty cell in partition")
            for label in cell:
                if label in seen:
                    raise ValueError(f"label {label!r} appears in more than one cell")
                seen.add(label)
            normalized.append(cell)
        normalized.sort(key=lambda c: c[0])
        return cls(tuple(normalized))

    @property
    def labels(self) -> frozenset:
        return frozenset(l for cell in self.cells for l in cell)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


@dataclass(frozen=True)
class IntegerPartition:
    """A multiset of positive integers in non-increasing order."""

    parts: tuple[int, ...]

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "IntegerPartition":
        parts = tuple(sorted(parts, reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        return cls(parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def stirling2(m: int, k: int) -> int:
    """Number of ways to split an m-element set into exactly k non-empty cells.

    Evaluated from the alternating binomial sum, which is exact in integer
    arithmetic; the division by k! always comes out even.  Conventions:
    0 for k > m, and 1 for m == k == 0.
    """
    if m < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**m for j in range(k + 1))
    return total // math.factorial(k)


@lru_cache(maxsize=None)
def bell(m: int) -> int:
    """Total number of partitions of an m-element set.

    Computed by the binomial recursion B_{n+1} = sum_k C(n,k) B_k with
    B_0 = 1.
    """
    if m < 0:
        raise ValueError("bell argument must be non-negative")
    if m == 0:
        return 1
    n = m - 1
    return sum(math.comb(n, k) * bell(k) for k in range(n + 1))


# Most rows one block of restricted growth strings holds.
_RGS_ROWS = 1 << 16


def restricted_growth_strings(n: int, max_blocks: int) -> Iterator[np.ndarray]:
    """Yield every restricted growth string of length n with at most
    ``max_blocks`` blocks, in lexicographic order, as (rows, n) integer arrays.

    A restricted growth string has a[0] = 0 and a[i] <= 1 + max(a[:i]); it
    is the set partition putting element i in cell a[i] (Knuth, TAOCP 4A,
    section 7.2.1.5).  Rows grow one column at a time with ``np.repeat``; a
    block whose next column would pass ``_RGS_ROWS`` rows is split first,
    so no block holds more.
    """
    if n < 1 or max_blocks < 1:
        raise ValueError("n and max_blocks must be positive")
    dtype = np.min_scalar_type(max_blocks)

    def grow(block: np.ndarray, opened: np.ndarray) -> Iterator[np.ndarray]:
        if block.shape[1] == n:
            yield block
            return
        # Each row may join any opened cell or, below the bound, open the next.
        width = np.minimum(opened + 1, max_blocks)
        ends = np.cumsum(width)
        if ends[-1] > _RGS_ROWS and len(block) > 1:
            half = len(block) // 2
            yield from grow(block[:half], opened[:half])
            yield from grow(block[half:], opened[half:])
            return
        column = np.arange(ends[-1]) - np.repeat(ends - width, width)
        opened = np.maximum(np.repeat(opened, width), column + 1)
        grown = np.column_stack([np.repeat(block, width, axis=0), column.astype(dtype)])
        yield from grow(grown, opened)

    yield from grow(np.zeros((1, 1), dtype=dtype), np.ones(1, dtype=np.intp))


def labelling_partition(row: Sequence, ordered: Sequence[Hashable]) -> SetPartition:
    """The partition of ``ordered`` whose element i lies in the cell named ``row[i]``.

    Cells open in order of first appearance, so with ``ordered`` sorted the
    result is canonical for any labelling, such as the walkers' states.  A
    restricted growth string is one whose cell names count 0, 1, ... in turn.
    """
    cells: dict[Hashable, list] = {}
    for label, name in zip(ordered, row):
        cells.setdefault(name, []).append(label)
    return SetPartition(tuple(map(tuple, cells.values())))


def first_appearance_rows(labellings: np.ndarray) -> np.ndarray:
    """Rename the cells of every row 0, 1, ... in order of first appearance.

    Row r names the cell of element i with a non-negative integer
    ``labellings[r, i]`` (a walker's state, say); with the columns in
    sorted-label order each result row is the restricted growth string of
    the partition ``labelling_partition`` builds.  One ``np.minimum.at``
    finds each name's first position, which ``first_position_rows`` numbers.
    """
    n_rows, width = labellings.shape
    dtype = np.min_scalar_type(-width - 1)
    first = np.full((n_rows, int(labellings.max(initial=-1)) + 1), width, dtype)
    np.minimum.at(first, (np.arange(n_rows)[:, None], labellings), np.arange(width, dtype=dtype))
    return first_position_rows(np.take_along_axis(first, labellings, axis=1))


def first_position_rows(first: np.ndarray) -> np.ndarray:
    """Number the cells of every row 0, 1, ... in order of first appearance
    from ``first[r, i]``, the first position in row r of element i's cell
    (the row width where i is absent, which gets -1): a cell opens where an
    element is its own first position, so one cumsum numbers them all."""
    n_rows, width = first.shape
    # The last column, -1, is where the absent elements look.
    cells = np.full((n_rows, width + 1), -1, np.min_scalar_type(-width - 1))
    cells[:, :-1] = np.cumsum(first == np.arange(width), axis=1, dtype=cells.dtype) - 1
    return np.take_along_axis(cells, first, axis=1)


def set_partitions(
    labels: Iterable[Hashable], max_cells: int | None = None
) -> Iterator[SetPartition]:
    """Yield every partition of ``labels`` exactly once, canonically ordered.

    Partitions come in the lexicographic order of their restricted growth
    strings over ``sorted(labels)``, one row of ``restricted_growth_strings``
    each.  With ``max_cells`` given, partitions with more cells are pruned
    during generation (not filtered afterwards), so bounded enumeration
    stays proportional to the number of partitions actually yielded.
    """
    ordered = sorted(labels)
    n = len(ordered)
    if n == 0:
        raise ValueError("labels must be non-empty")
    if len(set(ordered)) != n:
        raise ValueError("labels must be distinct")
    if max_cells is not None and max_cells < 1:
        raise ValueError("max_cells must be positive")
    bound = n if max_cells is None else min(max_cells, n)
    for block in restricted_growth_strings(n, bound):
        for row in block.tolist():
            yield labelling_partition(row, ordered)


def integer_partitions(total: int) -> Iterator[IntegerPartition]:
    """Yield every multiset of positive integers summing to ``total``.

    Parts are emitted in canonical non-increasing order.
    """
    if total < 1:
        raise ValueError("total must be positive")

    parts: list[int] = []

    def grow(remaining: int, cap: int) -> Iterator[IntegerPartition]:
        if remaining == 0:
            yield IntegerPartition(tuple(parts))
            return
        for p in range(min(cap, remaining), 0, -1):
            parts.append(p)
            yield from grow(remaining - p, p)
            parts.pop()

    yield from grow(total, total)


def cell_weight(q: int) -> int:
    """Signed inclusion-exclusion weight of one cell of q cliques: (-1)^(q-1) (q-1)!."""
    return (-1) ** (q - 1) * math.factorial(q - 1)


def expansion_weight(pi: SetPartition) -> int:
    """Signed inclusion-exclusion weight of a partition of cliques.

    The product of ``cell_weight`` over its cells.  Returned as an exact
    integer so the only rounding in a probability expansion happens in the
    sigma products.
    """
    return math.prod(cell_weight(size) for size in pi.cell_sizes)


@lru_cache(maxsize=None)
def subset_expansion(m: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sum over partitions of m cliques as a recursion over clique subsets.

    Subsets are bitmasks (bit i for clique i).  A partition of S is the cell
    B holding S's lowest clique plus a partition of S - B, so with F(0) = 1,
    F(S) = sum over such B of cell_weight(|B|) x[B] F(S - B), and F(all m
    cliques) = sum over partitions pi of expansion_weight(pi) prod x[cell]
    (Björklund, Husfeldt, Kaski and Koivisto, STOC 2007).  Returns one level
    per subset size, smallest first, of read-only int64 arrays: the subsets,
    then each term's B, S - B and weight, grouped by subset from the offsets.
    """
    full = (1 << m) - 1
    reached = np.append(np.arange(2, full, 2), full)  # the full set and all it recurses to
    popcounts = np.bitwise_count(reached)
    weights = np.array([0] + [cell_weight(q) for q in range(1, m + 1)], dtype=np.int64)
    levels = []
    for size in range(1, m + 1):
        subsets = reached[popcounts == size]
        low = subsets & -subsets
        rest = subsets ^ low
        # Every submask t of rest, in descending order: the bits of
        # j = 2^(size-1) - 1, ..., 0 deposited on rest's bit positions.
        places = np.nonzero(rest[:, None] >> np.arange(m) & 1)[1]
        places = places.reshape(len(subsets), size - 1)
        j = np.arange((1 << (size - 1)) - 1, -1, -1)
        t = np.zeros((len(subsets), len(j)), dtype=np.int64)
        for b in range(size - 1):
            t |= (j >> b & 1) << places[:, b, None]
        offsets = np.arange(len(subsets)) * len(j)
        terms = (low[:, None] | t, rest[:, None] ^ t, weights[np.bitwise_count(t) + 1])
        levels.append((subsets, *(a.ravel() for a in terms), offsets))
        for a in levels[-1]:
            a.setflags(write=False)
    return tuple(levels)


@lru_cache(maxsize=None)
def subset_levels(m: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every subset S of m cliques with each way to take one clique c out.

    Level l (1 to m, at index l - 1) lists the subsets of size l in
    ascending bitmask order (bit i for clique i), and for the j-th lowest
    clique c of each S, term j * C(m, l) + (S's index) holds c and the index
    of S - c in level l - 1.  Returns read-only intp arrays (cliques, rests).
    """
    masks = np.arange(1 << m)
    popcounts = np.bitwise_count(masks)
    index = np.empty_like(masks)
    levels = []
    for size in range(m + 1):
        subsets = masks[popcounts == size]
        index[subsets] = np.arange(len(subsets))
        if size:
            which, cliques = np.nonzero(subsets[:, None] >> np.arange(m) & 1)
            which, cliques = (a.reshape(-1, size).T.ravel() for a in (which, cliques))
            levels.append((cliques, index[subsets[which] ^ 1 << cliques]))
            for a in levels[-1]:
                a.setflags(write=False)
    return tuple(levels)


def multiplicity(q: IntegerPartition) -> int:
    """Number of labelled clique partitions sharing the clique-size multiset q.

    M! / (prod q_i! * prod c_j!) with c_j the count of parts equal to j;
    the division is exact.
    """
    if q.n_parts == 0:
        raise ValueError("q must be non-empty")
    denom = 1
    for p in q.parts:
        denom *= math.factorial(p)
    for j in set(q.parts):
        denom *= math.factorial(q.parts.count(j))
    return math.factorial(q.total) // denom


def contact_graph_count(m_walkers: int, n_states: int) -> int:
    """Size of the contact-graph state space for M walkers on N states.

    Sum of stirling2(M, m) for m up to min(N, M); equals bell(M) whenever
    M <= N, since walkers can never occupy more cliques than there are
    states.
    """
    if m_walkers < 1 or n_states < 1:
        raise ValueError("m_walkers and n_states must be positive")
    return sum(stirling2(m_walkers, m) for m in range(min(n_states, m_walkers) + 1))
