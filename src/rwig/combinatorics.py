"""Exact integer combinatorics for clique-partition state spaces.

Everything here is computed with exact integers; no value passes through
floating point.  Set partitions are enumerated in
restricted-growth-string order and always returned in canonical form
(cells sorted by their smallest element, elements ascending within each
cell), which makes partitions directly usable as dictionary keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator

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


def set_partitions(
    labels: Iterable[Hashable], max_cells: int | None = None
) -> Iterator[SetPartition]:
    """Yield every partition of ``labels`` exactly once, canonically ordered.

    With ``max_cells`` given, partitions with more cells are pruned during
    generation (not filtered afterwards), so bounded enumeration stays
    proportional to the number of partitions actually yielded.
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

    # Restricted growth strings: element i joins cell a[i], where a[i] may be
    # any existing cell index or open the next one.  Because labels are sorted,
    # cell order by first occurrence equals order by minimum element.
    cells: list[list[Hashable]] = []

    def grow(i: int) -> Iterator[SetPartition]:
        if i == n:
            yield SetPartition(tuple(tuple(c) for c in cells))
            return
        for cell in cells:
            cell.append(ordered[i])
            yield from grow(i + 1)
            cell.pop()
        if len(cells) < bound:
            cells.append([ordered[i]])
            yield from grow(i + 1)
            cells.pop()

    yield from grow(0)


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
    reached = [*range(2, full, 2), full]  # the full set and all it recurses to
    levels = []
    for size in range(1, m + 1):
        subsets = [s for s in reached if s.bit_count() == size]
        terms, offsets = [], []
        for s in subsets:
            offsets.append(len(terms))
            low = s & -s
            rest = t = s ^ low
            for _ in range(1 << rest.bit_count()):  # every submask t of rest
                terms.append((low | t, rest ^ t, cell_weight(t.bit_count() + 1)))
                t = (t - 1) & rest
        level = (subsets, *zip(*terms), offsets)
        levels.append(tuple(np.array(a, dtype=np.int64) for a in level))
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
