"""Contact graphs as partitions of the walker set into cliques.

Distributions, sequences and edge lists hold graphs as rows of cell numbers:
``graph_rows`` writes them, ``row_json_objs`` is the one reader of rows
into graphs' JSON forms, which ``row_graphs`` wraps in graph objects, and
``json_blocks`` is the one writer of their JSON text, a block of rows to
each ``"".join``, for every command that writes rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .combinatorics import (
    IntegerPartition,
    SetPartition,
    labelling_partition,
    set_partitions,
)


@dataclass(frozen=True)
class ContactGraph:
    """A disjoint union of cliques over walker labels.

    Walkers co-located in one state form one clique; singleton cliques are
    genuine cliques of size 1.  Canonical cell order is inherited from
    SetPartition, so equal graphs compare and hash equal.
    """

    cliques: SetPartition

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[Hashable]]) -> "ContactGraph":
        return cls(SetPartition.from_cells(cells))

    @property
    def walkers(self) -> frozenset:
        return self.cliques.labels

    @property
    def n_walkers(self) -> int:
        return sum(self.cliques.cell_sizes)

    @property
    def n_cliques(self) -> int:
        return self.cliques.n_cells

    @property
    def clique_sizes(self) -> tuple[int, ...]:
        return self.cliques.cell_sizes

    def to_json_obj(self) -> list[list]:
        """JSON form: array of arrays of walker labels, cells canonical."""
        return [list(cell) for cell in self.cliques.cells]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Iterable[Hashable]]) -> "ContactGraph":
        return cls.from_cells(obj)

    def sort_key(self) -> tuple:
        """Deterministic tie-break order: fewer cliques first, then cells."""
        return (self.n_cliques, self.cliques.cells)


@dataclass(frozen=True)
class UnlabelledContactGraph:
    """A contact graph up to walker relabelling: the clique-size multiset."""

    clique_sizes: IntegerPartition

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "UnlabelledContactGraph":
        return cls(IntegerPartition.from_parts(sizes))

    @property
    def n_walkers(self) -> int:
        return self.clique_sizes.total

    @property
    def n_cliques(self) -> int:
        return self.clique_sizes.n_parts

    def to_json_obj(self) -> list[int]:
        return list(self.clique_sizes.parts)


def from_assignment(assignment: Mapping[Hashable, int]) -> ContactGraph:
    """Contact graph induced by a walker -> state assignment.

    Walkers mapped to the same state are connected, so each occupied state
    contributes one clique: the partition of the sorted walkers labelled by
    their states.
    """
    if not assignment:
        raise ValueError("assignment must cover at least one walker")
    walkers = sorted(assignment)
    return ContactGraph(labelling_partition([assignment[w] for w in walkers], walkers))


def row_json_objs(rows: np.ndarray, labels: Sequence[Hashable] | None) -> Iterator[list]:
    """Yield ``to_json_obj`` of each row's graph, for rows of
    ``first_position_rows`` over the sorted ``labels`` (-1 absent): its cells,
    or its clique sizes if ``labels`` is None.  Rows are canonical: nothing is
    sorted or checked."""
    if labels is None:
        yield from (list(filter(None, sizes)) for sizes in cell_sizes(rows).tolist())
        return
    for row in rows.tolist():
        cells: dict[int, list] = {-1: []}  # absent elements, dropped below
        for label, c in zip(labels, row):
            cells.setdefault(c, []).append(label)
        yield list(cells.values())[1:]


def row_graphs(rows: np.ndarray, labels: Sequence[Hashable] | None) -> list:
    """``row_json_objs`` as ``ContactGraph``s, or as ``UnlabelledContactGraph``s
    if ``labels`` is None."""
    graphs = row_json_objs(rows, labels)
    if labels is None:
        return [UnlabelledContactGraph(IntegerPartition(tuple(s))) for s in graphs]
    return [ContactGraph(SetPartition(tuple(map(tuple, c)))) for c in graphs]


def graph_rows(graphs: Iterable[ContactGraph]) -> tuple[np.ndarray, tuple[Hashable, ...]]:
    """The rows that ``row_graphs`` reads the graphs from, over the sorted
    union of their walkers, and those labels: -1 where a walker is absent,
    else its cell's index in canonical order.  Labels that do not compare
    (ints and strings, say) raise TypeError."""
    graphs = list(graphs)
    labels = tuple(sorted(set().union(*(g.walkers for g in graphs))))
    rows = []
    for g in graphs:
        cell_of = {w: c for c, cell in enumerate(g.cliques.cells) for w in cell}
        rows.append([cell_of.get(w, -1) for w in labels])
    return np.array(rows, np.intp).reshape(len(graphs), len(labels)), labels


def cell_sizes(rows: np.ndarray) -> np.ndarray:
    """sizes[r, c]: how many entries of row r name cell c, for rows of
    ``first_position_rows`` (-1 in no cell), one ``np.bincount``; 0 past
    a row's last cell."""
    n_rows, width = rows.shape
    slots = np.arange(n_rows)[:, None] * (width + 1) + rows.astype(np.intp) + 1
    sizes = np.bincount(slots.ravel(), minlength=n_rows * (width + 1))
    return sizes.reshape(n_rows, width + 1)[:, 1:]


def cell_order(rows: np.ndarray) -> np.ndarray:
    """Each row's positions grouped by cell, absent (-1) positions first and
    positions ascending within a cell: the rows' stable argsort, by one plain
    sort of their distinct keys (cell + 1) x width + position, mod width."""
    width = rows.shape[1]
    keys = rows.astype(np.min_scalar_type(-width * (width + 1)))
    keys += 1
    keys *= width
    keys += np.arange(width, dtype=keys.dtype)
    keys.sort(axis=1)
    return keys % max(width, 1)


# Most rows ``json_blocks`` formats into one block of text.
_JSON_ROWS = 4096


def json_blocks(
    rows: np.ndarray,
    labels: Sequence[Hashable],
    head: Sequence = (),
    tail: Sequence = (),
    layout=("[", "],[", ",", "]]"),
) -> Iterator[str]:
    """Yield the text of the rows, ``_JSON_ROWS`` rows to a block.  Each row
    is its ``head`` columns, the JSON text of ``g.to_json_obj()`` for its
    graph g as ``row_json_objs`` reads it (by default as ``json.dumps(...,
    separators=(",", ":"))`` writes it), then its ``tail`` columns.  A column
    is one string for every row or a sequence of one string per row.

    Each label is encoded once: as ``json.dumps(w, separators=(",", ":"))``,
    or, when ``layout[2]`` breaks the line, as ``json.dumps(w, indent=2)`` with
    the indent that ends ``layout[2]`` after each line break, which lays out a
    tuple label where an indented document holds it.  A graph is one piece
    per label in cell order and ``layout[3]`` ("[]" without cells).  A
    label's piece is its code after "[" and ``layout[0]`` when it opens the
    first cell, ``layout[1]`` when it opens a later one and ``layout[2]``
    inside a cell, or nothing when it is absent.

    Each block puts its rows' labels in cell order by one ``cell_order``.
    A block is one flat object array of (rows x columns) pieces and one
    ``"".join``: no text is made per row.
    """
    n_rows, width = rows.shape
    if "\n" not in layout[2]:
        codes = [json.dumps(w, separators=(",", ":")) for w in labels]
    else:
        indent = "\n" + layout[2].rpartition("\n")[2]
        codes = [json.dumps(w, indent=2).replace("\n", indent) for w in labels]
    # Piece kinds: 0 absent, 1 inside a cell, 2 opens the first, 3 a later one.
    opening = (layout[2], "[" + layout[0], layout[1])
    pieces = np.array([""] * width + [p + c for p in opening for c in codes], object)
    graph = len(head)
    parts = np.empty((min(n_rows, _JSON_ROWS), graph + width + 1 + len(tail)), object)
    per_row = []
    for j, column in [*enumerate(head), *enumerate(tail, graph + width + 1)]:
        if isinstance(column, str):
            parts[:, j] = column
        else:
            per_row.append((j, column))
    starts = np.arange(len(parts))[:, None] * width
    for lo in range(0, n_rows, _JSON_ROWS):
        chunk = rows[lo : lo + _JSON_ROWS]
        positions = cell_order(chunk)
        cells = chunk.ravel().take(positions + starts[: len(chunk)])
        present = cells >= 0
        # A present label opens a cell where its cell differs from the
        # label's before it, and a later cell if that label is present too.
        opens = present.copy()
        np.not_equal(cells[:, 1:], cells[:, :-1], out=opens[:, 1:])
        kind = present.astype(np.intp)
        kind += opens
        kind[:, 1:] += opens[:, 1:] & present[:, :-1]
        kind *= width
        kind += positions
        block = parts[: len(chunk)]
        for j, column in per_row:
            block[:, j] = column[lo : lo + _JSON_ROWS]
        block[:, graph : graph + width] = pieces[kind]
        block[:, graph + width] = np.where(present.any(axis=1), layout[3], "[]")
        yield "".join(block.ravel().tolist())


def enumerate_graphs(
    m_walkers: int, n_states: int, labels: Sequence[Hashable] | None = None
) -> Iterator[ContactGraph]:
    """Stream the full contact-graph state space for M walkers on N states.

    Yields each graph with at most min(N, M) cliques exactly once; the count
    equals contact_graph_count(M, N).  Default labels are "w1".."wM".
    """
    if labels is None:
        labels = default_labels(m_walkers)
    elif len(labels) != m_walkers:
        raise ValueError(f"expected {m_walkers} labels, got {len(labels)}")
    if n_states < 1:
        raise ValueError("n_states must be positive")
    bound = min(n_states, m_walkers)
    for pi in set_partitions(labels, max_cells=bound):
        yield ContactGraph(pi)


def to_unlabelled(g: ContactGraph) -> UnlabelledContactGraph:
    """Drop walker labels, keeping only the clique-size multiset."""
    return UnlabelledContactGraph.from_sizes(g.clique_sizes)


def any_labelling(
    u: UnlabelledContactGraph, walkers: Sequence[Hashable]
) -> ContactGraph:
    """Deterministic canonical labelling of an unlabelled graph.

    Walkers are consumed in the given order and poured into cliques of
    non-increasing size.  Any labelling would do for probability purposes;
    this one is reproducible.
    """
    sizes = u.clique_sizes.parts
    if sum(sizes) != len(walkers):
        raise ValueError(
            f"clique sizes sum to {sum(sizes)} but {len(walkers)} walkers given"
        )
    cells = []
    cursor = 0
    for size in sizes:
        cells.append(walkers[cursor : cursor + size])
        cursor += size
    return ContactGraph.from_cells(cells)


def amass(g: ContactGraph, pi: SetPartition) -> ContactGraph:
    """Merge cliques of ``g`` grouped by a partition of its clique indices.

    ``pi`` partitions {0, .., m-1}; each cell's cliques are unioned into one
    amassed clique of the resulting graph.
    """
    cliques = g.cliques.cells
    if pi.labels != frozenset(range(len(cliques))):
        raise ValueError("pi must partition the clique indices 0..m-1")
    merged = ([w for i in cell for w in cliques[i]] for cell in pi.cells)
    return ContactGraph.from_cells(merged)


def default_labels(m_walkers: int) -> tuple[str, ...]:
    """Walker labels "w1".."wM" used when callers do not supply their own."""
    if m_walkers < 1:
        raise ValueError("m_walkers must be positive")
    return tuple(f"w{i}" for i in range(1, m_walkers + 1))
