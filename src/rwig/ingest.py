"""Parsing and validation of empirical co-location snapshots.

Input is the plain-text edge-list convention of public co-location
releases: one "t i j" triple per line, meaning nodes i and j shared a
location during time bin t.  Node ids are opaque strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .contact_graph import ContactGraph
from .pmf import clique_count_histogram, clique_size_histogram
from .simulate import ContactSequence


class ColocationParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SnapshotRecord:
    """All co-location pairs observed in one time bin."""

    timestamp: int
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class NonCliqueComponent:
    nodes: tuple[str, ...]
    missing_pairs: int


@dataclass(frozen=True)
class CliqueUnionViolation:
    """Connected components of a snapshot that are not complete subgraphs."""

    timestamp: int
    components: tuple[NonCliqueComponent, ...]


def parse_colocation(lines: Iterable[str]) -> list[SnapshotRecord]:
    """Parse "t i j" lines into per-bin records, ascending in t.

    Blank lines are skipped; duplicate (t, i, j) observations collapse to
    one edge.  Malformed lines and self contacts raise with the line number.
    """
    bins: dict[int, set[tuple[str, str]]] = {}
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 3:
            raise ColocationParseError(
                line_no, f"expected 't i j', got {len(fields)} fields"
            )
        t_text, i, j = fields
        try:
            t = int(t_text)
        except ValueError:
            raise ColocationParseError(line_no, f"bad timestamp {t_text!r}") from None
        if i == j:
            raise ColocationParseError(line_no, f"self contact on node {i!r}")
        bins.setdefault(t, set()).add((i, j) if i < j else (j, i))
    return [
        SnapshotRecord(t, tuple(sorted(bins[t]))) for t in sorted(bins)
    ]


def validate_clique_union(
    record: SnapshotRecord,
) -> ContactGraph | CliqueUnionViolation:
    """Check that a snapshot is a disjoint union of cliques.

    Every connected component of c nodes must contain all c(c-1)/2 pairs.
    Returns the induced contact graph on success, otherwise a report of the
    incomplete components, in order of their smallest node, and how many
    pairs each is missing.
    """
    neighbours: dict[str, list[str]] = {}
    for i, j in record.edges:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)

    components: list[list[str]] = []
    bad: list[NonCliqueComponent] = []
    seen: set[str] = set()
    for start in neighbours:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        # Breadth-first: the loop also visits the nodes appended inside it.
        for node in component:
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
        edges_inside = sum(len(neighbours[node]) for node in component) // 2
        expected = len(component) * (len(component) - 1) // 2
        if edges_inside != expected:
            missing = expected - edges_inside
            bad.append(NonCliqueComponent(tuple(sorted(component)), missing))
        components.append(component)
    if bad:
        bad.sort(key=lambda c: c.nodes)
        return CliqueUnionViolation(record.timestamp, tuple(bad))
    return ContactGraph.from_cells(components)


def snapshot_graphs(records: Iterable[SnapshotRecord]) -> list[ContactGraph]:
    """The contact graph of every snapshot, in order.

    Raises ValueError at the first snapshot that is not a union of cliques,
    naming its timestamp and each incomplete component with the number of
    pairs it is missing.
    """
    graphs: list[ContactGraph] = []
    for record in records:
        result = validate_clique_union(record)
        if isinstance(result, CliqueUnionViolation):
            components = "; ".join(
                f"{list(c.nodes)} missing {c.missing_pairs} pair(s)"
                for c in result.components
            )
            raise ValueError(
                f"snapshot at t={record.timestamp} is not a union of cliques: "
                f"{components}"
            )
        graphs.append(result)
    return graphs


def dataset_distributions(
    records: Iterable[SnapshotRecord], roster: Iterable[str] | None = None
) -> tuple[dict[int, float], dict[int, float]]:
    """Clique-size and clique-count histograms of a validated dataset.

    Raises ValueError as ``snapshot_graphs`` does; the histograms are those
    of ``graph_distributions``.
    """
    return graph_distributions(snapshot_graphs(records), roster=roster)


def graph_distributions(
    graphs: Iterable[ContactGraph], roster: Iterable[str] | None = None
) -> tuple[dict[int, float], dict[int, float]]:
    """Clique-size and clique-count histograms of validated snapshot graphs.

    Sizes use min_size 2 (edge lists cannot show fewer).  Without a roster,
    nodes absent from a bin are invisible and the count histogram covers
    only cliques of two or more; with a roster, absent nodes enter the
    count histogram as singleton cliques, and a snapshot node missing from
    the roster raises ValueError.
    """
    graphs = list(graphs)
    sizes = [(g.clique_sizes, 1.0) for g in graphs]
    count_sizes = sizes
    if roster is not None:
        roster_set = frozenset(roster)
        unknown = frozenset().union(*(g.walkers for g in graphs)) - roster_set
        if unknown:
            missing = ", ".join(sorted(unknown))
            raise ValueError(f"snapshot nodes missing from the roster: {missing}")
        count_sizes = [(q + (1,) * (len(roster_set) - sum(q)), w) for q, w in sizes]
    return clique_size_histogram(sizes, min_size=2), clique_count_histogram(count_sizes)


def load_roster(lines: Iterable[str]) -> tuple[str, ...]:
    """One node id per line; blanks skipped."""
    roster = [line.strip() for line in lines if line.strip()]
    if len(set(roster)) != len(roster):
        raise ValueError("roster contains duplicate node ids")
    return tuple(roster)


def records_to_text(records: Iterable[SnapshotRecord]) -> str:
    """Canonical "t i j" text: bins ascending, edges sorted within a bin."""
    lines = []
    for record in records:
        for i, j in record.edges:
            lines.append(f"{record.timestamp} {i} {j}")
    return "\n".join(lines) + "\n"


def sequence_to_records(seq: ContactSequence) -> list[SnapshotRecord]:
    """Export a sampled sequence in the empirical snapshot format.

    Cliques become their full pair sets; singleton cliques have no pairs
    and are invisible, exactly as in real edge lists.
    """
    records = []
    for t, g in enumerate(seq.snapshots):
        edges = []
        for cell in g.cliques.cells:
            members = sorted(str(w) for w in cell)
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    edges.append((members[a], members[b]))
        records.append(SnapshotRecord(t, tuple(sorted(edges))))
    return records
