"""Parsing and validation of empirical co-location snapshots.

Input is the plain-text edge-list convention of public co-location
releases: one "t i j" triple per line, meaning nodes i and j shared a
location during time bin t.  Node ids are opaque strings.

The parse (``read_colocation``) reads a file as text chunks of about
``_PARSE_CHARS`` characters, each cut after its last line end, and finds
their fields where ``str.split`` would, on the chunk's UTF-8 bytes with
numpy, so it makes no Python object per line or field: each distinct node
id and timestamp text of a chunk is decoded once, from a key of its bytes,
and the ids and timestamps are each numbered once, by sort, after the last
chunk.  Per-chunk positions are kept in the narrowest integers that fit.

Edges stay integer arrays from the parse on (``EdgeTable``): each is a
bin and two distinct nodes, named by their positions in the sorted node
ids, held in the narrowest unsigned integers that fit.  Repeated edges are
dropped by one in-place sort of one packed key per edge, bin * nodes**2 +
lo * nodes + hi, in the narrowest unsigned integers that hold bins *
nodes**2, which is then decoded.  One pass (``validate_table``) labels
each node of every bin by the least of itself and its neighbours and
checks the bins a chunk of about ``_PARSE_CHARS`` (bin, node) cells at a
time; a valid dataset becomes one row per bin, its cliques numbered by
``combinatorics.first_position_rows`` from the labels, -1 at absent nodes,
which ``simulate.jsonl_blocks`` writes and ``row_distributions`` counts.
``SnapshotRecord`` and ``ContactGraph`` objects are built only on request.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .combinatorics import first_position_rows
from .contact_graph import ContactGraph, cell_sizes, row_graphs
from .pmf import clique_size_histogram, tally_histogram
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


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """The edges of many time bins as integer arrays.

    Edge e joins ``nodes[lo[e]]`` and ``nodes[hi[e]]`` (lo < hi) in bin
    ``bins[e]``, whose timestamp is ``times[bins[e]]``.  ``nodes`` is sorted,
    so positions compare as the ids do; edges are distinct and sorted by
    (bin, lo, hi).  ``bins`` is held in the narrowest unsigned integers
    that hold every bin, ``lo`` and ``hi`` in those that hold every node
    position.
    """

    nodes: tuple[str, ...]
    times: tuple[int, ...]
    bins: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of_records(cls, records: Iterable[SnapshotRecord]) -> "EdgeTable":
        """One bin per record, in order, holding its pairs as ``_of_edges`` does."""
        records = list(records)
        nodes, at = _sorted_index([w for r in records for pair in r.edges for w in pair])
        bins = np.repeat(np.arange(len(records)), [len(r.edges) for r in records])
        times = tuple(r.timestamp for r in records)
        return cls._of_edges(nodes, times, bins, at.reshape(-1, 2).T)

    @classmethod
    def _of_edges(
        cls, nodes: tuple[str, ...], times: tuple[int, ...], bins: np.ndarray,
        ends: np.ndarray,
    ) -> "EdgeTable":
        """The table of the pairs ``ends[:, e]`` of positions in the sorted
        ``nodes`` in bins ``bins[e]``: a pair repeated, in either order, is one
        edge, and the edges are sorted by (bin, lo, hi).  A self pair raises
        ValueError."""
        n = len(nodes)
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        if (lo == hi).any():
            raise ValueError(f"self contact on node {nodes[lo[lo == hi][0]]!r}")
        # One key per edge, ordered as (bin, lo, hi): bin * n**2 + pair, or,
        # where that could pass _KEY_LIMIT, bin * (distinct pairs) + pair
        # rank; each in the narrowest unsigned integers that hold it.  Each
        # array is dropped once spent, as the parse peaks here.
        pair = lo.astype(np.min_scalar_type(n * n))
        pair *= n
        pair += hi
        del lo, hi
        codes, width = None, n * n
        if len(times) * width >= _KEY_LIMIT:
            codes, pair = np.unique(pair, return_inverse=True)
            width = len(codes)
            pair = pair.astype(np.min_scalar_type(width))
        key = bins.astype(np.min_scalar_type(len(times) * width))
        key *= width
        key += pair
        del pair
        key.sort()
        repeat = np.zeros(len(key), bool)
        np.equal(key[1:], key[:-1], out=repeat[1:])
        key = key[~repeat]
        # Decoded in place where it can be, each part narrowed once found.
        pair = key % width
        key //= width
        bins = key.astype(np.min_scalar_type(max(len(times) - 1, 0)))
        del key
        if codes is not None:
            pair = codes[pair]
        positions = np.min_scalar_type(max(n - 1, 0))
        lo = (pair // n).astype(positions)
        pair %= n
        return cls(nodes, times, bins, lo, pair.astype(positions))

    def records(self) -> list[SnapshotRecord]:
        """One record per bin, its edges as (id, id) pairs in table order."""
        names = np.array(self.nodes, dtype=object)
        pairs = list(zip(names[self.lo].tolist(), names[self.hi].tolist()))
        cuts = np.searchsorted(self.bins, np.arange(len(self.times) + 1)).tolist()
        return [
            SnapshotRecord(t, tuple(pairs[a:b]))
            for t, a, b in zip(self.times, cuts, cuts[1:])
        ]


# Characters of input read as one block of lines, and (bin, node) cells
# that ``validate_table`` checks as one chunk.  A larger block holds larger
# per-block arrays at once; a smaller one pays numpy's cost per call more
# often.  On the 380,601-edge benchmark input (2-vCPU host), the peak RSS
# of `rwig analyze --roster -o`, spawned from a 13 MB process, and the
# parse's time were 64.3 MB / 0.150 s at 2^20 characters, 47.9 MB / 0.135 s
# at 2^18, 42.5 MB / 0.120 s at 2^16 and 42.1 MB / 0.164 s at 2^14
# (medians of 7 runs).
_PARSE_CHARS = 1 << 16
# ``EdgeTable._of_edges`` keys an edge by bin * n**2 + pair below this bound
# on (bins) * (nodes)**2, and by pair rank above it.
_KEY_LIMIT = 1 << 63
# _KEEP[n] keeps the first n bytes of a big-endian word.
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], np.uint64)


# What ``_distinct`` spends on the fields past their first word, in units of
# one field's word at one level (about 0.2 us): a word level costs
# _LEVEL_COST plus one per field on it, and ranking a field by all its
# remaining bytes, in one sort, _SORT_COST.
_LEVEL_COST, _SORT_COST = 160, 10


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """The text of the lines in order, a block at a time, each line ended by
    one "\\n" and holding no other.  A file object is read
    ``_PARSE_CHARS`` characters at a time, each block cut after its last
    "\\n" (so a longer line waits for its end); any other iterable gives
    one line per item, its "\\n" becoming " ", and a block ends once it
    holds ``_PARSE_CHARS`` characters."""
    if hasattr(lines, "read"):
        pending: list[str] = []
        for text in iter(lambda: lines.read(_PARSE_CHARS), ""):
            cut = text.rfind("\n") + 1
            if cut:
                yield "".join(pending) + text[:cut]
                pending = []
            pending.append(text[cut:])
        if any(pending):
            yield "".join(pending) + "\n"
        return
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _PARSE_CHARS:
            yield _joined(block)
            block, size = [], 0
    if block:
        yield _joined(block)


def _joined(lines: list[str]) -> str:
    """The lines as one text, each ended by "\\n" and holding no other."""
    return "".join(line.replace("\n", " ") + "\n" for line in lines)


def _fields(text: str) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """The fields of each line of ``text`` as ``str.split`` finds them,
    located in UTF-8; "\\n" ends each line, the last one too.

    Returns the text's bytes, the [start, end) byte span of every field in
    order, and each line's field count.  Non-ASCII whitespace becomes " "
    before encoding, so a test of ASCII bytes finds every separator.
    """
    if text.isascii():
        data = text.encode("ascii")
    else:
        spaces = {ord(c): " " for c in set(text) if c.isspace() and not c.isascii()}
        data = text.translate(spaces).encode("utf-8", "surrogatepass")
    byte = np.frombuffer(data, np.uint8)
    # The ASCII characters for which str.isspace holds are the bytes 9-13
    # and 28-32; below a run's start the uint8 difference wraps past 4.
    space = (byte - np.uint8(9) <= 4) | (byte - np.uint8(28) <= 4)
    # +1 where a field ends, -1 where one starts.
    step = np.diff(space.view(np.int8), prepend=np.int8(1))
    opens = step == -1
    # A line starts after the "\n" that ends the one before it.
    line_at = np.flatnonzero(byte == ord("\n"))
    line_at[1:] = line_at[:-1] + 1
    line_at[:1] = 0
    counts = np.add.reduceat(opens, line_at, dtype=np.intp)
    return data, np.flatnonzero(opens), np.flatnonzero(step == 1), counts


def _distinct(
    data: bytes, starts: np.ndarray, ends: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """The distinct texts of the fields ``data[starts:ends]``, in ``str``
    order, and the position of each field's text among them.

    A field's key is its bytes as big-endian 8-byte words, zero-padded,
    plus its length where the data holds a zero byte; UTF-8 byte order is
    code point order.  Each distinct text is decoded once.
    """
    lengths = ends - starts
    words = np.ndarray(len(data) + 1, ">u8", data + bytes(8), strides=(1,))
    # Level j: the fields longer than 8 j bytes (all at level 0), and their
    # word at byte 8 j.
    levels = [(slice(None), words[starts] & _KEEP[np.minimum(lengths, 8)])]
    rest = np.flatnonzero(lengths > 8)
    # reach[j]: the fields on level j + 1.  Walk the number of levels after
    # which walking them and sorting the fields left costs least.
    reach = np.bincount((lengths[rest] - 1) // 8)[:0:-1].cumsum()[::-1]
    walked = np.append(0, np.cumsum(reach + _LEVEL_COST))
    for _ in range(np.argmin(walked + _SORT_COST * np.append(reach, 0))):
        offset = 8 * len(levels)
        left = np.minimum(lengths[rest] - offset, 8)
        levels.append((rest, words[starts[rest] + offset] & _KEEP[left]))
        rest = rest[lengths[rest] > offset + 8]
    if len(rest):
        offset = 8 * len(levels)
        spans = zip(starts[rest].tolist(), ends[rest].tolist())
        tails = [data[a + offset : b] for a, b in spans]
        levels.append((rest, _ranks(np.array(tails, object))))
    # From the last level up, rank the fields by their word, then by their
    # rank one level down (-1 for a field that ended); keys < len(word)**2.
    at = np.full(len(starts), -1, np.intp)
    for j in reversed(range(len(levels))):
        rest, word = levels[j]
        word = _ranks(word)
        if j + 1 < len(levels):
            word = _ranks(word * (len(word) + 1) + at[rest] + 1)
        at[rest] = word
    if 0 in data:
        at = _ranks(at * len(at) + _ranks(lengths))
    first = np.zeros(at.max(initial=-1) + 1, np.intp)
    first[at] = np.arange(len(at))
    texts = [
        data[a:b].decode("utf-8", "surrogatepass")
        for a, b in zip(starts[first].tolist(), ends[first].tolist())
    ]
    return texts, at


def _ranks(keys: np.ndarray) -> np.ndarray:
    """The position of each key among the distinct keys, ascending."""
    return np.unique(keys, return_inverse=True)[1]


def _sorted_index(items: list) -> tuple[tuple, np.ndarray]:
    """The distinct items, sorted, and the position of each item among
    them, in the narrowest unsigned integers that hold it."""
    distinct = sorted(set(items))
    at = dict(zip(distinct, range(len(distinct))))
    index = np.min_scalar_type(len(distinct))
    return tuple(distinct), np.fromiter(map(at.__getitem__, items), index, len(items))


def _timestamp(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def read_colocation(lines: Iterable[str]) -> EdgeTable:
    """Parse "t i j" lines into one bin per distinct t, ascending.

    ``lines`` is a text file object, whose "\\n" ends each line, or an
    iterable of which each item is one line; fields split as ``str.split``
    splits them.  Blank lines are skipped; duplicate (t, i, j) observations
    collapse to one edge, and the edges are sorted by (bin, lo, hi).
    Malformed lines and self contacts raise with the line number.  The
    text is parsed a block of about ``_PARSE_CHARS`` characters at a time
    (``_blocks``), on its UTF-8 bytes (``_fields``); each distinct node id
    and timestamp text of a block is decoded once, and after the last block
    ``_sorted_index`` numbers the node ids and the timestamps by sort.
    """
    names: list[str] = []  # each block's distinct node ids, in turn
    values: list[int] = []  # each block's distinct timestamps, in turn
    parts = []
    offset = 0
    for text in _blocks(lines):
        data, opens, closes, counts = _fields(text)
        wrong = np.flatnonzero((counts != 3) & (counts != 0))
        stop = int(wrong[0]) if len(wrong) else len(counts)
        # The lines before ``stop`` hold three fields each or none.
        lines_at = np.flatnonzero(counts[:stop])
        opens = opens[: 3 * len(lines_at)].reshape(-1, 3).T
        closes = closes[: 3 * len(lines_at)].reshape(-1, 3).T
        texts, t_at = _distinct(data, opens[0], closes[0])
        stamps = list(map(_timestamp, texts))
        ids, n_at = _distinct(data, opens[1:].ravel(), closes[1:].ravel())
        pairs = n_at.reshape(2, -1)
        # The first line at fault, by its first fault as the line is read.
        faults = []
        if None in stamps:
            k = int(np.flatnonzero(np.array([v is None for v in stamps])[t_at])[0])
            faults.append((k, 0, f"bad timestamp {texts[t_at[k]]!r}"))
        selfs = np.flatnonzero(pairs[0] == pairs[1])
        if len(selfs):
            k = int(selfs[0])
            faults.append((k, 1, f"self contact on node {ids[n_at[k]]!r}"))
        if faults:
            k, _, message = min(faults)
            raise ColocationParseError(offset + int(lines_at[k]) + 1, message)
        if stop < len(counts):
            raise ColocationParseError(
                offset + stop + 1, f"expected 't i j', got {counts[stop]} fields"
            )
        # Each block's positions among all blocks' distinct texts, narrow.
        t_at += len(values)
        pairs += len(names)
        values += stamps
        names += ids
        parts.append((
            t_at.astype(np.min_scalar_type(len(values))),
            pairs.astype(np.min_scalar_type(len(names))),
        ))
        offset += len(counts)

    nodes, node_at = _sorted_index(names)
    times, bin_at = _sorted_index(values)
    # Gathered a block at a time: a gather's index is made intp first.
    bins = np.concatenate([bin_at[:0]] + [bin_at[t] for t, _ in parts])
    ends = np.concatenate([node_at[:0].reshape(2, 0)] + [node_at[e] for _, e in parts], 1)
    del parts
    return EdgeTable._of_edges(nodes, times, bins, ends)


def parse_colocation(lines: Iterable[str]) -> list[SnapshotRecord]:
    """Parse "t i j" lines into per-bin records, ascending in t, as
    ``read_colocation`` does; each record's edges are sorted pairs."""
    return read_colocation(lines).records()


def validate_table(table: EdgeTable) -> np.ndarray | CliqueUnionViolation:
    """Check that every bin is a disjoint union of cliques.

    Each node of every bin is labelled with the least of itself and its
    neighbours.  As edges are distinct, a bin is a union of cliques exactly
    when both ends of every edge share a label and a degree; each label is
    then its clique's smallest node.  Returns one row per bin over
    ``table.nodes``, numbered by ``first_position_rows``, -1 at the nodes
    absent from the bin; otherwise ``_violation`` of the first bin that
    fails.  The bins are checked in chunks of ``_PARSE_CHARS`` // nodes
    (at least one), in order, so no working array spans the whole table.
    """
    n_bins, width = len(table.times), len(table.nodes)
    rows = np.empty((n_bins, width), np.min_scalar_type(-width - 1))
    # Every array below holds a chunk's cells or its edges; both ends of an
    # edge lie in its bin's chunk.
    chunk = max(1, _PARSE_CHARS // max(width, 1))
    cuts = np.searchsorted(table.bins, range(0, n_bins + chunk, chunk)).tolist()
    for first, a, b in zip(range(0, n_bins, chunk), cuts, cuts[1:]):
        # The (bin, node) cell of each edge's ends, flat in the chunk; lo < hi.
        lo = (table.bins[a:b] - first).astype(np.intp)
        lo *= width
        hi = lo + table.hi[a:b]
        lo += table.lo[a:b]
        n_rows = min(chunk, n_bins - first)
        size = n_rows * width
        label = np.full(size, width, np.min_scalar_type(width))  # absent
        label[lo] = table.lo[a:b]
        np.minimum.at(label, hi, table.lo[a:b])
        degree = np.bincount(lo, minlength=size)
        degree += np.bincount(hi, minlength=size)
        bad = (label[lo] != label[hi]) | (degree[lo] != degree[hi])
        if bad.any():
            return _violation(table, int(table.bins[a:b][bad].min()))
        # A clique's label is its smallest node: its first position in the row.
        rows[first : first + chunk] = first_position_rows(label.reshape(n_rows, width))
    return rows


def _violation(table: EdgeTable, b: int) -> CliqueUnionViolation:
    """The report on bin ``b``: its components that are not cliques, by
    their smallest node, with the pairs each lacks.  A component is a list
    of its nodes; joining two moves the shorter list into the longer."""
    at = table.bins == b
    edges = list(zip(table.lo[at].tolist(), table.hi[at].tolist()))
    members = {i: [i] for edge in edges for i in edge}
    for i, j in edges:
        short, long = sorted((members[i], members[j]), key=len)
        if short is not long:
            long += short
            members.update(dict.fromkeys(short, long))
    listed = Counter(id(members[i]) for i, _ in edges)
    components = {id(members[i]): members[i] for i in sorted(members)}
    report = []
    for c, nodes in components.items():
        missing = len(nodes) * (len(nodes) - 1) // 2 - listed[c]
        if missing:
            names = tuple(table.nodes[i] for i in sorted(nodes))
            report.append(NonCliqueComponent(names, missing))
    return CliqueUnionViolation(table.times[b], tuple(report))


def clique_rows(table: EdgeTable) -> np.ndarray:
    """The rows of ``validate_table``.

    Raises ValueError at the first bin that is not a union of cliques,
    naming its timestamp and each incomplete component with the number of
    pairs it is missing.
    """
    result = validate_table(table)
    if isinstance(result, CliqueUnionViolation):
        components = "; ".join(
            f"{list(c.nodes)} missing {c.missing_pairs} pair(s)" for c in result.components
        )
        raise ValueError(
            f"snapshot at t={result.timestamp} is not a union of cliques: {components}"
        )
    return result


def validate_clique_union(record: SnapshotRecord) -> ContactGraph | CliqueUnionViolation:
    """``validate_table`` on one snapshot: its contact graph, or the report.
    A pair listed twice counts once; a self pair raises ValueError."""
    table = EdgeTable.of_records([record])
    result = validate_table(table)
    if isinstance(result, CliqueUnionViolation):
        return result
    return row_graphs(result[:1], table.nodes)[0]


def snapshot_graphs(records: Iterable[SnapshotRecord]) -> list[ContactGraph]:
    """The contact graph of every snapshot, in order; raises as ``clique_rows``."""
    table = EdgeTable.of_records(records)
    return row_graphs(clique_rows(table), table.nodes)


def dataset_distributions(
    records: Iterable[SnapshotRecord], roster: Iterable[str] | None = None
) -> tuple[dict[int, float], dict[int, float]]:
    """Clique-size and clique-count histograms of a validated dataset.

    Raises ValueError as ``clique_rows`` does; the histograms are those
    of ``row_distributions``.
    """
    table = EdgeTable.of_records(records)
    return row_distributions(clique_rows(table), table.nodes, roster=roster)


def row_distributions(
    rows: np.ndarray, nodes: tuple[str, ...], roster: Iterable[str] | None = None
) -> tuple[dict[int, float], dict[int, float]]:
    """Clique-size and clique-count histograms of validated snapshot rows
    over ``nodes``, as ``clique_rows`` returns them.

    Sizes use min_size 2 (edge lists cannot show fewer).  Without a roster,
    nodes absent from a bin are invisible and the count histogram covers
    only cliques of two or more; with a roster, absent nodes enter the
    count histogram as singleton cliques, and a snapshot node missing from
    the roster raises ValueError.  Both come from ``pmf.tally_histogram``.
    """
    counts = cell_sizes(rows)
    cliques = np.count_nonzero(counts, axis=1)
    if roster is not None:
        roster_set = frozenset(roster)
        unknown = frozenset(nodes) - roster_set
        if unknown:
            missing = ", ".join(sorted(unknown))
            raise ValueError(f"snapshot nodes missing from the roster: {missing}")
        cliques += len(roster_set) - counts.sum(axis=1)
    return clique_size_histogram(counts), tally_histogram(cliques, "no realisations")


def load_roster(lines: Iterable[str]) -> tuple[str, ...]:
    """One node id per line, its only field; blank lines are skipped.  A
    line with more than one field, or an id listed twice, raises ValueError
    naming the line."""
    roster: dict[str, None] = {}
    for line_no, line in enumerate(lines, 1):
        fields = line.split()
        if len(fields) > 1:
            raise ValueError(
                f"roster line {line_no}: expected one node id, got {len(fields)} fields"
            )
        if fields and fields[0] in roster:
            raise ValueError(f"roster line {line_no}: duplicate node id {fields[0]!r}")
        roster.update(dict.fromkeys(fields))
    return tuple(roster)


def records_to_text(records: Iterable[SnapshotRecord]) -> str:
    """Canonical "t i j" text: bins ascending, edges sorted within a bin."""
    lines = [f"{record.timestamp} {i} {j}" for record in records for i, j in record.edges]
    return "\n".join(lines) + "\n"


def sequence_to_records(seq: ContactSequence) -> list[SnapshotRecord]:
    """Export a sampled sequence in the empirical snapshot format.

    Cliques become their full pair sets; singleton cliques have no pairs
    and are invisible, exactly as in real edge lists.
    """
    records = []
    for t, g in enumerate(seq.snapshots):
        cells = [sorted(map(str, cell)) for cell in g.cliques.cells]
        edges = sorted(pair for members in cells for pair in combinations(members, 2))
        records.append(SnapshotRecord(t, tuple(edges)))
    return records
