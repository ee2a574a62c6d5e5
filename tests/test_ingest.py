import io
from collections import deque
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import rwig.ingest as ingest
from rwig.combinatorics import first_position_rows
from rwig.contact_graph import ContactGraph, from_assignment, graph_rows
from rwig.ingest import (
    CliqueUnionViolation,
    ColocationParseError,
    EdgeTable,
    NonCliqueComponent,
    SnapshotRecord,
    dataset_distributions,
    load_roster,
    parse_colocation,
    records_to_text,
    row_distributions,
    sequence_to_records,
    snapshot_graphs,
    validate_clique_union,
    validate_table,
)
from rwig.simulate import sample_sequence

from conftest import dict_count_histogram, dict_size_histogram, random_ensemble

FIXTURES = Path(__file__).parent / "fixtures"


def parse(text: str):
    return parse_colocation(io.StringIO(text))


def test_parse_groups_by_time():
    records = parse("0 a b\n0 b c\n0 a c\n")
    assert len(records) == 1
    assert records[0].timestamp == 0
    assert len(records[0].edges) == 3


def test_parse_separates_bins_and_sorts():
    records = parse("5 a b\n0 a b\n")
    assert [r.timestamp for r in records] == [0, 5]


def test_parse_deduplicates_and_normalizes_pairs():
    records = parse("0 b a\n0 a b\n")
    assert records[0].edges == (("a", "b"),)


@pytest.mark.parametrize("seed", range(3))
def test_ranked_pair_key_gives_the_packed_key_table(monkeypatch, seed):
    # Past _KEY_LIMIT an edge is keyed by its bin and its pair's rank; the
    # table is the one the packed key gives, repeated pairs in either order
    # collapsing to one edge.
    rng = np.random.default_rng(seed)
    names = [f"n{k}" for k in rng.permutation(12)]
    records = []
    for t in rng.choice(1000, 30, replace=False).tolist():
        ends = rng.integers(0, 12, (rng.integers(0, 20), 2)).tolist()
        pairs = [(names[i], names[j]) for i, j in ends if i != j]
        records.append(SnapshotRecord(t, tuple(pairs + [(j, i) for i, j in pairs[::2]])))
    expected = sorted(
        {(r.timestamp, min(pair), max(pair)) for r in records for pair in r.edges}
    )
    parsed = tables_of(records, monkeypatch)[1]
    edges = zip(parsed.bins.tolist(), parsed.lo.tolist(), parsed.hi.tolist())
    assert [(parsed.times[b], parsed.nodes[i], parsed.nodes[j]) for b, i, j in edges] == (
        expected
    )


def tables_of(records, monkeypatch) -> list[EdgeTable]:
    """The table of ``records`` from the records and from their text.  The
    ranked pair key gives the same tables as the packed key."""
    text = records_to_text(records)
    tables = {}
    for limit in (ingest._KEY_LIMIT, 0):
        monkeypatch.setattr(ingest, "_KEY_LIMIT", limit)
        tables[limit] = EdgeTable.of_records(records), ingest.read_colocation(io.StringIO(text))
    monkeypatch.undo()
    for packed, ranked in zip(*tables.values()):
        assert (ranked.nodes, ranked.times) == (packed.nodes, packed.times)
        for name in ("bins", "lo", "hi"):
            got, want = getattr(ranked, name), getattr(packed, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
    return list(tables[ingest._KEY_LIMIT])


def check_narrow_table(records, monkeypatch, bins_type, positions_type, chunks=(1, 2, 3)):
    # Each table holds its bins and node positions in the narrowest unsigned
    # integers, reads back as the sorted records, and validates as the
    # per-record search does (searched once per distinct bin), also
    # ``chunks`` bins at a time.
    searched = {}
    for r in records:
        if r.edges not in searched:
            searched[r.edges] = bfs_validate(r)
        if isinstance(searched[r.edges], CliqueUnionViolation):
            expected = bfs_validate(r)
            break
    else:
        rows, nodes = graph_rows(searched[r.edges] for r in records)
        expected = (nodes, rows.tolist())
    sorted_records = [
        SnapshotRecord(r.timestamp, tuple(sorted({tuple(sorted(p)) for p in r.edges})))
        for r in records
    ]
    for table in tables_of(records, monkeypatch):
        assert (table.bins.dtype, table.lo.dtype, table.hi.dtype) == (
            np.dtype(bins_type), np.dtype(positions_type), np.dtype(positions_type)
        )
        assert table.records() == sorted_records
        for bins in (None, *chunks):
            if bins is not None:
                monkeypatch.setattr(ingest, "_PARSE_CHARS", bins * len(table.nodes))
            result = validate_table(table)
            if isinstance(result, np.ndarray):
                result = (table.nodes, result.tolist())
            assert result == expected
        monkeypatch.undo()


@pytest.mark.parametrize("n, positions", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_node_positions_fill_the_narrowest_integers(n, positions, monkeypatch):
    # Node k is the k-th id in sorted order; the last of 256 is 255, the
    # largest a uint8 holds.  Bin 0 pairs off the nodes, bin 1 joins the
    # last three, and bin 2, which fails, lacks one pair of them.
    ids = [f"n{k:03d}" for k in range(n)]
    top = ids[-3:]
    records = [
        SnapshotRecord(0, tuple(zip(ids[1::2], ids[::2]))),
        SnapshotRecord(1, tuple(combinations(reversed(top), 2)) + ((ids[0], ids[1]),)),
    ]
    check_narrow_table(records, monkeypatch, np.uint8, positions)
    bad = records + [SnapshotRecord(2, ((top[0], top[1]), (top[2], top[1])))]
    check_narrow_table(bad, monkeypatch, np.uint8, positions)
    with pytest.raises(ValueError) as raised:
        snapshot_graphs(bad)
    assert str(raised.value) == (
        f"snapshot at t=2 is not a union of cliques: {top} missing 1 pair(s)"
    )


@pytest.mark.parametrize("n_bins", [65_535, 65_536])
def test_bins_fill_the_narrowest_integers(n_bins, monkeypatch):
    # The last bin is 65,534 or 65,535, which a uint16 still holds.  Each
    # bin holds one pair of three nodes, the last their triangle, or, the
    # second time, a path that lacks one pair.  Bins are validated 21,845
    # at a time.
    pairs = [("a", "b"), ("c", "b"), ("a", "c")]
    records = [SnapshotRecord(3 * t, (pairs[t % 3],)) for t in range(n_bins - 1)]
    for last in (pairs, pairs[:2]):
        records.append(SnapshotRecord(3 * n_bins, tuple(last)))
        check_narrow_table(records, monkeypatch, np.uint16, np.uint8, chunks=())
        records.pop()


def test_parse_rejects_self_contact():
    with pytest.raises(ColocationParseError, match="line 1.*self contact"):
        parse("0 a a\n")
    with pytest.raises(ValueError, match="^self contact on node 'a'$"):
        validate_clique_union(SnapshotRecord(0, (("b", "c"), ("a", "a"))))


def test_parse_rejects_malformed_lines():
    with pytest.raises(ColocationParseError, match="line 2"):
        parse("0 a b\n0 a\n")
    with pytest.raises(ColocationParseError, match="bad timestamp"):
        parse("zero a b\n")


def test_parse_skips_blank_lines():
    assert len(parse("\n0 a b\n\n")) == 1


def test_validate_triangle_is_clique():
    [record] = parse("0 a b\n0 b c\n0 a c\n")
    result = validate_clique_union(record)
    assert isinstance(result, ContactGraph)
    assert result.to_json_obj() == [["a", "b", "c"]]


def test_validate_path_reports_missing_pair():
    [record] = parse("0 a b\n0 b c\n")
    result = validate_clique_union(record)
    assert isinstance(result, CliqueUnionViolation)
    [component] = result.components
    assert component.nodes == ("a", "b", "c")
    assert component.missing_pairs == 1

    # Two incomplete components beside a triangle, reported by smallest node.
    [record] = parse("0 c d\n0 d e\n0 e f\n0 m n\n0 n o\n0 m o\n0 a b\n0 b z\n")
    result = validate_clique_union(record)
    assert isinstance(result, CliqueUnionViolation)
    assert [(c.nodes, c.missing_pairs) for c in result.components] == [
        (("a", "b", "z"), 1),
        (("c", "d", "e", "f"), 3),
    ]


def test_validate_empty_record():
    result = validate_clique_union(SnapshotRecord(0, ()))
    assert isinstance(result, ContactGraph)
    assert result.to_json_obj() == []


def test_validation_agrees_with_assignment_grouping():
    [record] = parse("0 a b\n0 b c\n0 a c\n0 x y\n")
    graph = validate_clique_union(record)
    by_component = {"a": 0, "b": 0, "c": 0, "x": 1, "y": 1}
    assert graph == from_assignment(by_component)


def test_dataset_distributions_triangle():
    [record] = parse("0 a b\n0 b c\n0 a c\n")
    sizes, counts = dataset_distributions([record])
    assert sizes == {3: 1.0}
    assert counts == {1: 1.0}


def test_dataset_distributions_mixed():
    records = parse("0 a b\n0 c d\n1 a b\n1 a c\n1 a d\n1 b c\n1 b d\n1 c d\n")
    sizes, counts = dataset_distributions(records)
    assert sizes == {2: pytest.approx(2 / 3), 4: pytest.approx(1 / 3)}
    assert counts == {1: 0.5, 2: 0.5}


def test_dataset_distributions_with_roster():
    records = parse("0 a b\n")
    roster = ("a", "b", "c", "d")
    _, counts = dataset_distributions(records, roster=roster)
    # c and d were absent, so they count as singleton cliques.
    assert counts == {3: 1.0}
    with pytest.raises(ValueError, match="missing from the roster: b"):
        dataset_distributions(records, roster=("a", "c"))


def test_dataset_distributions_rejects_non_clique():
    records = parse("7 a b\n7 b c\n")
    with pytest.raises(ValueError, match="t=7"):
        dataset_distributions(records)


def test_roster_loading():
    assert load_roster(io.StringIO("a\n\nb\n")) == ("a", "b")
    # An id is the line's only field, split as edge-list fields are.
    assert load_roster(io.StringIO(" a\t\n\u3000b\u3000\n")) == ("a", "b")
    with pytest.raises(ValueError, match=r"line 3: duplicate node id 'a'"):
        load_roster(io.StringIO("a\nb\na\n"))
    with pytest.raises(ValueError, match=r"line 2: duplicate node id 'a'"):
        load_roster(io.StringIO("a\n a \n"))
    # Two ids on one line are not one id holding a space.
    with pytest.raises(ValueError, match="line 4: expected one node id, got 2 fields"):
        load_roster(io.StringIO("c\nd\n\nx y\n"))


def test_fixture_roundtrip_is_bit_identical():
    text = (FIXTURES / "cliques.txt").read_text()
    records = parse(text)
    for record in records:
        assert isinstance(validate_clique_union(record), ContactGraph)
    assert records_to_text(records) == text
    assert parse(records_to_text(records)) == records


def test_path_fixture_is_violation():
    [record] = parse((FIXTURES / "path.txt").read_text())
    assert isinstance(validate_clique_union(record), CliqueUnionViolation)


def test_generated_sequences_always_validate():
    # Generator/validator closure: anything sampled from the model and
    # exported as snapshots must come back as unions of cliques.
    for seed in range(5):
        ens = random_ensemble(4, 3, seed=seed)
        seq = sample_sequence(ens, 30, seed=seed)
        for record in sequence_to_records(seq):
            assert isinstance(validate_clique_union(record), ContactGraph)


def test_generated_sequences_roundtrip_through_text():
    ens = random_ensemble(3, 2, seed=1)
    seq = sample_sequence(ens, 10, seed=2)
    records = sequence_to_records(seq)
    assert parse(records_to_text(records)) == [r for r in records if r.edges]


# --- the batch validator against a per-snapshot breadth-first search -------


def bfs_validate(record: SnapshotRecord) -> ContactGraph | CliqueUnionViolation:
    """The clique-union check spelled out for one snapshot: a breadth-first
    search per component, then its distinct pairs against c(c-1)/2."""
    neighbours: dict[str, set[str]] = {}
    for i, j in record.edges:
        neighbours.setdefault(i, set()).add(j)
        neighbours.setdefault(j, set()).add(i)
    seen: set[str] = set()
    components = []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        queue, component = deque([start]), []
        while queue:
            node = queue.popleft()
            component.append(node)
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        components.append(sorted(component))
    bad = []
    for component in components:
        listed = sum(len(neighbours[w]) for w in component) // 2
        short = len(component) * (len(component) - 1) // 2 - listed
        if short:
            bad.append(NonCliqueComponent(tuple(component), short))
    if bad:
        return CliqueUnionViolation(record.timestamp, tuple(bad))
    return ContactGraph.from_cells(components)


NAMES = ["a", "b", "c", "d", "e", "a1", "b10", "b2", "Z", "z"]


@st.composite
def snapshot_records(draw, timestamp=st.integers(-3, 3)):
    """Cliques from a random grouping of nodes; damaged ones lose some
    pairs, gain others, list some twice or reversed."""
    nodes = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=8))
    groups = draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    pairs = [
        (a, b) for (a, ga), (b, gb) in combinations(zip(nodes, groups), 2) if ga == gb
    ]
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        pairs = [p for p, k in zip(pairs, keep) if k]
        extra = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES))
        pairs += draw(st.lists(extra.filter(lambda p: p[0] != p[1]), max_size=3))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    else:
        pairs = [tuple(sorted(p)) for p in pairs]
    return SnapshotRecord(draw(timestamp), tuple(pairs))


def path(n: int) -> SnapshotRecord:
    """One bin holding a path through n nodes."""
    ids = [f"n{i}" for i in range(n)]
    return SnapshotRecord(0, tuple(zip(ids, ids[1:])))


@settings(max_examples=300, deadline=None)
@given(st.lists(snapshot_records(), max_size=5))
# A pair listed twice, in either order, is one pair: no triangle, no
# negative count.
@example([SnapshotRecord(0, (("a", "b"), ("b", "a"), ("b", "c")))])
@example([SnapshotRecord(0, (("a", "b"), ("a", "b")))])
# Each node is labelled by its smallest neighbour or itself.  A star agrees
# on labels but not on degrees; a path holds each label's pair count but
# joins two labels by an edge; a 4-cycle agrees on degrees but not labels.
@example([SnapshotRecord(0, (("a", "b"), ("a", "c")))])
@example([SnapshotRecord(0, (("a", "b"), ("a", "c"), ("b", "d")))])
@example([SnapshotRecord(0, (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))])
# Only the later of two bins fails.
@example([SnapshotRecord(1, (("a", "b"),)), SnapshotRecord(2, (("a", "b"), ("b", "c")))])
# One long component.
@example([path(2_000)])
def test_batch_validation_agrees_with_bfs(records):
    records = [SnapshotRecord(0, ())] + records
    expected = [bfs_validate(r) for r in records]
    for record, want in zip(records, expected):
        assert validate_clique_union(record) == want
    # All records in one batch: the graphs, or the first violation.  Bins
    # are validated _PARSE_CHARS // nodes at a time: so also one, two and
    # three at a time.
    violations = [v for v in expected if isinstance(v, CliqueUnionViolation)]
    table = EdgeTable.of_records(records)
    width = max(len(table.nodes), 1)
    for chars in (ingest._PARSE_CHARS, width, 2 * width, 3 * width):
        with mock.patch.object(ingest, "_PARSE_CHARS", chars):
            result = validate_table(table)
        if violations:
            assert result == violations[0]
        else:
            # The rows number each bin's cliques 0, 1, ... by smallest node.
            rows, nodes = graph_rows(expected)
            assert (nodes, result.tolist()) == (table.nodes, rows.tolist())
    if not violations:
        assert snapshot_graphs(records) == expected
        return
    parts = "; ".join(
        f"{list(c.nodes)} missing {c.missing_pairs} pair(s)"
        for c in violations[0].components
    )
    message = f"snapshot at t={violations[0].timestamp} is not a union of cliques: {parts}"
    with pytest.raises(ValueError) as raised:
        snapshot_graphs(records)
    assert str(raised.value) == message


def test_validate_empty_table():
    table = EdgeTable.of_records([])
    assert validate_table(table).shape == (0, 0)
    assert snapshot_graphs([]) == []
    rows = validate_table(EdgeTable.of_records([SnapshotRecord(4, ())] * 2))
    assert rows.shape == (2, 0)


# --- parsing in blocks ------------------------------------------------------


GOOD_LINES = [
    "0 a b",
    "",
    "0 b\x0bc",  # a vertical tab separates fields; it ends no line
    "0 a c",
    "   ",
    "1 a b",
    "1 c d",
    "1 d c",
    "2 e\td",
]


def write_crlf(path, lines):
    path.write_bytes("".join(f"{line}\r\n" for line in lines).encode("utf-8"))


def read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_colocation(fh)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 1 << 12])
def test_parse_counts_file_lines_across_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "_PARSE_CHARS", block)
    path = tmp_path / "edges.txt"
    write_crlf(path, GOOD_LINES)
    assert read_file(path) == [
        SnapshotRecord(0, (("a", "b"), ("a", "c"), ("b", "c"))),
        SnapshotRecord(1, (("a", "b"), ("c", "d"))),
        SnapshotRecord(2, (("d", "e"),)),
    ]
    faults = {
        "0 a": "expected 't i j', got 2 fields",
        "0 a b c": "expected 't i j', got 4 fields",
        "t0 a b": "bad timestamp 't0'",
        "0 q q": "self contact on node 'q'",
        "x y y": "bad timestamp 'x'",
    }
    for at in range(len(GOOD_LINES) + 1):
        for fault, message in faults.items():
            lines = GOOD_LINES[:at] + [fault] + GOOD_LINES[at:] + ["0 q q", "0 a"]
            write_crlf(path, lines)
            with pytest.raises(ColocationParseError) as raised:
                read_file(path)
            assert str(raised.value) == f"line {at + 1}: {message}"
            assert raised.value.line_no == at + 1


# --- the byte parser against a line-by-line str.split parser ----------------


def split_parse(lines):
    """Each line split by ``str.split`` and checked in turn: the distinct
    (t, i, j) edges with i < j, sorted, or the first line's first fault."""
    edges = set()
    for line_no, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ColocationParseError(line_no, f"expected 't i j', got {len(fields)} fields")
        t, i, j = fields
        try:
            t = int(t)
        except ValueError:
            raise ColocationParseError(line_no, f"bad timestamp {t!r}") from None
        if i == j:
            raise ColocationParseError(line_no, f"self contact on node {i!r}")
        edges.add((t, min(i, j), max(i, j)))
    return sorted(edges)


# Whitespace that str.split splits at, ASCII and not; none of it is "\n".
GAPS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
        "\u2028", "\u3000", " \u3000\t"]
# Ids of one to more than eight UTF-8 bytes; some differ only by a zero
# byte, two are control bytes that are not spaces, and one holds a lone
# surrogate (as surrogateescape decoding makes).
IDS = ["a", "b", "a1", "Z", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefghj",
       "node_id_number_17", "node_id_number_18", "node_id_17_number", "node_id_18_numbe",
       "\x00", "a\x00", "a\x00b", "\xe9", "\u8282\u70b9", "\xfc" * 5, "\U0001d518x",
       "\xf8\x00\xf8\x00\xf8", "\udce9x", "\x01", "\x1b"]
TIMES = ["0", "1", "+1", "01", "1_0", "-2", str(2**70), "\u0663", "0000000000000000007"]
BAD_TIMES = ["t0", "1.5", "_1", "1__0", "0x10", "\xe9", "1\x00"]
# Line ends, including none and ends that str.splitlines knows besides "\n".
ENDS = ["\n", "\r\n", "", "\r", "\x0b", "\x1c", "\u2028"]


def spaced(draw, fields):
    gaps = [draw(st.sampled_from(GAPS)) for _ in fields[1:]]
    text = fields[0] + "".join(gap + field for gap, field in zip(gaps, fields[1:]))
    lead = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
    trail = draw(st.sampled_from(["", " ", "\x85", "\xa0"]))
    return lead + text + trail + draw(st.sampled_from(ENDS))


@st.composite
def good_lines(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", "\n", "\r\n", " \t\n", "\u3000\x85\n", "\x0b"]))
    i, j = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=2, unique=True))
    return spaced(draw, [draw(st.sampled_from(TIMES)), i, j])


@st.composite
def bad_lines(draw):
    kind = draw(st.sampled_from(["fields", "timestamp", "self"]))
    i, j = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=2, unique=True))
    t = draw(st.sampled_from(TIMES))
    if kind == "fields":
        n = draw(st.sampled_from([1, 2, 4, 5]))
        fields = [t, i, j, i, t][:n]
    elif kind == "timestamp":
        fields = [draw(st.sampled_from(BAD_TIMES)), i, draw(st.sampled_from([i, j]))]
    else:
        fields = [t, i, i]
    return spaced(draw, fields)


# Many short lines, and two lines that share one 100,000-byte id beside
# ids that differ from it in one byte, at its end or in its middle.
LONG_ID = "x" * 100_000
SHARED_LONG_ID = [f"{t % 7} n{t % 50} m{t % 30}\n" for t in range(80_000)] + [
    f"3 {LONG_ID} a\n", f"5 {LONG_ID}y {LONG_ID}\n", f"5 b {LONG_ID}\x00\n",
    f"6 {LONG_ID[:60_000]}a{LONG_ID[:40_000]} {LONG_ID[:60_000]}b{LONG_ID[:39_999]}\n",
]


def open_text(path):
    """The file as ``rwig analyze`` opens it; surrogateescape lets the lone
    surrogate of IDS round-trip through the file."""
    return open(path, "r", encoding="utf-8-sig", errors="surrogateescape")


@settings(max_examples=400, deadline=None)
@given(
    lines=st.lists(good_lines(), max_size=30),
    faults=st.lists(st.tuples(st.integers(0, 30), bad_lines()), max_size=2),
    block=st.sampled_from([1, 2, 7, 13, 64, 1 << 20]),
    bom=st.booleans(),
)
@example(lines=SHARED_LONG_ID, faults=[], block=1 << 20, bom=False)
@example(lines=SHARED_LONG_ID[-4:], faults=[], block=1 << 16, bom=True)
def test_parse_agrees_with_line_by_line_split(tmp_path_factory, lines, faults, block, bom):
    for at, line in faults:
        lines.insert(at, line)
    # Their text as a file, read in chunks: "\n", "\r\n" and "\r" end its
    # lines, and a chunk can end inside a line or between "\r" and "\n".
    path = tmp_path_factory.getbasetemp() / "edges.txt"
    path.write_bytes(("\ufeff" * bom + "".join(lines)).encode("utf-8", "surrogateescape"))
    with open_text(path) as fh:
        file_lines = fh.readlines()
    # The items as given, the pieces str.splitlines cuts from their text,
    # and the lines of the file.
    for items in (lines, "".join(lines).splitlines(True), file_lines):
        try:
            expected = split_parse(items)
        except ColocationParseError as error:
            expected = error
        with mock.patch.object(ingest, "_PARSE_CHARS", block), open_text(path) as fh:
            source = fh if items is file_lines else iter(items)
            if isinstance(expected, ColocationParseError):
                with pytest.raises(ColocationParseError) as raised:
                    ingest.read_colocation(source)
                assert str(raised.value) == str(expected)
                assert raised.value.line_no == expected.line_no
                continue
            table = ingest.read_colocation(source)
        assert table.nodes == tuple(sorted({w for _, i, j in expected for w in (i, j)}))
        assert table.times == tuple(sorted({t for t, _, _ in expected}))
        got = zip(table.bins.tolist(), table.lo.tolist(), table.hi.tolist())
        assert [(table.times[b], table.nodes[i], table.nodes[j]) for b, i, j in got] == (
            expected
        )
        # The table of its own records is the same table, field by field.
        again = EdgeTable.of_records(table.records())
        assert (again.nodes, again.times) == (table.nodes, table.times)
        for name in ("bins", "lo", "hi"):
            assert getattr(again, name).tolist() == getattr(table, name).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(IDS + TIMES), max_size=4), max_size=12), st.data())
def test_fields_decode_each_distinct_text_once_in_str_order(lines, data):
    block = [spaced(data.draw, fields) if fields else "" for fields in lines]
    buffer, starts, ends, counts = ingest._fields(ingest._joined(block))
    assert counts.tolist() == [len(line.split()) for line in block]
    words = [word for line in block for word in line.split()]
    # Fields past the first word are ranked all by their remaining bytes
    # (a sort costs nothing), by the default plan, or a word at a time (a
    # sort costs more than any walk).
    for cost in (0, ingest._SORT_COST, 1 << 40):
        with mock.patch.object(ingest, "_SORT_COST", cost):
            texts, at = ingest._distinct(buffer, starts, ends)
        assert texts == sorted(set(words))
        assert [texts[k] for k in at.tolist()] == words


def test_fields_split_at_exactly_the_ascii_spaces():
    # Every ASCII character but the line end, between two fields.
    for c in map(chr, range(128)):
        if c != "\n":
            assert ingest._fields(f"a{c}b\n")[3].tolist() == [len(f"a{c}b".split())]


def test_distinct_sorts_the_fields_left_where_walking_costs_more():
    # Many 16-byte ids walk their second word; ids that share a long prefix
    # rank by their remaining bytes, alone when short ids sit beside them.
    def sorted_fields(block):
        data, starts, ends, _ = ingest._fields(ingest._joined(block))
        sizes = []

        def ranks(keys):
            if keys.dtype == object:
                sizes.append(len(keys))
            return real(keys)

        real = ingest._ranks
        with mock.patch.object(ingest, "_ranks", ranks):
            texts, at = ingest._distinct(data, starts, ends)
        words = [word for line in block for word in line.split()]
        assert [texts[k] for k in at.tolist()] == words
        return sizes

    short = [f"0 {i:016d} n{i}" for i in range(500)]
    long = [f"1 {'x' * 1000}a {'x' * 1000}b", f"2 {'x' * 1000}c {'x' * 999}"]
    assert sorted_fields(short) == []
    assert sorted_fields(long) == [4]
    assert sorted_fields(short + long) == [4]


# --- the bincount histograms against one tuple of cell sizes per row --------


def tuple_row_distributions(rows, nodes, roster=None):
    """``row_distributions`` as it was written before it counted with
    bincount: one tuple of cell sizes per row, pooled in dicts."""
    n_rows, width = rows.shape
    slots = np.arange(n_rows)[:, None] * (width + 1) + rows.astype(np.intp) + 1
    counts = np.bincount(slots.ravel(), minlength=n_rows * (width + 1))
    counts = counts.reshape(n_rows, width + 1)[:, 1:].tolist()
    sizes = [(tuple(filter(None, c)), 1.0) for c in counts]
    count_sizes = sizes
    if roster is not None:
        roster_set = frozenset(roster)
        unknown = frozenset(nodes) - roster_set
        if unknown:
            missing = ", ".join(sorted(unknown))
            raise ValueError(f"snapshot nodes missing from the roster: {missing}")
        count_sizes = [(q + (1,) * (len(roster_set) - sum(q)), w) for q, w in sizes]
    return dict_size_histogram(sizes, min_size=2), dict_count_histogram(count_sizes)


@st.composite
def snapshot_rows(draw):
    """Rows over some of NAMES, -1 where a node is absent: each node names
    its cell 0-3, or -1 when absent, and ``first_position_rows`` numbers the
    cells from the position where each name first appears."""
    width = draw(st.integers(0, 7))
    labels = draw(
        st.lists(
            st.lists(st.integers(-1, 3), min_size=width, max_size=width), max_size=8
        )
    )
    first = [[row.index(name) if name >= 0 else width for name in row] for row in labels]
    rows = first_position_rows(np.array(first, np.intp).reshape(len(labels), width))
    nodes = tuple(sorted(draw(st.lists(st.sampled_from(NAMES), min_size=width,
                                       max_size=width, unique=True))))
    roster = draw(st.none() | st.lists(st.sampled_from(NAMES + ["y"]), unique=True))
    return rows, nodes, roster


def test_snapshot_rows_draw_absent_and_present_nodes():
    # The strategy reaches rows holding absent nodes and two or more cells.
    rows, _, _ = find(snapshot_rows(), lambda case: {-1, 1} <= set(case[0].ravel().tolist()))
    assert {-1, 0, 1} <= set(rows.ravel().tolist())


def outcome(function, *args, **kwargs):
    try:
        return [list(h.items()) for h in function(*args, **kwargs)]
    except ValueError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(snapshot_rows())
@example((np.empty((0, 0), np.intp), (), None))  # no rows: the size histogram is empty
@example((np.full((2, 2), -1), ("a", "b"), None))  # empty rows
@example((np.array([[0, 1]]), ("a", "b"), ("a", "b", "c")))  # singletons only
@example((np.array([[0, 0]]), ("a", "b"), ("a",)))  # b is missing from the roster
@example((np.empty((0, 2), np.intp), ("a", "b"), ("a",)))  # both faults: roster first
def test_row_distributions_agree_with_tuples(case):
    rows, nodes, roster = case
    expected = outcome(tuple_row_distributions, rows, nodes, roster=roster)
    assert outcome(row_distributions, rows, nodes, roster=roster) == expected
