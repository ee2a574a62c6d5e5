import io
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwig.ingest as ingest
from rwig.contact_graph import ContactGraph, from_assignment
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
    sequence_to_records,
    snapshot_graphs,
    validate_clique_union,
    validate_table,
)
from rwig.simulate import sample_sequence

from conftest import random_ensemble

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


def test_parse_rejects_self_contact():
    with pytest.raises(ColocationParseError, match="line 1.*self contact"):
        parse("0 a a\n")


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
    with pytest.raises(ValueError):
        load_roster(io.StringIO("a\na\n"))


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
    search per component, then its listed edges against c(c-1)/2."""
    neighbours: dict[str, list[str]] = {}
    for i, j in record.edges:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(snapshot_records(), max_size=5))
def test_batch_validation_agrees_with_bfs(records):
    records = [SnapshotRecord(0, ())] + records
    expected = [bfs_validate(r) for r in records]
    for record, want in zip(records, expected):
        assert validate_clique_union(record) == want
    # All records in one batch: the graphs, or the first violation.
    violations = [v for v in expected if isinstance(v, CliqueUnionViolation)]
    table = EdgeTable.of_records(records)
    if not violations:
        assert snapshot_graphs(records) == expected
        assert len(validate_table(table)) == len(records)
        return
    assert validate_table(table) == violations[0]
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
    monkeypatch.setattr(ingest, "_PARSE_LINES", block)
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
