import io
from pathlib import Path

import pytest

from rwig.contact_graph import ContactGraph, from_assignment
from rwig.ingest import (
    CliqueUnionViolation,
    ColocationParseError,
    SnapshotRecord,
    dataset_distributions,
    load_roster,
    parse_colocation,
    records_to_text,
    sequence_to_records,
    validate_clique_union,
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
