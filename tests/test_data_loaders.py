"""Tests of ``load_dataset``: CSV / JSON / JSON-lines sources and a ground truth."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.dataset import DatasetPair
from repro.data.loaders import load_dataset
from repro.exceptions import DataError


def _write(path, text, encoding="utf-8"):
    path.write_text(text, encoding=encoding)
    return path


class TestCsvSource:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "data.csv", "id,name,price\n1,sony tv,100\n2,lg tv,200\n")
        dataset = load_dataset(path, id_field="id")
        profiles = list(dataset.profiles)
        assert [p.profile_id for p in profiles] == [0, 1]
        assert profiles[0].original_id == "1"
        assert profiles[0].value_of("name") == "sony tv"
        assert "id" not in profiles[0].attribute_names()
        assert dataset.name == "data" and len(dataset.ground_truth) == 0

    def test_without_id_field(self, tmp_path):
        dataset = load_dataset(_write(tmp_path / "data.csv", "name\nsony\n"))
        assert dataset.profiles[0].original_id == "0"
        assert dataset.profiles[0].value_of("name") == "sony"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing.csv"):
            load_dataset(tmp_path / "missing.csv")

    def test_extra_field_names_the_file(self, tmp_path):
        with pytest.raises(DataError, match="data.csv"):
            load_dataset(_write(tmp_path / "data.csv", "name\na,b\n"))


class TestJsonSource:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "data.json", json.dumps([{"id": "a", "title": "blast"}]))
        profile = load_dataset(path, id_field="id").profiles[0]
        assert profile.original_id == "a"
        assert profile.value_of("title") == "blast"

    def test_list_values_flattened(self, tmp_path):
        path = _write(tmp_path / "data.json", json.dumps([{"authors": ["simonini", "gagliardelli"]}]))
        profile = load_dataset(path).profiles[0]
        assert profile.values_of("authors") == ["simonini", "gagliardelli"]

    @pytest.mark.parametrize(
        "text",
        [json.dumps({"not": "a list"}), "[1, 2", "[1]", '[{"a": 1}, "b"]', "[" * 100000],
        ids=["object", "truncated", "number-record", "string-record", "deeply-nested"],
    )
    def test_malformed_source_names_the_file(self, tmp_path, text):
        with pytest.raises(DataError, match="data.json"):
            load_dataset(_write(tmp_path / "data.json", text))


class TestJsonLinesSource:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "data.jsonl", '{"id": 7, "name": "a"}\n\n{"name": "b"}\n')
        dataset = load_dataset(path, id_field="id")
        assert [p.value_of("name") for p in dataset.profiles] == ["a", "b"]
        assert [p.original_id for p in dataset.profiles] == ["7", "1"]

    def test_read_as_json_lines_not_csv(self, tmp_path):
        path = _write(tmp_path / "data.JSONL", '{"name": "sony tv", "price": 1}\n')
        profile = load_dataset(path).profiles[0]
        assert profile.as_dict() == {"name": ["sony tv"], "price": ["1"]}

    @pytest.mark.parametrize("line", ["[1]", "{not json}", "1"], ids=["array", "not-json", "number"])
    def test_malformed_line_names_the_file(self, tmp_path, line):
        with pytest.raises(DataError, match="data.jsonl"):
            load_dataset(_write(tmp_path / "data.jsonl", '{"a": 1}\n' + line + "\n"))


class TestTwoSources:
    def test_ids_run_on_over_source_one(self, tmp_path):
        source0 = _write(tmp_path / "a.csv", "id,name\nx,a\ny,b\n")
        source1 = _write(tmp_path / "b.jsonl", '{"id": "x", "title": "c"}\n')
        dataset = load_dataset(source0, source1, id_field="id", name="pair")
        assert dataset.profiles.ids() == [0, 1, 2]
        assert [p.source_id for p in dataset.profiles] == [0, 0, 1]
        assert dataset.profiles.separator_id == 1
        assert dataset.name == "pair"


class TestGroundTruth:
    def _sources(self, tmp_path):
        source0 = _write(tmp_path / "a.csv", "id,name\na,sony\nb,lg\n")
        source1 = _write(tmp_path / "b.csv", "id,name\nx,sony\ny,lg\n")
        return source0, source1

    def test_first_two_columns_map_through_each_source(self, tmp_path):
        truth = _write(tmp_path / "gt.csv", "left,right,score\n a ,x,1\nb,missing\nb\n\nb,y\n")
        dataset = load_dataset(*self._sources(tmp_path), truth, id_field="id")
        assert dataset.ground_truth.pairs() == {(0, 2), (1, 3)}

    def test_one_source_maps_both_columns_through_it(self, tmp_path):
        source0 = _write(tmp_path / "a.csv", "id,name\na,sony\nb,sony\n")
        truth = _write(tmp_path / "gt.csv", "id1,id2\na,b\n")
        assert load_dataset(source0, None, truth, id_field="id").ground_truth.pairs() == {(0, 1)}

    @pytest.mark.parametrize(
        "text", ["id1,id2\nzz,yy\n", "id1\na\n", ""], ids=["unknown-ids", "one-column", "empty"]
    )
    def test_nothing_mapped_names_the_file(self, tmp_path, text):
        truth = _write(tmp_path / "gt.csv", text)
        with pytest.raises(DataError, match="gt.csv"):
            load_dataset(*self._sources(tmp_path), truth, id_field="id")


class TestEncoding:
    def test_applies_to_every_file(self, tmp_path):
        source0 = _write(tmp_path / "a.csv", "id,name\né,café\n", "latin-1")
        source1 = _write(tmp_path / "b.json", json.dumps([{"id": "ü", "name": "cafe"}]), "latin-1")
        truth = _write(tmp_path / "gt.csv", "id1,id2\né,ü\n", "latin-1")
        dataset = load_dataset(source0, source1, truth, id_field="id", encoding="latin-1")
        assert dataset.profiles[0].value_of("name") == "café"
        assert dataset.ground_truth.pairs() == {(0, 1)}

    def test_undecodable_source_names_the_file(self, tmp_path):
        _write(tmp_path / "a.csv", "name\ncafé\n", "latin-1")
        with pytest.raises(DataError, match="a.csv"):
            load_dataset(tmp_path / "a.csv")


_VALUES = st.one_of(st.none(), st.text(max_size=6), st.integers())
_RECORDS = st.lists(
    st.one_of(st.dictionaries(st.text(max_size=4), _VALUES | st.lists(_VALUES, max_size=2)), _VALUES),
    max_size=3,
)
_CONTENT = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(lambda text: text.encode("utf-8")),
    _RECORDS.map(lambda records: json.dumps(records).encode("utf-8")),
    _RECORDS.map(lambda records: "\n".join(map(json.dumps, records)).encode("utf-8")),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([".csv", ".json", ".jsonl", ".txt"]), _CONTENT, _CONTENT)
def test_arbitrary_bytes_give_a_dataset_or_a_data_error(tmp_path, suffix, source, truth):
    """Whatever the bytes of a source and of a ground truth, the reader
    returns a dataset or raises ``DataError``, nothing else."""
    (tmp_path / f"s{suffix}").write_bytes(source)
    (tmp_path / "gt.csv").write_bytes(truth)
    for ground_truth in (None, tmp_path / "gt.csv"):
        try:
            dataset = load_dataset(tmp_path / f"s{suffix}", None, ground_truth, id_field="id")
        except DataError:
            continue
        assert isinstance(dataset, DatasetPair)
