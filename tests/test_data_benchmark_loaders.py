"""Tests of the Leipzig-style benchmark loaders (using locally written files)."""

import pytest

from repro.data.benchmark_loaders import load_abt_buy, load_amazon_google, load_dblp_acm
from repro.exceptions import DataError


def _write_benchmark(tmp_path, *, mapping_rows="idAbt,idBuy\na1,b1\na2,b2\n", files=None):
    names = files or ("Abt.csv", "Buy.csv", "abt_buy_perfectMapping.csv")
    (tmp_path / names[0]).write_text(
        "id,name,description,price\n"
        "a1,sony bravia tv,40 inch lcd télévision,499\n"
        "a2,canon eos camera,digital slr camera body,899\n"
        "a3,bose headphones,noise cancelling headphones,299\n",
        encoding="latin-1",
    )
    (tmp_path / names[1]).write_text(
        "id,name,description,manufacturer,price\n"
        "b1,sony bravia television,40in lcd tv,sony,510\n"
        "b2,canon eos slr,camera body only,canon,905\n",
        encoding="latin-1",
    )
    (tmp_path / names[2]).write_text(mapping_rows, encoding="latin-1")


class TestLoadAbtBuy:
    def test_directory_layout(self, tmp_path):
        _write_benchmark(tmp_path)
        dataset = load_abt_buy(tmp_path)
        assert dataset.name == "abt-buy"
        assert len(dataset.profiles) == 5
        assert dataset.profiles.is_clean_clean
        assert dataset.ground_truth.pairs() == {(0, 3), (1, 4)}

    def test_latin1_records_load(self, tmp_path):
        _write_benchmark(tmp_path)
        abt_first = load_abt_buy(tmp_path).profiles[0]
        assert abt_first.value_of("description") == "40 inch lcd télévision"
        assert abt_first.original_id == "a1"
        assert "id" not in abt_first.attribute_names()

    def test_unmappable_rows_skipped(self, tmp_path):
        _write_benchmark(tmp_path, mapping_rows="idAbt,idBuy\na1,b1\nmissing,b2\n")
        assert load_abt_buy(tmp_path).ground_truth.pairs() == {(0, 3)}

    def test_empty_mapping_raises(self, tmp_path):
        _write_benchmark(tmp_path, mapping_rows="idAbt,idBuy\nzz,yy\n")
        with pytest.raises(DataError, match="abt_buy_perfectMapping.csv"):
            load_abt_buy(tmp_path)

    def test_missing_directory_file(self, tmp_path):
        with pytest.raises(DataError):
            load_abt_buy(tmp_path)

    def test_pipeline_runs_on_loaded_benchmark(self, tmp_path):
        from repro.core.config import SparkERConfig
        from repro.core.sparker import SparkER

        _write_benchmark(tmp_path)
        dataset = load_abt_buy(tmp_path)
        config = SparkERConfig.schema_agnostic()
        config.matcher.threshold = 0.3
        result = SparkER(config).run(dataset.profiles, dataset.ground_truth)
        assert result.summary()["clusters"] >= 1


@pytest.mark.parametrize(
    "loader,files",
    [
        (load_amazon_google, ("Amazon.csv", "GoogleProducts.csv", "Amzon_GoogleProducts_perfectMapping.csv")),
        (load_dblp_acm, ("DBLP2.csv", "ACM.csv", "DBLP-ACM_perfectMapping.csv")),
    ],
)
def test_other_leipzig_layouts(tmp_path, loader, files):
    _write_benchmark(tmp_path, files=files)
    assert loader(tmp_path).ground_truth.pairs() == {(0, 3), (1, 4)}
