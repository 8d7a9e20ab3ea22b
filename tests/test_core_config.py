"""Tests of the pipeline configuration."""

import pytest

from repro.core.config import (
    BlockerConfig,
    ClustererConfig,
    MatcherConfig,
    SamplingConfig,
    SparkERConfig,
)
from repro.exceptions import ConfigurationError


class TestBlockerConfig:
    def test_defaults_valid(self):
        BlockerConfig().validate()

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            BlockerConfig(attribute_threshold=2.0).validate()

    def test_invalid_purge_factor(self):
        with pytest.raises(ConfigurationError):
            BlockerConfig(purge_factor=0.0).validate()

    def test_invalid_filter_ratio(self):
        with pytest.raises(ConfigurationError):
            BlockerConfig(filter_ratio=1.5).validate()

    def test_invalid_weighting(self):
        with pytest.raises(ConfigurationError, match="'nope'"):
            BlockerConfig(weighting_scheme="nope").validate()

    def test_invalid_pruning(self):
        with pytest.raises(ConfigurationError, match="'nope'"):
            BlockerConfig(pruning_strategy="nope").validate()

    def test_names_parse_case_insensitively(self):
        BlockerConfig(weighting_scheme="ECBS", pruning_strategy="CNP").validate()

    def test_invalid_token_length(self):
        with pytest.raises(ConfigurationError):
            BlockerConfig(min_token_length=0).validate()


class TestMatcherConfig:
    def test_defaults_valid(self):
        MatcherConfig().validate()

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(mode="magic").validate()

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            MatcherConfig(threshold=-0.1).validate()

    def test_invalid_similarity(self):
        with pytest.raises(ConfigurationError, match="'nosuch'"):
            MatcherConfig(similarity="nosuch").validate()


class TestClustererConfig:
    def test_defaults_valid(self):
        ClustererConfig().validate()

    def test_invalid_min_score(self):
        with pytest.raises(ConfigurationError):
            ClustererConfig(min_score=2.0).validate()

    def test_invalid_algorithm(self):
        with pytest.raises(ConfigurationError, match="'nosuch'"):
            ClustererConfig(algorithm="nosuch").validate()


class TestSamplingConfig:
    def test_defaults_valid(self):
        SamplingConfig().validate()

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(per_seed=0).validate()


class TestSparkERConfig:
    def test_default_is_unsupervised(self):
        config = SparkERConfig.unsupervised_default()
        config.validate()
        assert config.blocker.use_loose_schema
        assert config.blocker.use_entropy

    def test_schema_agnostic_preset(self):
        config = SparkERConfig.schema_agnostic()
        assert not config.blocker.use_loose_schema
        assert not config.blocker.use_entropy

    def test_dict_roundtrip(self):
        config = SparkERConfig.unsupervised_default()
        config.blocker.attribute_threshold = 0.25
        config.matcher.threshold = 0.6
        rebuilt = SparkERConfig.from_dict(config.as_dict())
        assert rebuilt.blocker.attribute_threshold == 0.25
        assert rebuilt.matcher.threshold == 0.6

    def test_nested_validation_runs(self):
        config = SparkERConfig()
        config.matcher.mode = "invalid"
        with pytest.raises(ConfigurationError):
            config.validate()
