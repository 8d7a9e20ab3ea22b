"""Data model, loaders and synthetic dataset generators."""

from repro.data.profile import EntityProfile, KeyValue
from repro.data.dataset import ProfileCollection, DatasetPair
from repro.data.ground_truth import GroundTruth
from repro.data.loaders import load_dataset
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_bibliographic,
    generate_dirty_persons,
    toy_bibliographic_dataset,
)

__all__ = [
    "EntityProfile",
    "KeyValue",
    "ProfileCollection",
    "DatasetPair",
    "GroundTruth",
    "load_dataset",
    "SyntheticConfig",
    "generate_abt_buy_like",
    "generate_bibliographic",
    "generate_dirty_persons",
    "toy_bibliographic_dataset",
]
