"""Entity profiles: the basic data unit of SparkER.

A *profile* is a set of ``(attribute, value)`` pairs plus an identifier and a
*source id*.  The source id distinguishes the two datasets of a clean-clean ER
task (e.g. Abt vs Buy); for dirty ER (a single dataset with internal
duplicates) every profile carries the same source id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import DataError
from repro.utils.tokenize import tokenize


@dataclass(frozen=True)
class KeyValue:
    """One attribute/value pair of a profile."""

    attribute: str
    value: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise DataError("KeyValue.attribute must be a non-empty string")


@dataclass
class EntityProfile:
    """A record to be resolved.

    Parameters
    ----------
    profile_id:
        Unique integer id within the whole input (across both sources).
    original_id:
        The identifier of the record in the original dataset (string).
    source_id:
        0 for the first dataset, 1 for the second; always 0 in dirty ER.
    attributes:
        The ``(attribute, value)`` pairs of the record.
    """

    profile_id: int
    original_id: str = ""
    source_id: int = 0
    attributes: list[KeyValue] = field(default_factory=list)

    def add(self, attribute: str, value: object) -> None:
        """Append an attribute/value pair (empty / None values are skipped)."""
        if value is None:
            return
        text = str(value).strip()
        if not text:
            return
        self.attributes.append(KeyValue(attribute, text))

    def attribute_names(self) -> set[str]:
        """Return the set of attribute names present in this profile."""
        return {kv.attribute for kv in self.attributes}

    def values_of(self, attribute: str) -> list[str]:
        """Return every value of ``attribute`` in this profile."""
        return [kv.value for kv in self.attributes if kv.attribute == attribute]

    def value_of(self, attribute: str, default: str = "") -> str:
        """Return the first value of ``attribute``, or ``default``."""
        values = self.values_of(attribute)
        return values[0] if values else default

    def items(self) -> Iterator[tuple[str, str]]:
        """Iterate over ``(attribute, value)`` pairs."""
        for kv in self.attributes:
            yield kv.attribute, kv.value

    def tokens(self, *, min_length: int = 1, remove_stopwords: bool = False) -> set[str]:
        """Return the schema-agnostic bag of tokens of this profile (as a set)."""
        result: set[str] = set()
        for kv in self.attributes:
            result.update(
                tokenize(kv.value, min_length=min_length, remove_stopwords=remove_stopwords)
            )
        return result

    def text(self) -> str:
        """Concatenate every value (used by bag-of-words similarity)."""
        return " ".join(kv.value for kv in self.attributes)

    def as_dict(self) -> dict[str, list[str]]:
        """Return attribute → list of values."""
        result: dict[str, list[str]] = {}
        for kv in self.attributes:
            result.setdefault(kv.attribute, []).append(kv.value)
        return result

    def __len__(self) -> int:
        return len(self.attributes)

    def __repr__(self) -> str:
        preview = ", ".join(f"{kv.attribute}={kv.value!r}" for kv in self.attributes[:3])
        if len(self.attributes) > 3:
            preview += ", ..."
        return (
            f"EntityProfile(id={self.profile_id}, source={self.source_id}, "
            f"original={self.original_id!r}, {preview})"
        )
