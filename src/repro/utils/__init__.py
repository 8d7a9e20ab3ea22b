"""Shared utilities: tokenization, text normalisation, hashing, timing."""

from repro.utils.tokenize import tokenize, character_ngrams
from repro.utils.text import normalize_text, STOPWORDS
from repro.utils.hashing import stable_hash, MinHasher
from repro.utils.timers import Timer, StageTimings

__all__ = [
    "tokenize",
    "character_ngrams",
    "normalize_text",
    "STOPWORDS",
    "stable_hash",
    "MinHasher",
    "Timer",
    "StageTimings",
]
