"""Shared utilities: tokenization, text normalisation, timing."""

from repro.utils.tokenize import tokenize, character_ngrams
from repro.utils.text import normalize_text, STOPWORDS
from repro.utils.timers import Timer

__all__ = [
    "tokenize",
    "character_ngrams",
    "normalize_text",
    "STOPWORDS",
    "Timer",
]
