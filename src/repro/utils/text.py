"""Text normalisation helpers shared by blocking and matching.

All blocking keys and similarity computations in the SparkER pipeline operate
on normalised text: lower-cased, punctuation stripped, whitespace collapsed.
Keeping the normalisation in one module guarantees that the blocker and the
matcher see the same token universe.
"""

from __future__ import annotations

import re
import unicodedata

# A small English stop-word list.  Schema-agnostic token blocking on product
# and bibliographic data generates huge blocks for these words; block purging
# removes most of them anyway, but dropping them at tokenization time keeps
# the toy examples readable and mirrors common ER practice.
STOPWORDS: frozenset[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
        "has", "he", "in", "is", "it", "its", "of", "on", "or", "that",
        "the", "to", "was", "were", "will", "with",
    }
)

_WORD_RE = re.compile(r"\w+", re.UNICODE)


def strip_accents(text: str) -> str:
    """Return ``text`` with combining accent marks removed."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def split_words(text: object) -> list[str]:
    """Return the words of ``text``, in order, in one regex scan.

    A word is a maximal run of word characters (regex ``\\w``) of the
    accent-stripped, lower-cased text.  This is the pipeline's one definition
    of "token": :func:`normalize_text` joins these words,
    :func:`repro.utils.tokenize.tokenize` filters them, and
    :func:`repro.utils.tokenize.token_table` yields them for a whole
    collection at once.
    """
    if text is None:
        return []
    text = str(text)
    if not text.isascii():  # ASCII has nothing to decompose: skip the per-character pass
        text = strip_accents(text)
    return _WORD_RE.findall(text.lower())


def normalize_text(text: object) -> str:
    """Normalise ``text`` for blocking and similarity computation.

    The normalisation lower-cases, removes accents, replaces punctuation with
    spaces and collapses runs of whitespace.  It is idempotent.
    """
    return " ".join(split_words(text))
