"""Text normalization, tokenization and target-form exclusion.

Every word that becomes a lookup key -- context tokens, dataset targets,
embedding, frequency, idf and chi2 table entries -- goes through
``normalize_token``, so an NFD-encoded token finds the same entries as its
NFC form, and every table holds the same object for one word.
"""

from __future__ import annotations

import sys
import unicodedata
from typing import Sequence

# Minimum shared-prefix length for a token to count as a form of the target.
# Russian inflection is suffixal, so a long common prefix is a cheap stand-in
# for lemma identity; the floor keeps short unrelated words from matching.
PREFIX_FLOOR = 4


def normalize_token(token: str) -> str:
    """Canonical key form for vocabulary entries and lookups: NFC + lowercase,
    interned, so each distinct word is held once however many tokens and
    tables name it. CPython 3.12 keeps interned strings until the process
    exits; a batch run holds its vocabulary that long anyway."""
    return sys.intern(unicodedata.normalize("NFC", token).lower())


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def strip_punct(token: str) -> str:
    """Drop leading and trailing Unicode punctuation characters."""
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Whitespace-split, strip surrounding punctuation, normalize, drop empties.

    Inner punctuation (hyphens etc.) and digits are kept.
    """
    out = []
    for raw in text.split():
        # No alphanumeric character is punctuation: alphanumeric ends need no strip.
        if not (raw[0].isalnum() and raw[-1].isalnum()):
            raw = strip_punct(raw)
        if tok := normalize_token(raw):
            out.append(tok)
    return out


def _target_prefix(target: str) -> str:
    """The prefix that ``matches_target_form`` requires (slicing caps it)."""
    return target[:max(PREFIX_FLOOR, len(target) - 2)]


def matches_target_form(token: str, target: str) -> bool:
    """True when token is treated as a grammatical form of the target word.

    The shared prefix must reach max(PREFIX_FLOOR, len(target) - 2)
    characters, capped at len(target) so that a short target still matches
    itself and its extensions.
    """
    return token.startswith(_target_prefix(target))


def exclude_target(tokens: Sequence[str], target: str) -> list[str]:
    """Drop every token matching the target by the shared-prefix rule."""
    prefix = _target_prefix(target)
    return [t for t in tokens if not t.startswith(prefix)]
