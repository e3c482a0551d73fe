"""Shared text utilities (tokenization) used by graph and similarity layers."""

from __future__ import annotations

import os
import re
from functools import lru_cache
from typing import List, Optional, Tuple

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

#: Default token-memo capacity; override per process with the
#: ``REPRO_TOKEN_MEMO_SIZE`` environment variable (``0`` disables the
#: bound entirely -- only sensible for short-lived batch jobs) or at
#: runtime with :func:`configure_token_memo`.
DEFAULT_TOKEN_MEMO_SIZE = 65536


def _tokenize_impl(text: str) -> Tuple[str, ...]:
    return tuple(t.lower() for t in _TOKEN_RE.findall(text))


def _env_memo_size() -> int:
    raw = os.environ.get("REPRO_TOKEN_MEMO_SIZE", "")
    if not raw:
        return DEFAULT_TOKEN_MEMO_SIZE
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_TOKEN_MEMO_SIZE


def _build_memo(maxsize: Optional[int]):
    return lru_cache(maxsize=maxsize)(_tokenize_impl)


_memo = _build_memo(_env_memo_size() or None)


def tokenize_tuple(text: str) -> Tuple[str, ...]:
    """Tokenize *text* into an immutable, memoized token tuple.

    Graph construction and descriptor building tokenize the same names,
    types and keywords repeatedly (``add_node`` indexes them, the
    ``DescriptorCache`` re-derives them); the LRU memo makes the second
    and later tokenizations of a string free.  The tuple is shared, so
    callers must not rely on getting a private copy -- use
    :func:`tokenize` for a mutable list.

    The memo is process-wide state sized relative to the working graph's
    vocabulary: long-lived servers should call :func:`clear_token_memo`
    when swapping graphs (snapshot loading does this automatically) and
    may resize it with :func:`configure_token_memo` /
    ``REPRO_TOKEN_MEMO_SIZE``.

    >>> tokenize_tuple("Brad Pitt (actor)")
    ('brad', 'pitt', 'actor')
    """
    return _memo(text)


def tokenize(text: str) -> List[str]:
    """Split *text* into lowercase alphanumeric tokens.

    The single tokenizer shared by the graph inverted index, the query
    parser and the similarity functions, so all layers agree on token
    boundaries.

    >>> tokenize("Brad Pitt (actor)")
    ['brad', 'pitt', 'actor']
    """
    return list(tokenize_tuple(text))


def clear_token_memo() -> None:
    """Drop every memoized tokenization.

    Call on graph-swap boundaries (a fresh graph means a fresh
    vocabulary; entries for the old one are dead weight that the LRU
    bound would only evict slowly).  :meth:`KnowledgeGraph.load` calls
    this for you on a binary file.
    """
    _memo.cache_clear()


def configure_token_memo(maxsize: Optional[int]) -> None:
    """Resize the token memo (clears it as a side effect).

    Args:
        maxsize: new capacity; ``None`` or ``0`` removes the bound.
    """
    global _memo
    if maxsize is not None and maxsize < 0:
        raise ValueError(f"token memo size must be >= 0, got {maxsize}")
    _memo = _build_memo(maxsize or None)


def token_memo_info():
    """``functools``-style cache statistics for the token memo."""
    return _memo.cache_info()
