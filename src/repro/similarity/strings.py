"""String-similarity primitives used by the similarity-function catalog.

Implemented from scratch (no external dependencies): bit-parallel
Levenshtein, Jaro-Winkler, character n-grams, Soundex and a simplified
Metaphone.  All similarity outputs are normalized to ``[0, 1]``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Sequence


def _pattern_masks(pattern: str) -> Dict[str, int]:
    """Per-character position bitmasks of *pattern*: bit *i* of
    ``masks[ch]`` is set iff ``pattern[i] == ch``."""
    masks: Dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _bit_parallel_distance(masks: Dict[str, int], m: int, text: str) -> int:
    """Edit distance between a non-empty pattern (its :func:`_pattern_masks`
    and length *m*) and *text*: Myers' bit-vector algorithm in Hyyrö's
    global-distance form.

    One DP column is held as two *m*-bit integers of vertical deltas
    (``pv``: +1, ``mv``: -1); each text character advances the column
    with a constant number of integer operations, so the cost is one
    step per text character whatever the pattern length (Python ints
    grow past the machine word).  The running cell ``D[m][j]`` is
    tracked through the horizontal delta at the pattern's last row.
    """
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv = mask
    mv = 0
    distance = m
    eq_of = masks.get
    for ch in text:
        eq = eq_of(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def levenshtein(a: str, b: str, cap: int = 0) -> int:
    """Edit distance between *a* and *b*.

    Args:
        cap: if positive and the distance exceeds it, return ``cap + 1``
            (a length gap beyond the cap is answered without any work).
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if cap and abs(la - lb) > cap:
        return cap + 1
    if la < lb:  # one step per text character: scan the shorter string
        a, b, la, lb = b, a, lb, la
    if lb == 0:
        return la
    distance = _bit_parallel_distance(_pattern_masks(a), la, b)
    return cap + 1 if cap and distance > cap else distance


def bind_edit_similarity(a: str) -> Callable[[str], float]:
    """``edit_similarity(a, .)`` with *a*'s pattern bitmasks built once."""
    la = len(a)
    if la == 0:
        return lambda b: 0.0 if b else 1.0
    masks = _pattern_masks(a)

    def similarity(b: str) -> float:
        if a == b:
            return 1.0
        lb = len(b)
        if lb == 0:
            return 0.0
        distance = _bit_parallel_distance(masks, la, b)
        return 1.0 - distance / (la if la > lb else lb)

    return similarity


def edit_similarity(a: str, b: str) -> float:
    """``1 - dist / max_len``, in [0, 1]."""
    return bind_edit_similarity(a)(b)


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    taken = 0  # bit j set: b[j] is matched
    matched_a = []
    for i, ch in enumerate(a):
        hi = i + window + 1
        j = b.find(ch, i - window if i > window else 0, hi)
        while j >= 0 and taken >> j & 1:
            j = b.find(ch, j + 1, hi)
        if j >= 0:
            taken |= 1 << j
            matched_a.append(ch)
    matches = len(matched_a)
    if matches == 0:
        return 0.0
    # The k-th matched character of a against the k-th matched of b.
    transpositions = 0
    k = j = 0
    while taken:
        if taken & 1:
            if b[j] != matched_a[k]:
                transpositions += 1
            k += 1
        taken >>= 1
        j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity (prefix bonus up to 4 chars)."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def ngrams(text: str, n: int) -> FrozenSet[str]:
    """Character n-grams of *text* (padded with ^ / $ sentinels).

    Every returned gram has length exactly *n*: when the sentinel-padded
    text is shorter than *n* (only possible for ``n > len(text) + 2``),
    it is right-padded with extra ``$`` sentinels instead of leaking a
    shorter string into the set.  Mixing gram lengths inside one
    Jaccard/Dice comparison would silently deflate every short-vs-long
    score.
    """
    if not text:
        return frozenset()
    padded = "^" + text + "$"
    if len(padded) < n:
        return frozenset((padded.ljust(n, "$"),))
    return frozenset(padded[i : i + n] for i in range(len(padded) - n + 1))


def jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Jaccard coefficient of two sets.

    Two empty sets compare equal, so ``jaccard(∅, ∅) == 1.0`` — matching
    ``edit_similarity("", "") == 1.0`` and keeping ``sim(x, x) == 1``
    reflexivity across the catalog.  One empty side still scores 0.
    """
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def dice(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Dice coefficient of two sets (``dice(∅, ∅) == 1.0``, see jaccard)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def overlap_coefficient(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Overlap coefficient (intersection over smaller set size).

    ``overlap_coefficient(∅, ∅) == 1.0``, see jaccard.
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def common_prefix_ratio(a: str, b: str) -> float:
    """Length of common prefix over the shorter string's length."""
    if not a or not b:
        return 0.0
    n = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        n += 1
    return n / min(len(a), len(b))


def common_suffix_ratio(a: str, b: str) -> float:
    """Length of common suffix over the shorter string's length."""
    return common_prefix_ratio(a[::-1], b[::-1])


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    "l": "4",
    **dict.fromkeys("mn", "5"),
    "r": "6",
}


def soundex(word: str) -> str:
    """American Soundex code (e.g. ``soundex("Robert") == "R163"``)."""
    word = "".join(ch for ch in word.lower() if ch.isalpha())
    if not word:
        return ""
    first = word[0].upper()
    encoded = []
    prev_code = _SOUNDEX_CODES.get(word[0], "")
    for ch in word[1:]:
        code = _SOUNDEX_CODES.get(ch, "")
        if code and code != prev_code:
            encoded.append(code)
        if ch not in "hw":  # h/w do not reset the previous code
            prev_code = code
        if len(encoded) == 3:
            break
    return (first + "".join(encoded)).ljust(4, "0")


def rough_phonetic(word: str) -> str:
    """A simplified Metaphone-style key: drop vowels after the first letter,
    collapse doubled letters, normalize a few digraphs."""
    word = "".join(ch for ch in word.lower() if ch.isalpha())
    if not word:
        return ""
    for src, dst in (("ph", "f"), ("gh", "g"), ("kn", "n"), ("wr", "r"),
                     ("ck", "k"), ("sch", "sk"), ("th", "t")):
        word = word.replace(src, dst)
    out = [word[0]]
    for ch in word[1:]:
        if ch in "aeiouy":
            continue
        if out[-1] != ch:
            out.append(ch)
    return "".join(out)


def initials(tokens: Sequence[str]) -> str:
    """First letters of *tokens*, lowercased (``["New","York"] -> "ny"``)."""
    return "".join(t[0].lower() for t in tokens if t)
