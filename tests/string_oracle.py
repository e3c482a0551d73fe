"""Reference string kernels the optimized ones are checked against.

These are the textbook formulations -- the O(n*m) dynamic-programming
edit distance and the flag-list Jaro -- kept deliberately plain.
``repro.similarity.strings`` must return the same integers and floats.
"""

from __future__ import annotations


def levenshtein_dp(a: str, b: str) -> int:
    """Edit distance by the two-row Wagner-Fischer recurrence."""
    prev = list(range(len(a) + 1))
    for j, bj in enumerate(b, 1):
        cur = [j] + [0] * len(a)
        for i, ai in enumerate(a, 1):
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + (ai != bj))
        prev = cur
    return prev[len(a)]


def jaro_reference(a: str, b: str) -> float:
    """Jaro similarity with explicit per-position match flags."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(max(la, lb) // 2 - 1, 0)
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(lb, i + window + 1)):
            if not match_b[j] and b[j] == ch:
                match_a[i] = match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / la + matches / lb + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_reference(a: str, b: str, prefix_scale: float = 0.1) -> float:
    base = jaro_reference(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)
