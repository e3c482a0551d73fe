"""Selection utilities: Lemma 2 and Proposition 3 of the paper.

* Lemma 2: top-k of an unsorted list in O(n) (O(n + k log k) sorted) --
  :func:`top_k` / :func:`top_k_sorted` wrap ``heapq`` which achieves the
  same bounds for constant k.
* Proposition 3: given ``s`` unsorted lists and the sum aggregation, a set
  ``L~`` of at most ``k + s - 1`` numbers from the union suffices to form
  the top-k sums; it is found in O(sm).  :func:`prop3_prune` constructs the
  per-list keep-sets, which lets ``stark`` retain only ``k + s - 1``
  leaf-candidate entries instead of sorting whole neighbor lists.

The keep-sets are valid when list entries combine independently -- i.e.
the non-injective matching model the paper analyzes -- so ``stark`` uses
them only when ``injective=False`` (see DESIGN.md Section 4).  Injective
matching prunes too, by rank instead of by deficit: a kept entry may be
needed as a collision replacement, but at most ``s`` better entries of
its list can collide, so the best ``k + s`` entries of every list carry
a pivot's first ``k`` matches
(:func:`repro.core.lattice.make_leaf_list` with ``keep``; the argument is
in docs/architecture.md, "Exactness architecture of stard").
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def top_k(values: Iterable[float], k: int) -> List[float]:
    """Top *k* values, unsorted order (Lemma 2's O(n) selection)."""
    if k <= 0:
        return []
    return heapq.nlargest(k, values)


def top_k_sorted(values: Iterable[float], k: int) -> List[float]:
    """Top *k* values in decreasing order (Lemma 2's O(n + k log k))."""
    return sorted(top_k(values, k), reverse=True)


def top_k_items(
    items: Iterable[Tuple[float, T]], k: int
) -> List[Tuple[float, T]]:
    """Top *k* (score, payload) pairs by score, decreasing.

    Ties are broken arbitrarily but deterministically (payload comparison
    is never attempted: a sequence index disambiguates).
    """
    if k <= 0:
        return []
    decorated = (
        (score, idx, payload) for idx, (score, payload) in enumerate(items)
    )
    best = heapq.nlargest(k, decorated, key=lambda t: (t[0], -t[1]))
    return [(score, payload) for score, _idx, payload in best]


def prop3_keep_sets(
    lists: Sequence[Sequence[float]], k: int
) -> List[List[int]]:
    """Proposition 3: indices to keep per list.

    Args:
        lists: ``s`` unsorted numeric lists (each non-empty).
        k: how many top sums are needed.

    Returns:
        Per-list index lists whose union has size <= k + s - 1 and is
        guaranteed to contain every entry participating in a top-k sum of
        ``F = sum_i x_i`` with one ``x_i`` from each list.

    The construction follows the paper's proof: keep each list's maximum,
    then the k - 1 entries with the largest value of ``x - x_i_max``
    (their deficit to their own list's maximum) across the union.

    An *empty* list gets an empty keep-set: no sum ``F`` with one term
    per list exists, so there is nothing to keep anywhere -- but the
    per-list structure is preserved so callers can report "no match"
    for the position instead of crashing (``max()`` over an empty list
    used to raise ``ValueError`` here).
    """
    if k <= 0 or not lists:
        return [[] for _ in lists]
    if any(not values for values in lists):
        return [[] for _ in lists]
    keep: List[List[int]] = []
    max_index: List[int] = []
    for values in lists:
        mi = max(range(len(values)), key=values.__getitem__)
        max_index.append(mi)
        keep.append([mi])
    # Deficit-ranked pool over all non-max entries.
    pool: List[Tuple[float, int, int]] = []  # (deficit, list_idx, value_idx)
    for li, values in enumerate(lists):
        x_max = values[max_index[li]]
        for vi, x in enumerate(values):
            if vi != max_index[li]:
                pool.append((x - x_max, li, vi))
    for _deficit, li, vi in heapq.nlargest(k - 1, pool, key=lambda t: t[0]):
        keep[li].append(vi)
    return keep


def prop3_prune(
    lists: Sequence[Sequence[Tuple[float, T]]], k: int, margin: int = 0
) -> List[List[Tuple[float, T]]]:
    """Prune scored lists per Proposition 3, returning sorted keep-lists.

    Args:
        lists: per-position ``[(score, payload), ...]`` lists.
        k: top-k target.
        margin: keep this many extra entries (collision slack for
            injective matching; see module docstring).

    Returns:
        Per-position lists sorted by decreasing score, jointly containing
        at most ``(k + margin) + s - 1`` entries.
    """
    score_lists = [[score for score, _p in entries] for entries in lists]
    keep_sets = prop3_keep_sets(score_lists, k + margin)
    pruned: List[List[Tuple[float, T]]] = []
    for entries, keep in zip(lists, keep_sets):
        kept = [entries[i] for i in sorted(set(keep))]
        kept.sort(key=lambda t: -t[0])
        pruned.append(kept)
    return pruned


def kth_largest_sum_bound(lists: Sequence[Sequence[float]], k: int) -> float:
    """Exact k-th largest value of ``F = sum_i x_i`` for small inputs.

    Brute-force reference used by tests to validate Proposition 3.

    Raises:
        ValueError: if ``k <= 0`` (``k - 1`` would index ``sums[-1]``
            and silently return the *smallest* sum) or if any list is
            empty (no sums exist).
    """
    import itertools

    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    sums = sorted(
        (sum(combo) for combo in itertools.product(*lists)), reverse=True
    )
    if not sums:
        raise ValueError("no sums exist: at least one input list is empty")
    return sums[min(k, len(sums)) - 1]
