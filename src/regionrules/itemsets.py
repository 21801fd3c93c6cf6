"""Frequent itemset mining by depth-first intersection of boolean item columns.

An itemset's count is the number of rows holding every one of its items: the
``count_nonzero`` of the AND of its columns (vertical mining, Eclat: Zaki,
IEEE TKDE 2000). The walk extends a prefix only with later items, and only
with those that keep the prefix frequent, so each itemset is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyResultError

Item = Hashable


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset
    count: int

    def sorted_items(self) -> tuple:
        return tuple(sorted(self.items))


def _build_tree(columns, prefix: tuple, rows, items: list, c_min: int, k_max: int, out: list):
    """Expand one node of the itemset search tree: ``prefix`` (held by the
    ``rows`` mask, ``None`` at the root) joined with each of ``items``.

    Items are tried from the last one back, so the frequent items after
    each one are known when its subtree is expanded; a mask lives only
    while its subtree is, which keeps at most ``k_max`` masks at once."""
    later: list[int] = []  # frequent extensions, descending
    for i in reversed(items):
        joined = columns[i] if rows is None else rows & columns[i]
        count = int(np.count_nonzero(joined))
        if count < c_min:
            continue
        itemset = prefix + (i,)
        out.append((itemset, count))
        if later and len(itemset) < k_max:
            _build_tree(columns, itemset, joined, later[::-1], c_min, k_max, out)
        later.append(i)


def mine_itemsets(hits: np.ndarray, c_min: int, k_max: int) -> list[FrequentItemset]:
    """All sets of at most ``k_max`` columns of the boolean rows x items
    matrix ``hits`` that are all true in >= ``c_min`` rows, with exact counts.

    Items are column indices. Output order is canonical: size ascending,
    then count descending, then lexicographic item tuples.
    """
    if c_min < 1:
        raise ConfigError(f"c_min must be >= 1, got {c_min}")
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    columns = np.ascontiguousarray(np.asarray(hits, dtype=bool).T)
    found: list[tuple[tuple[int, ...], int]] = []
    _build_tree(columns, (), None, list(range(len(columns))), c_min, k_max, found)
    found.sort(key=lambda s: (len(s[0]), -s[1], s[0]))
    return [FrequentItemset(items=frozenset(items), count=count) for items, count in found]


def fp_growth(
    transactions: Iterable[Iterable[Item]],
    c_min: int,
    k_max: int,
) -> list[FrequentItemset]:
    """:func:`mine_itemsets` over transactions of sortable items: each
    distinct item becomes one column, in sorted order, so the canonical
    order is the same on items as on columns."""
    transactions = [set(t) for t in transactions]
    items = sorted(set().union(*transactions))
    column = {it: c for c, it in enumerate(items)}
    hits = np.zeros((len(transactions), len(items)), dtype=bool)
    for r, t in enumerate(transactions):
        hits[r, [column[it] for it in t]] = True
    return [
        FrequentItemset(items=frozenset(items[c] for c in s.items), count=s.count)
        for s in mine_itemsets(hits, c_min, k_max)
    ]


def pick_feature_set(itemsets: Sequence[FrequentItemset]) -> frozenset:
    """Choose the longest itemset; break ties by count, then lexicographically."""
    if not itemsets:
        raise EmptyResultError("no frequent itemsets to choose from")
    best = min(itemsets, key=lambda s: (-len(s.items), -s.count, s.sorted_items()))
    return best.items
