"""Full-ranking top-K evaluation: HR@K and NDCG@K with seed aggregation.

Every item the user has not touched in train is a candidate.  Each held-out
interaction is one evaluation unit; ties in score break by ascending item id
so rankings are deterministic across runs.  Users are ranked from rows of a
(U, I) score matrix.

`pair_index` indexes a split's train pairs by row, with each user row's
observed items (the trainers' negative-sampling sets and the users'
exclusion sets), and `heldout_units` resolves its held-out interactions to
(score row, candidate column, user) units once per run, so each epoch's
validation only ranks.  Ranks come first: `unit_ranks` gives each unit's
rank, in unit order, counting the kept candidates ahead of its positive in
blocks of at most `_BLOCK_CELLS` cells (one row when a row alone is larger);
that array is the per-unit outcome paired comparisons read.  Metrics follow
as ordered sums over units: `full_ranking_eval` adds each user's hits and
gains into 0.0 in held-out order, so no result depends on the block size.
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)

AVERAGES = ("interaction", "user")

# the cutoff of every trainer's validation HR@K and of ablate's columns; no config sets it
EARLY_STOP_K = 5

# cells (units x items) compared at once by the blocked rank count
_BLOCK_CELLS = 1 << 18


class HeldoutUnits(NamedTuple):
    """Held-out units of one split: users sorted, units in held-out order."""

    rows: np.ndarray  # score row of each unit
    cols: np.ndarray  # candidate column of each unit
    slots: np.ndarray  # ranked user of each unit
    excluded: np.ndarray  # each ranked user's excluded columns, concatenated
    excluded_ptr: np.ndarray  # user s excludes excluded[excluded_ptr[s]:excluded_ptr[s + 1]]
    id_rank: np.ndarray  # position of each column's id in ascending order, the tie-break
    skipped: int


def pair_index(
    records: Iterable, user_rows: Mapping[str, int], item_rows: Mapping[str, int]
) -> tuple[np.ndarray, list[set[int]]]:
    """The (E, 2) int64 (user row, item row) pairs of the records
    (`.user_id`/`.item_id`) whose user and item both have rows, in record
    order, and each user row's set of item rows."""
    pairs = [
        (user_rows[r.user_id], item_rows[r.item_id])
        for r in records
        if r.user_id in user_rows and r.item_id in item_rows
    ]
    observed: list[set[int]] = [set() for _ in range(max(user_rows.values(), default=-1) + 1)]
    for u, i in pairs:
        observed[u].add(i)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), observed


def heldout_units(
    user_rows: Mapping[str, int],
    item_ids: Sequence[str],
    observed: Sequence[set[int]],
    heldout: Iterable,
) -> HeldoutUnits:
    """Resolve the `heldout` records to units: row `user_rows[user]` of a
    score matrix, aligned with `item_ids` (which must be distinct), ranks
    every column outside `observed[row]`.  Users without a row or without
    candidates, and positives outside the catalog or observed in train, are
    skipped and counted."""
    by_user: dict[str, list[str]] = {}
    for r in heldout:
        by_user.setdefault(r.user_id, []).append(r.item_id)
    id_index = {item: i for i, item in enumerate(item_ids)}
    if len(id_index) != len(item_ids):
        raise ValueError("item_ids contains duplicates")
    id_rank = np.empty(len(item_ids), dtype=np.int64)
    id_rank[np.argsort(np.asarray(item_ids), kind="stable")] = np.arange(len(item_ids))

    skipped = 0
    rows, cols, excluded, excluded_ptr, counts = [], [], [], [0], []
    for user, items in sorted(by_user.items()):
        row = user_rows.get(user)
        if row is None or len(observed[row]) == len(item_ids):  # no candidate left
            skipped += len(items)
            continue
        seen = observed[row]
        u_cols = [id_index[i] for i in items if i in id_index and id_index[i] not in seen]
        skipped += len(items) - len(u_cols)
        if u_cols:
            rows += [row] * len(u_cols)
            cols += u_cols
            excluded += seen
            excluded_ptr.append(len(excluded))
            counts.append(len(u_cols))
    rows, cols, excluded, excluded_ptr = (
        np.asarray(v, dtype=np.int64) for v in (rows, cols, excluded, excluded_ptr)
    )
    slots = np.repeat(np.arange(len(counts)), counts)
    return HeldoutUnits(rows, cols, slots, excluded, excluded_ptr, id_rank, skipped)


def unit_ranks(scores: np.ndarray, units: HeldoutUnits) -> np.ndarray:
    """The int64 1-based rank of candidate `cols[j]` in row `rows[j]` of the
    (U, I) matrix `scores` for each unit j, in unit order, among the columns
    its user keeps: all but `excluded[excluded_ptr[s]:excluded_ptr[s + 1]]` for
    `s = slots[j]`.  Candidates are ordered by descending score, then ascending
    id rank; NaN scores come after every other score, as in a sort on the negated scores."""
    scores = np.asarray(scores, dtype=np.float64)
    rows, cols, slots, excluded, excluded_ptr, id_rank = units[:6]
    per_block = max(1, _BLOCK_CELLS // max(len(id_rank), 1))
    ranks = np.empty(len(rows), dtype=np.int64)
    for a in range(0, len(rows), per_block):
        b = min(a + per_block, len(rows))
        block = scores[rows[a:b]]
        local = np.arange(b - a)
        pos = block[local, cols[a:b]][:, None]
        smaller_id = id_rank < id_rank[cols[a:b]][:, None]
        ahead = (block > pos) | ((block == pos) & smaller_id)
        nan_pos = np.isnan(pos[:, 0])
        if nan_pos.any():
            ahead[nan_pos] = ~np.isnan(block[nan_pos]) | smaller_id[nan_pos]
        # a user's excluded candidates are never ahead
        starts = excluded_ptr[slots[a:b]]
        lens = excluded_ptr[slots[a:b] + 1] - starts
        at = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        ahead[np.repeat(local, lens), excluded[at]] = False
        ranks[a:b] = np.count_nonzero(ahead, axis=1) + 1
    return ranks


def full_ranking_eval(
    scores: np.ndarray,
    units: HeldoutUnits,
    ks: Sequence[int],
    average: str = "interaction",
) -> dict:
    """HR@K and NDCG@K of `units` (from `heldout_units`) under the
    full-ranking protocol on the (U, I) matrix `scores`, each a float.
    `average` is "interaction" (each positive is one unit) or "user"
    (per-user means, then averaged across users)."""
    if average not in AVERAGES:
        raise ValueError(f"unknown averaging mode '{average}'")
    ks = sorted(ks)
    ranks = unit_ranks(scores, units)
    n_units = len(ranks)
    if units.skipped:
        logger.warning("full_ranking_eval skipped %d held-out units", units.skipped)

    # one row of terms per metric: the hits at each K, then the gains at each K
    hits = ranks <= np.asarray(ks)[:, None]
    terms = np.concatenate([hits, np.where(hits, 1.0 / np.log2(ranks + 1), 0.0)])
    counts = np.bincount(units.slots)  # units of each ranked user
    n_rows, n_users = len(terms), len(counts)
    # bincount adds each (metric, user) bin's terms into 0.0 in held-out order
    bins = np.arange(n_rows)[:, None] * n_users + units.slots
    per_user = np.bincount(bins.ravel(), weights=terms.ravel(), minlength=n_rows * n_users)
    per_user = per_user.reshape(n_rows, n_users)
    if not n_units:
        values = np.zeros(n_rows)
    elif average == "interaction":
        # users folded left to right; sum() over floats compensates from Python 3.12
        values = np.cumsum(per_user, axis=1)[:, -1] / n_units
    else:
        values = np.mean(per_user / counts, axis=1)
    values = values.tolist()  # plain floats
    return {
        "units": n_units,
        "skipped": units.skipped,
        "HR": dict(zip(ks, values[:len(ks)])),
        "NDCG": dict(zip(ks, values[len(ks):])),
    }


def aggregate_seed_reports(reports: Sequence[dict], ks: Sequence[int]) -> dict:
    """Mean and std of each metric over per-seed reports."""
    metrics = []
    for metric in ("HR", "NDCG"):
        for k in sorted(ks):
            values = [float(r[metric][k]) for r in reports]
            metrics.append(
                {
                    "metric": metric,
                    "K": k,
                    "mean": float(np.mean(values)),
                    "std": float(np.std(values)),
                    "per_seed": values,
                }
            )
    return {
        "metrics": metrics,
        "seeds": len(reports),
        "units_per_seed": [r["units"] for r in reports],
        "skipped_per_seed": [r["skipped"] for r in reports],
    }
