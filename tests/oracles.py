"""Reference implementations that the production code is checked against.

`rank_candidates` sorts every candidate with a lexsort; `full_ranking_eval`
is the evaluation protocol written directly on top of that full ranking.
Both are deliberately naive and slow.
"""

from __future__ import annotations

import numpy as np


def rank_candidates(scores, item_ids, exclude) -> list[str]:
    """Candidates sorted by descending score, ties by ascending item id."""
    ids = np.asarray(item_ids)
    keep = np.array([i not in exclude for i in item_ids], dtype=bool)
    order = np.lexsort((ids[keep], -np.asarray(scores, dtype=np.float64)[keep]))
    return list(ids[keep][order])


def full_ranking_eval(score_fn, item_ids, train_items, heldout, ks=(5,), average="interaction") -> dict:
    """The full-ranking protocol of `multitap.evaluate.full_ranking_eval`,
    with each positive's rank read off the sorted candidate list."""
    ks = sorted(ks)
    by_user: dict[str, list[str]] = {}
    for user, item in heldout:
        by_user.setdefault(user, []).append(item)
    per_user_hits, per_user_gains, per_user_units = [], [], []
    units = skipped = 0
    for user in sorted(by_user):
        try:
            scores = score_fn(user)
        except KeyError:
            skipped += len(by_user[user])
            continue
        exclude = train_items.get(user, set())
        ranked = rank_candidates(scores, item_ids, exclude)
        if not ranked:
            skipped += len(by_user[user])
            continue
        rank_of = {item: r + 1 for r, item in enumerate(ranked)}
        u_hits = {k: 0.0 for k in ks}
        u_gains = {k: 0.0 for k in ks}
        u_units = 0
        for item in by_user[user]:
            if item not in item_ids or item in exclude:
                skipped += 1
                continue
            rank = rank_of[item]
            u_units += 1
            for k in ks:
                if rank <= k:
                    u_hits[k] += 1.0
                    u_gains[k] += 1.0 / np.log2(rank + 1)
        if u_units:
            per_user_hits.append(u_hits)
            per_user_gains.append(u_gains)
            per_user_units.append(u_units)
            units += u_units

    def reduce(per_user, k):
        if not per_user:
            return 0.0
        if average == "interaction":
            return sum(d[k] for d in per_user) / units
        return float(np.mean([d[k] / n for d, n in zip(per_user, per_user_units)]))

    return {
        "units": units,
        "skipped": skipped,
        "HR": {k: reduce(per_user_hits, k) for k in ks},
        "NDCG": {k: reduce(per_user_gains, k) for k in ks},
    }
