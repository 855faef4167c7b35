"""Intra-domain heterogeneity analysis.

Items are discretized into per-category tertile bins for each metadata
criterion (price, average rating, popularity), users receive a
criterion-specific preference score (mean bin of their interacted items),
scores are labeled Low/Medium/High against the per-category score
distribution, and conditional preservation ratios quantify how often a
dominant label survives a move between two categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import DomainDataset, ItemMeta
from .util import atomic_write_text, write_json


class Criterion(str, Enum):
    """Preference criteria. PS/QP/PB read item metadata; CF/CD are behavioral."""

    PS = "ps"  # price sensitivity
    QP = "qp"  # quality preference (average rating)
    PB = "pb"  # popularity bias (rating count)
    CF = "cf"  # category familiarity
    CD = "cd"  # category diversity


# canonical order used for persona texts and embedding stacks
CRITERIA_ORDER: tuple[Criterion, ...] = tuple(Criterion)

METADATA_ACCESSORS: dict[Criterion, Callable[[ItemMeta], float | None]] = {
    Criterion.PS: lambda m: m.price,
    Criterion.QP: lambda m: m.avg_rating,
    Criterion.PB: lambda m: float(m.rating_count),
}

METADATA_CRITERIA: tuple[Criterion, ...] = tuple(METADATA_ACCESSORS)


class Label(Enum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def code(self) -> str:
        return self.name[0]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """q-th quantile by the nearest-rank rule: element at 1-based index ceil(qN)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of empty sequence")
    idx = max(1, math.ceil(q * n))
    return sorted_values[idx - 1]


def tertile_thresholds(values: Iterable[float]) -> tuple[float, float]:
    """(Q(1/3), Q(2/3)) of the empirical distribution, nearest-rank rule."""
    ordered = sorted(values)
    return nearest_rank(ordered, 1.0 / 3.0), nearest_rank(ordered, 2.0 / 3.0)


def assign_bin(x: float, q13: float, q23: float) -> int:
    """Branch order is load-bearing for ties: < q13, then < q23, else 3."""
    if x < q13:
        return 1
    if x < q23:
        return 2
    return 3


def tertile_label(x: float, q13: float, q23: float) -> Label:
    return Label(assign_bin(x, q13, q23))


@dataclass
class BinAssignment:
    category: str
    criterion: Criterion
    q13: float
    q23: float
    bins: dict[str, int]


def bin_items(items: Sequence[ItemMeta], criterion: Criterion) -> BinAssignment:
    """Discretize one category's items into tertile bins under a criterion.

    Items with a missing criterion value (e.g. price) are left unbinned.
    """
    if criterion not in METADATA_ACCESSORS:
        raise ValueError(f"criterion {criterion} has no item metadata accessor")
    if not items:
        raise ValueError("bin_items needs at least one item")
    categories = {m.category for m in items}
    if len(categories) != 1:
        raise ValueError(f"bin_items expects a single category, got {sorted(categories)}")
    accessor = METADATA_ACCESSORS[criterion]
    valued = [(m.item_id, accessor(m)) for m in items if accessor(m) is not None]
    if not valued:
        raise ValueError(
            f"no items with a {criterion.value} value in category '{items[0].category}'"
        )
    q13, q23 = tertile_thresholds(v for _, v in valued)
    bins = {item_id: assign_bin(v, q13, q23) for item_id, v in valued}
    return BinAssignment(items[0].category, criterion, q13, q23, bins)


def preference_scores(
    dataset: DomainDataset, bins: BinAssignment
) -> dict[str, float]:
    """Scores for every user of the category that has at least one binnable item."""
    scores: dict[str, float] = {}
    for user in dataset.users_in_category(bins.category):
        values = [
            bins.bins[i]
            for i in dataset.distinct_items(user, bins.category)
            if i in bins.bins
        ]
        if values:
            scores[user] = sum(values) / len(values)
    return scores


def preference_labels(scores: Mapping[str, float]) -> dict[str, Label]:
    """Label users by tertiles of the per-category score distribution."""
    if not scores:
        raise ValueError("no scored users to label")
    q13, q23 = tertile_thresholds(scores.values())
    return {user: tertile_label(s, q13, q23) for user, s in scores.items()}


@dataclass
class PreservationMatrix:
    criterion: Criterion
    label: Label
    cells: dict[tuple[str, str], float | None] = field(default_factory=dict)
    support: dict[tuple[str, str], int] = field(default_factory=dict)


def preservation_matrix(
    labels_by_category: Mapping[str, Mapping[str, Label]],
    criterion: Criterion,
    label: Label,
) -> PreservationMatrix:
    """Conditional preservation ratios over all ordered category pairs.

    For (c_b, c_t) the denominator counts users labeled in both categories
    whose base label equals `label`; the numerator additionally requires the
    same label in c_t.  Cells with zero denominator stay None.
    """
    if len(labels_by_category) < 2:
        raise ValueError("preservation matrix needs labels for at least two categories")
    matrix = PreservationMatrix(criterion=criterion, label=label)
    cats = sorted(labels_by_category)
    for base in cats:
        base_labels = labels_by_category[base]
        for other in cats:
            other_labels = labels_by_category[other]
            shared = [u for u in base_labels if u in other_labels]
            denom = sum(1 for u in shared if base_labels[u] is label)
            num = sum(
                1 for u in shared if base_labels[u] is label and other_labels[u] is label
            )
            matrix.support[(base, other)] = denom
            matrix.cells[(base, other)] = (num / denom) if denom > 0 else None
    return matrix


def compute_domain_bins(dataset: DomainDataset) -> dict[Criterion, dict[str, BinAssignment]]:
    """criterion -> category -> bin assignment for every metadata criterion,
    over each category of `dataset` with at least one item valued on it."""
    by_category: dict[str, list[ItemMeta]] = {}
    for meta in dataset.items.values():
        by_category.setdefault(meta.category, []).append(meta)
    out: dict[Criterion, dict[str, BinAssignment]] = {}
    for criterion, accessor in METADATA_ACCESSORS.items():
        per_cat: dict[str, BinAssignment] = {}
        for category in sorted(by_category):
            items = by_category[category]
            if any(accessor(m) is not None for m in items):
                per_cat[category] = bin_items(items, criterion)
        out[criterion] = per_cat
    return out


def compute_domain_labels(
    dataset: DomainDataset,
    bins: Mapping[Criterion, Mapping[str, BinAssignment]] | None = None,
) -> dict[Criterion, dict[str, dict[str, Label]]]:
    """criterion -> category -> user -> label for every metadata criterion,
    from `bins` (by default `compute_domain_bins(dataset)`); a category
    none of whose users has a binned item is left out."""
    if bins is None:
        bins = compute_domain_bins(dataset)
    labels: dict[Criterion, dict[str, dict[str, Label]]] = {}
    for criterion in METADATA_CRITERIA:
        per_cat: dict[str, dict[str, Label]] = {}
        for category, assignment in bins[criterion].items():
            scores = preference_scores(dataset, assignment)
            if scores:
                per_cat[category] = preference_labels(scores)
        labels[criterion] = per_cat
    return labels


def export_idh_report(
    matrices: Sequence[PreservationMatrix], out_dir: str | Path
) -> list[Path]:
    """One CSV per (criterion, label) plus a JSON sidecar for omitted cells.

    Rows are ordered lexicographically and bytes are deterministic, so
    re-exporting identical matrices rewrites identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = []
    for matrix in matrices:
        name = f"preservation_{matrix.criterion.value}_{matrix.label.name.lower()}.csv"
        path = out_dir / name
        lines = ["base_category,compared_category,ratio,support"]
        omitted: list[list[str]] = []
        for (base, other) in sorted(matrix.cells):
            ratio = matrix.cells[(base, other)]
            if ratio is None:
                omitted.append([base, other])
                continue
            lines.append(f"{base},{other},{ratio!r},{matrix.support[(base, other)]}")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
        summary.append(
            {
                "criterion": matrix.criterion.value,
                "label": matrix.label.name.lower(),
                "file": name,
                "rows": sum(1 for r in matrix.cells.values() if r is not None),
                "omitted_pairs": omitted,
            }
        )
    summary_path = out_dir / "preservation_summary.json"
    write_json(summary_path, {"matrices": summary})
    written.append(summary_path)
    return written
