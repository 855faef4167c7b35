"""Per-user persona database: category-indexed ordinal labels per criterion.

PS/QP/PB labels come from the heterogeneity analysis; category familiarity
and category diversity are computed here from interaction depth and breadth
relative to other users.  The serialized form uses H/M/L codes under the
keys `price_affiliated_group`, `rating_score_preferred_group`,
`rating_nums_preferred_group`, `cats_familiarity` and
`cats_interaction_diversity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..corpus import DomainDataset
from ..errors import MissingLabelError
from ..idh import Criterion, Label, tertile_label, tertile_thresholds

_JSON_KEYS: dict[Criterion, str] = {
    Criterion.PS: "price_affiliated_group",
    Criterion.QP: "rating_score_preferred_group",
    Criterion.PB: "rating_nums_preferred_group",
    Criterion.CF: "cats_familiarity",
}


def category_diversity(user_id: str, dataset: DomainDataset) -> int:
    """Number of distinct categories the user has interacted with."""
    per_cat = dataset.user_category_items.get(user_id)
    if not per_cat:
        raise ValueError(f"user '{user_id}' has no interactions in '{dataset.domain_id}'")
    return len(per_cat)


def category_diversity_label(
    user_id: str, dataset: DomainDataset, all_diversities: Sequence[int] | None = None
) -> tuple[int, Label]:
    """Diversity count plus its label against the domain-wide distribution."""
    x = category_diversity(user_id, dataset)
    if all_diversities is None:
        all_diversities = [len(dataset.user_category_items[u]) for u in sorted(dataset.users)]
    q13, q23 = tertile_thresholds(all_diversities)
    return x, tertile_label(x, q13, q23)


def familiarity_counts(dataset: DomainDataset, category: str) -> dict[str, int]:
    """Interaction counts |E_{u,c}| for every user active in the category."""
    return {
        u: dataset.interaction_count(u, category)
        for u in dataset.users_in_category(category)
    }


def category_familiarity_label(
    user_id: str, category: str, counts: Mapping[str, int]
) -> Label:
    """Label the user's interaction depth against the category's count distribution."""
    if user_id not in counts or counts[user_id] < 1:
        raise ValueError(f"user '{user_id}' has no interactions in category '{category}'")
    q13, q23 = tertile_thresholds(counts.values())
    return tertile_label(counts[user_id], q13, q23)


@dataclass
class PersonaDB:
    user_id: str
    # criterion -> category -> label for PS/QP/PB/CF
    labels: dict[Criterion, dict[str, Label]] = field(default_factory=dict)
    diversity: Label = Label.MEDIUM

    def to_json_dict(self) -> dict:
        out: dict = {"User ID": self.user_id}
        for criterion, key in _JSON_KEYS.items():
            out[key] = {
                category: label.code
                for category, label in sorted(self.labels.get(criterion, {}).items())
            }
        out["cats_interaction_diversity"] = self.diversity.code
        return out


def build_persona_db(
    user_id: str,
    dataset: DomainDataset,
    idh_labels: Mapping[Criterion, Mapping[str, Mapping[str, Label]]],
    familiarity: Mapping[str, Mapping[str, int]] | None = None,
    all_diversities: Sequence[int] | None = None,
) -> PersonaDB:
    """Assemble one user's database from precomputed PS/QP/PB label maps.

    CF and CD labels are derived here.  `familiarity` may carry precomputed
    per-category count distributions to avoid rescanning the dataset.
    """
    per_cat = dataset.user_category_items.get(user_id)
    if not per_cat:
        raise ValueError(f"user '{user_id}' has no interactions in '{dataset.domain_id}'")
    for criterion in (Criterion.PS, Criterion.QP, Criterion.PB):
        if criterion not in idh_labels:
            raise MissingLabelError(f"no label maps for criterion '{criterion.value}'")
    labels: dict[Criterion, dict[str, Label]] = {}
    for criterion in (Criterion.PS, Criterion.QP, Criterion.PB):
        per_criterion: dict[str, Label] = {}
        for category in sorted(per_cat):
            cat_labels = idh_labels[criterion].get(category, {})
            if user_id in cat_labels:
                per_criterion[category] = cat_labels[user_id]
        labels[criterion] = per_criterion
    cf: dict[str, Label] = {}
    for category in sorted(per_cat):
        counts = (
            familiarity[category]
            if familiarity is not None
            else familiarity_counts(dataset, category)
        )
        cf[category] = category_familiarity_label(user_id, category, counts)
    labels[Criterion.CF] = cf
    _, diversity = category_diversity_label(user_id, dataset, all_diversities)
    return PersonaDB(user_id=user_id, labels=labels, diversity=diversity)


def build_all_persona_dbs(
    dataset: DomainDataset,
    idh_labels: Mapping[Criterion, Mapping[str, Mapping[str, Label]]],
) -> dict[str, PersonaDB]:
    """Databases for every active user, sharing the distribution scans."""
    familiarity = {c: familiarity_counts(dataset, c) for c in sorted(dataset.categories)}
    diversities = [len(dataset.user_category_items[u]) for u in sorted(dataset.users)]
    return {
        user: build_persona_db(user, dataset, idh_labels, familiarity, diversities)
        for user in sorted(dataset.users)
    }
