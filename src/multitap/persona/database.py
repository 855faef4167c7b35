"""Per-user persona database: category-indexed ordinal labels per criterion.

PS/QP/PB labels come from the heterogeneity analysis; category familiarity
and category diversity are computed here from interaction depth and breadth
relative to other users.  `build_all_persona_dbs` is the one builder: it
labels every active user of a domain at once, computing each touched
category's familiarity tertiles and the domain's diversity tertiles a single
time.  The serialized form uses H/M/L codes under the keys
`price_affiliated_group`, `rating_score_preferred_group`,
`rating_nums_preferred_group`, `cats_familiarity` and
`cats_interaction_diversity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..corpus import DomainDataset
from ..errors import MissingLabelError
from ..idh import METADATA_CRITERIA, Criterion, Label, tertile_label, tertile_thresholds

_JSON_KEYS: dict[Criterion, str] = {
    Criterion.PS: "price_affiliated_group",
    Criterion.QP: "rating_score_preferred_group",
    Criterion.PB: "rating_nums_preferred_group",
    Criterion.CF: "cats_familiarity",
}


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


def build_all_persona_dbs(
    dataset: DomainDataset,
    idh_labels: Mapping[Criterion, Mapping[str, Mapping[str, Label]]],
) -> dict[str, PersonaDB]:
    """Databases for every user active in `dataset`, keyed in user order.

    PS/QP/PB labels are read from `idh_labels` for the categories a user
    touched.  CF labels a user's interaction count |E_{u,c}| against the
    counts of every user active in c; CD labels the number of categories a
    user touched against every active user's number."""
    for criterion in METADATA_CRITERIA:
        if criterion not in idh_labels:
            raise MissingLabelError(f"no label maps for criterion '{criterion.value}'")
    depth = {
        user: {c: dataset.interaction_count(user, c) for c in sorted(cats)}
        for user, cats in sorted(dataset.user_category_items.items())
    }
    counts_in: dict[str, list[int]] = {}
    for counts in depth.values():
        for category, n in counts.items():
            counts_in.setdefault(category, []).append(n)
    familiarity = {c: tertile_thresholds(ns) for c, ns in counts_in.items()}
    diversity = tertile_thresholds(len(counts) for counts in depth.values())
    dbs = {}
    for user, counts in depth.items():
        labels = {
            criterion: {
                c: idh_labels[criterion][c][user]
                for c in counts
                if user in idh_labels[criterion].get(c, {})
            }
            for criterion in METADATA_CRITERIA
        }
        labels[Criterion.CF] = {c: tertile_label(n, *familiarity[c]) for c, n in counts.items()}
        dbs[user] = PersonaDB(user, labels, tertile_label(len(counts), *diversity))
    return dbs
