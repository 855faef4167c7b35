"""Heterogeneity-analysis tests: nearest-rank oracles, boundary conventions,
preservation ratios and a full-pipeline brute-force equivalence check."""

import math

import numpy as np
import pytest

from multitap.corpus import DomainDataset, InteractionRecord, ItemMeta
from multitap.idh import (
    BinAssignment,
    Criterion,
    Label,
    bin_items,
    compute_domain_bins,
    compute_domain_labels,
    export_idh_report,
    preference_labels,
    preference_scores,
    preservation_matrix,
    tertile_thresholds,
)


def item(item_id, category="c", price=None, avg_rating=4.0, rating_count=10):
    return ItemMeta(item_id, f"t {item_id}", category, price, avg_rating, rating_count)


# --- independent oracle helpers (sort-based, no shared code paths) ---------


def oracle_quantile(values, q):
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    rank = max(rank, 1)
    return ordered[rank - 1]


def oracle_level(x, values):
    q13 = oracle_quantile(values, 1 / 3)
    q23 = oracle_quantile(values, 2 / 3)
    if x < q13:
        return 1
    if x < q23:
        return 2
    return 3


class TestBinItems:
    def test_price_sequence(self):
        items = [item(f"i{k}", price=float(k)) for k in range(1, 7)]
        out = bin_items(items, Criterion.PS)
        assert (out.q13, out.q23) == (2.0, 4.0)
        assert [out.bins[f"i{k}"] for k in range(1, 7)] == [1, 2, 2, 3, 3, 3]

    def test_matches_sort_rank_oracle(self):
        rng = np.random.default_rng(0)
        prices = rng.uniform(1, 100, size=23)
        items = [item(f"i{k}", price=float(p)) for k, p in enumerate(prices)]
        out = bin_items(items, Criterion.PS)
        for k, p in enumerate(prices):
            assert out.bins[f"i{k}"] == oracle_level(p, prices)

    def test_degenerate_all_equal(self):
        items = [item(f"i{k}", price=9.0) for k in range(4)]
        out = bin_items(items, Criterion.PS)
        assert out.q13 == out.q23 == 9.0
        assert all(b == 3 for b in out.bins.values())

    def test_single_item(self):
        out = bin_items([item("only", price=3.5)], Criterion.PS)
        assert out.bins["only"] == 3

    def test_no_values_errors(self):
        with pytest.raises(ValueError, match="no items"):
            bin_items([item("i1", price=None)], Criterion.PS)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        items = [item(f"i{k}", price=float(rng.uniform(0, 50))) for k in range(40)]
        items += [item(f"m{k}", price=None) for k in range(5)]
        out = bin_items(items, Criterion.PS)
        assert len(out.bins) == 40
        assert set(out.bins.values()) <= {1, 2, 3}


def single_category_dataset(user_items: dict[str, list[str]], prices: dict[str, float]):
    items = {i: item(i, price=p) for i, p in prices.items()}
    records = []
    ts = 0
    for user, its in user_items.items():
        for i in its:
            records.append(InteractionRecord(user, i, 5.0, ts))
            ts += 1
    return DomainDataset.from_records("d", records, items)


class TestPreferenceScore:
    def test_simple_means(self):
        ds = single_category_dataset(
            {"u": ["i1", "i2", "i3"]}, {"i1": 1.0, "i2": 1.0, "i3": 1.0}
        )
        bins = BinAssignment("c", Criterion.PS, 0, 0, {"i1": 1, "i2": 2, "i3": 3})
        assert preference_scores(ds, bins)["u"] == pytest.approx(2.0)
        bins2 = BinAssignment("c", Criterion.PS, 0, 0, {"i1": 3, "i2": 3})
        ds2 = single_category_dataset({"u": ["i1", "i2"]}, {"i1": 1.0, "i2": 1.0})
        assert preference_scores(ds2, bins2)["u"] == pytest.approx(3.0)

    def test_empty_category_errors(self):
        # a user without interactions in the category gets no score
        ds = single_category_dataset({"u": ["i1"]}, {"i1": 1.0})
        bins = BinAssignment("other", Criterion.PS, 0, 0, {"i1": 1})
        assert preference_scores(ds, bins) == {}

    def test_all_unbinned_errors(self):
        # a user whose items all lack a bin gets no score
        ds = single_category_dataset({"u": ["i1"], "v": ["i2"]}, {"i1": 1.0, "i2": 2.0})
        bins = BinAssignment("c", Criterion.PS, 0, 0, {"i2": 3})
        assert preference_scores(ds, bins) == {"v": pytest.approx(3.0)}

    def test_scores_match_full_recomputation(self):
        rng = np.random.default_rng(2)
        prices = {f"i{k}": float(rng.uniform(1, 60)) for k in range(25)}
        user_items = {
            f"u{j}": list(rng.choice(sorted(prices), size=rng.integers(1, 8), replace=False))
            for j in range(50)
        }
        ds = single_category_dataset(user_items, prices)
        bins = bin_items(list(ds.items.values()), Criterion.PS)
        scores = preference_scores(ds, bins)
        values = sorted(prices.values())
        for user, its in user_items.items():
            expected = sum(oracle_level(prices[i], values) for i in set(its)) / len(set(its))
            assert scores[user] == pytest.approx(expected, abs=1e-12)


class TestPreferenceLabels:
    def test_stated_example(self):
        scores = {
            "a": 1.0,
            "b": 1.5,
            "c": 2.0,
            "d": 2.5,
            "e": 3.0,
            "f": 3.0,
        }
        labels = preference_labels(scores)
        assert [labels[u] for u in "abcdef"] == [
            Label.LOW,
            Label.MEDIUM,
            Label.MEDIUM,
            Label.HIGH,
            Label.HIGH,
            Label.HIGH,
        ]

    def test_degenerate_all_equal(self):
        labels = preference_labels({"a": 2.0, "b": 2.0, "c": 2.0})
        assert set(labels.values()) == {Label.HIGH}

    def test_single_user(self):
        assert preference_labels({"only": 1.3}) == {"only": Label.HIGH}


class TestPreservationMatrix:
    def test_direct_enumeration(self):
        labels = {
            "cb": {"u1": Label.HIGH, "u2": Label.HIGH, "u3": Label.HIGH, "u4": Label.HIGH},
            "ct": {"u1": Label.HIGH, "u2": Label.HIGH, "u3": Label.LOW, "u4": Label.LOW},
        }
        m = preservation_matrix(labels, Criterion.PS, Label.HIGH)
        assert m.cells[("cb", "ct")] == pytest.approx(0.5)
        assert m.support[("cb", "ct")] == 4

    def test_identical_labels_ratio_one(self):
        labels = {
            "cb": {"u1": Label.LOW, "u2": Label.HIGH},
            "ct": {"u1": Label.LOW, "u2": Label.HIGH},
        }
        m = preservation_matrix(labels, Criterion.PS, Label.HIGH)
        assert m.cells[("cb", "ct")] == pytest.approx(1.0)

    def test_null_cell_when_no_base_users(self):
        labels = {
            "cb": {"u1": Label.LOW},
            "ct": {"u1": Label.LOW},
        }
        m = preservation_matrix(labels, Criterion.PS, Label.HIGH)
        assert m.cells[("cb", "ct")] is None
        assert m.support[("cb", "ct")] == 0

    def test_numerator_bounded_by_denominator(self):
        rng = np.random.default_rng(3)
        cats = {}
        for c in ("x", "y", "z"):
            cats[c] = {
                f"u{k}": Label(int(rng.integers(1, 4))) for k in range(rng.integers(5, 30))
            }
        for g in Label:
            m = preservation_matrix(cats, Criterion.QP, g)
            for pair, ratio in m.cells.items():
                if ratio is not None:
                    assert 0.0 <= ratio <= 1.0


class TestExport:
    def test_shape_and_determinism(self, tmp_path):
        labels = {
            "a": {"u1": Label.HIGH, "u2": Label.LOW},
            "b": {"u1": Label.HIGH, "u2": Label.HIGH},
        }
        m = preservation_matrix(labels, Criterion.PS, Label.HIGH)
        first = export_idh_report([m], tmp_path / "r1")
        again = export_idh_report([m], tmp_path / "r1")
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
        csv = (tmp_path / "r1" / "preservation_ps_high.csv").read_text().splitlines()
        assert csv[0] == "base_category,compared_category,ratio,support"
        # 2x2 matrix: 4 cells, none null here
        assert len(csv) == 5

    def test_null_cells_go_to_sidecar(self, tmp_path):
        labels = {
            "a": {"u1": Label.LOW},
            "b": {"u1": Label.LOW},
        }
        m = preservation_matrix(labels, Criterion.PS, Label.HIGH)
        export_idh_report([m], tmp_path / "r2")
        import json

        summary = json.loads((tmp_path / "r2" / "preservation_summary.json").read_text())
        assert summary["matrices"][0]["rows"] == 0
        assert len(summary["matrices"][0]["omitted_pairs"]) == 4


def build_synthetic_corpus(seed=0, users=50, categories=3, interactions=300):
    """Seeded multi-category corpus with full metadata coverage."""
    rng = np.random.default_rng(seed)
    items = {}
    for c in range(categories):
        for k in range(12):
            item_id = f"c{c}i{k}"
            items[item_id] = ItemMeta(
                item_id,
                f"t {item_id}",
                f"cat{c}",
                float(rng.uniform(1, 80)),
                float(np.round(rng.uniform(1, 5), 1)),
                int(rng.integers(0, 400)),
            )
    ids = sorted(items)
    records = []
    for k in range(interactions):
        records.append(
            InteractionRecord(
                f"u{rng.integers(0, users)}",
                ids[rng.integers(0, len(ids))],
                float(rng.integers(1, 6)),
                k,
            )
        )
    return DomainDataset.from_records("synth", records, items)


def oracle_full_pipeline(ds):
    """Single-pass enumeration of bins, scores, labels and matrices."""
    accessors = {
        Criterion.PS: lambda m: m.price,
        Criterion.QP: lambda m: m.avg_rating,
        Criterion.PB: lambda m: float(m.rating_count),
    }
    out = {}
    for criterion, accessor in accessors.items():
        per_cat_values = {}
        for m in ds.items.values():
            v = accessor(m)
            if v is not None:
                per_cat_values.setdefault(m.category, []).append((m.item_id, v))
        labels_by_cat = {}
        for category, pairs in per_cat_values.items():
            values = [v for _, v in pairs]
            item_bins = {i: oracle_level(v, values) for i, v in pairs}
            user_scores = {}
            for user in ds.users:
                seen = {
                    r.item_id
                    for r in ds.interactions
                    if r.user_id == user and ds.items[r.item_id].category == category
                }
                seen = {i for i in seen if i in item_bins}
                if seen:
                    user_scores[user] = sum(item_bins[i] for i in seen) / len(seen)
            if user_scores:
                score_values = list(user_scores.values())
                labels_by_cat[category] = {
                    u: Label(oracle_level(s, score_values)) for u, s in user_scores.items()
                }
        matrices = {}
        for g in Label:
            cells = {}
            for cb in labels_by_cat:
                for ct in labels_by_cat:
                    both = [u for u in labels_by_cat[cb] if u in labels_by_cat[ct]]
                    denom = [u for u in both if labels_by_cat[cb][u] is g]
                    num = [u for u in denom if labels_by_cat[ct][u] is g]
                    cells[(cb, ct)] = (
                        (len(num) / len(denom), len(denom)) if denom else (None, 0)
                    )
            matrices[g] = cells
        out[criterion] = (labels_by_cat, matrices)
    return out


class TestFullPipelineEquivalence:
    def test_matches_enumeration_oracle_exactly(self):
        ds = build_synthetic_corpus()
        bins = compute_domain_bins(ds)
        labels = compute_domain_labels(ds, bins)
        oracle = oracle_full_pipeline(ds)
        for criterion in (Criterion.PS, Criterion.QP, Criterion.PB):
            oracle_labels, oracle_matrices = oracle[criterion]
            assert labels[criterion] == oracle_labels
            for g in Label:
                m = preservation_matrix(labels[criterion], criterion, g)
                for pair, (ratio, support) in oracle_matrices[g].items():
                    assert m.support[pair] == support
                    if ratio is None:
                        assert m.cells[pair] is None
                    else:
                        assert m.cells[pair] == ratio  # exact
