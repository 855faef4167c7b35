"""Graph backbone tests: adjacency, propagation oracles, BPR pretraining."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitap import gcn as gcn_mod
from multitap.corpus import InteractionRecord, SplitBundle
from multitap.gcn import (
    BipartiteGraph,
    GcnConfig,
    IdEmbeddingTable,
    normalized_adjacency,
    pretrain_id_embeddings,
    propagate,
)

import oracles


def rec(user, item, ts=0):
    return InteractionRecord(user, item, 5.0, ts)


def dense_adjacency(graph, user_order=None, item_order=None):
    """Independent dense construction of the normalized adjacency."""
    users = user_order or sorted(graph.user_index)
    items = item_order or sorted(graph.item_index)
    u_pos = {u: k for k, u in enumerate(users)}
    i_pos = {i: k for k, i in enumerate(items)}
    n = len(users) + len(items)
    dense = np.zeros((n, n))
    inv_u = {v: k for k, v in graph.user_index.items()}
    inv_i = {v: k for k, v in graph.item_index.items()}
    for u_row, i_row in graph.edges:
        u, i = inv_u[int(u_row)], inv_i[int(i_row)]
        w = 1.0 / np.sqrt(graph.user_degrees[u_row] * graph.item_degrees[i_row])
        a, b = u_pos[u], len(users) + i_pos[i]
        dense[a, b] = w
        dense[b, a] = w
    return dense


def random_graph(rng, n_users, n_items, p=0.3):
    records = []
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < p:
                records.append(rec(f"u{u}", f"i{i}"))
    if not records:
        records.append(rec("u0", "i0"))
    return BipartiteGraph.from_interactions(records, ())


class TestAdjacency:
    def test_single_edge(self):
        g = BipartiteGraph.from_interactions([rec("u", "i")], ())
        a = normalized_adjacency(g).toarray()
        np.testing.assert_allclose(a, [[0, 1], [1, 0]])

    def test_degree_normalization(self):
        records = [rec("u", f"i{k}") for k in range(4)]
        g = BipartiteGraph.from_interactions(records, ())
        a = normalized_adjacency(g).toarray()
        # user degree 4, each item degree 1 -> entry 1/2
        assert a[0, 1] == pytest.approx(0.5)

    def test_edges_deduplicated(self):
        g = BipartiteGraph.from_interactions([rec("u", "i", 0), rec("u", "i", 1)], ())
        assert g.edges.shape[0] == 1
        assert g.user_degrees[0] == 1.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, 8, 8)
            sparse = normalized_adjacency(g).toarray()
            np.testing.assert_array_equal(sparse, dense_adjacency(g))

    def test_degrees_positive_for_indexed_nodes(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6, 9)
        assert np.all(g.user_degrees >= 1)
        assert np.all(g.item_degrees >= 1)


class TestPropagate:
    def _table(self, rng, g, dim=4, extra_items=()):
        users = sorted(g.user_index)
        items = sorted(g.item_index) + list(extra_items)
        return IdEmbeddingTable(
            users,
            items,
            rng.normal(size=(len(users), dim)),
            rng.normal(size=(len(items), dim)),
        )

    def test_layer_zero_identity(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 5, 5)
        table = self._table(rng, g)
        out = propagate(table, normalized_adjacency(g), 0)
        np.testing.assert_array_equal(out.user_vecs, table.user_vecs)
        np.testing.assert_array_equal(out.item_vecs, table.item_vecs)

    def test_one_layer_hand_computed(self):
        g = BipartiteGraph.from_interactions(
            [rec("u1", "i1"), rec("u1", "i2"), rec("u2", "i1"), rec("u2", "i2")], ()
        )
        rng = np.random.default_rng(3)
        table = self._table(rng, g, dim=3)
        adjacency = normalized_adjacency(g)
        out = propagate(table, adjacency, 1)
        dense = dense_adjacency(g)
        stacked = np.vstack([table.user_vecs, table.item_vecs])
        expected = (stacked + dense @ stacked) / 2.0
        np.testing.assert_allclose(np.vstack([out.user_vecs, out.item_vecs]), expected, atol=1e-12)

    def test_matches_dense_matrix_power_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, rng.integers(3, 12), rng.integers(3, 12))
            table = self._table(rng, g)
            out = propagate(table, normalized_adjacency(g), 3)
            dense = dense_adjacency(g)
            stacked = np.vstack([table.user_vecs, table.item_vecs])
            expected = sum(
                np.linalg.matrix_power(dense, l) @ stacked for l in range(4)
            ) / 4.0
            np.testing.assert_allclose(
                np.vstack([out.user_vecs, out.item_vecs]), expected, atol=1e-10
            )

    def test_linearity(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6, 6)
        table = self._table(rng, g)
        adjacency = normalized_adjacency(g)
        out1 = propagate(table, adjacency, 2)
        scaled = IdEmbeddingTable(
            table.user_ids, table.item_ids, 2.5 * table.user_vecs, 2.5 * table.item_vecs
        )
        out2 = propagate(scaled, adjacency, 2)
        np.testing.assert_allclose(
            out2.user_vecs, 2.5 * out1.user_vecs, atol=1e-9
        )


def blocked_split(rng, n_users=60, n_items=40, per_user=6):
    """Two-block corpus: users prefer their block's items."""
    half_u, half_i = n_users // 2, n_items // 2
    train, valid = [], []
    ts = 0
    for u in range(n_users):
        block = 0 if u < half_u else 1
        items = range(half_i) if block == 0 else range(half_i, n_items)
        chosen = rng.choice(list(items), size=per_user, replace=False)
        for k, i in enumerate(chosen):
            target = train if k < per_user - 1 else valid
            target.append(InteractionRecord(f"u{u:02d}", f"i{int(i):02d}", 5.0, ts))
            ts += 1
    return SplitBundle(tuple(train), tuple(valid), tuple(valid))


class TestPretrain:
    def test_separable_instance(self):
        # one user, interacted with A only; B exists in the catalog
        split = SplitBundle(
            train=(rec("u", "A", 0), rec("u", "A", 1)),
            valid=(rec("u", "A", 2),),
            test=(rec("u", "A", 3),),
        )
        config = GcnConfig(dim=8, layers=2, epochs=30, patience=30, learning_rate=0.05)
        result = pretrain_id_embeddings(split, config, catalog_items=["A", "B"])
        table = result.table
        u = table.user_vecs[0]
        score_a = u @ table.item_vecs[table.item_ids.index("A")]
        score_b = u @ table.item_vecs[table.item_ids.index("B")]
        assert score_a > score_b

    def test_fixed_seed_identical_checkpoints(self):
        rng = np.random.default_rng(6)
        split = blocked_split(rng)
        config = GcnConfig(dim=16, layers=2, epochs=5, patience=5)
        one = pretrain_id_embeddings(split, config, ())
        two = pretrain_id_embeddings(split, config, ())
        np.testing.assert_array_equal(one.table.user_vecs, two.table.user_vecs)
        np.testing.assert_array_equal(one.table.item_vecs, two.table.item_vecs)
        assert one.history == two.history

    def test_beats_popularity_baseline(self):
        rng = np.random.default_rng(7)
        split = blocked_split(rng, n_users=80, n_items=40, per_user=7)
        config = GcnConfig(dim=24, layers=2, epochs=40, patience=8, learning_rate=0.05)
        result = pretrain_id_embeddings(split, config, ())

        # popularity-ranking oracle on the same protocol: every user's row
        # of the score matrix holds the item counts
        from multitap.evaluate import full_ranking_eval, heldout_units, pair_index

        counts: dict[str, int] = {}
        for r in split.train:
            counts[r.item_id] = counts.get(r.item_id, 0) + 1
        item_ids = result.table.item_ids
        user_ids = result.table.user_ids
        pop_scores = np.array([counts.get(i, 0) for i in item_ids], dtype=float)
        user_rows = {u: k for k, u in enumerate(user_ids)}
        _, observed = pair_index(
            split.train, user_rows, {i: k for k, i in enumerate(item_ids)}
        )
        pop = full_ranking_eval(
            np.tile(pop_scores, (len(user_ids), 1)),
            heldout_units(user_rows, item_ids, observed, split.valid),
            ks=[5],
        )
        assert result.best_hr > pop["HR"][5]

    def test_divergence_detected(self):
        rng = np.random.default_rng(8)
        split = blocked_split(rng, n_users=20, n_items=16, per_user=4)
        config = GcnConfig(dim=8, layers=1, epochs=3, patience=3, learning_rate=1e200)
        from multitap.errors import DivergenceError

        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pretrain_id_embeddings(split, config, ())

    def test_bpr_loss_positive_during_training(self):
        rng = np.random.default_rng(9)
        split = blocked_split(rng, n_users=30, n_items=20, per_user=5)
        config = GcnConfig(dim=8, layers=1, epochs=4, patience=4)
        result = pretrain_id_embeddings(split, config, ())
        assert all(row["loss"] > 0 for row in result.history)


@st.composite
def records_and_catalog(draw):
    """Train records over small id pools, duplicates allowed, and a catalog
    that may repeat train items and adds items no record touches."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 8)), min_size=1, max_size=30))
    records = [rec(f"u{u}", f"i{i}", ts) for ts, (u, i) in enumerate(pairs)]
    catalog = draw(st.lists(st.integers(0, 12).map(lambda i: f"i{i}"), max_size=10))
    return records, catalog


class TestCatalogGraph:
    @settings(max_examples=300, deadline=None)
    @given(records_and_catalog())
    def test_csr_matches_edge_loop_oracle_byte_for_byte(self, case):
        records, catalog = case
        train_only = BipartiteGraph.from_interactions(records, ())
        extra = sorted(set(catalog) - set(train_only.item_index))
        want = oracles.normalized_adjacency(
            train_only, sorted(train_only.user_index), sorted(train_only.item_index) + extra
        )
        got = normalized_adjacency(BipartiteGraph.from_interactions(records, catalog))
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    def test_catalog_only_items_follow_train_items_with_zero_rows(self):
        records = [rec("u1", "i2"), rec("u2", "i1"), rec("u2", "i2")]
        g = BipartiteGraph.from_interactions(records, ["i3", "i1", "i0"])
        assert list(g.item_index) == ["i1", "i2", "i0", "i3"]
        np.testing.assert_array_equal(g.item_degrees, [1.0, 2.0, 0.0, 0.0])
        a = normalized_adjacency(g).toarray()
        nu = len(g.user_index)
        for row in (nu + 2, nu + 3):
            assert not a[row].any() and not a[:, row].any()
        np.testing.assert_array_equal(a[: nu + 2, : nu + 2], dense_adjacency(
            BipartiteGraph.from_interactions(records, ())
        ))


def pinned_split():
    """Sixteen users, each drawing four items of its parity's half of twelve;
    the first record is repeated, so train holds a duplicate."""
    rng = np.random.default_rng(11)
    train, valid = [], []
    ts = 0
    for u in range(16):
        items = rng.choice(6, size=4, replace=False) + (6 if u % 2 else 0)
        for k, i in enumerate(items):
            (train if k < 3 else valid).append(
                InteractionRecord(f"u{u:02d}", f"i{int(i):02d}", 5.0, ts)
            )
            ts += 1
    train.append(train[0])
    return SplitBundle(tuple(train), tuple(valid), tuple(valid))


class TestPretrainPinned:
    def test_tables_match_pinned_digests(self, monkeypatch):
        """The propagated tables of a small run with catalog-only items,
        digests recorded before the adjacency was vectorised, when the
        backbone seed and the validation cutoff were `GcnConfig` fields set to 5 and 3."""
        monkeypatch.setattr(gcn_mod, "BACKBONE_SEED", 5)
        monkeypatch.setattr(gcn_mod, "EARLY_STOP_K", 3)
        config = GcnConfig(dim=8, layers=2, epochs=6, patience=6, learning_rate=0.05)
        result = pretrain_id_embeddings(pinned_split(), config, catalog_items=["i99", "i03", "i98"])
        assert result.table.item_ids[-2:] == ["i98", "i99"]
        assert result.best_epoch == 1
        digests = [hashlib.sha256(a.tobytes()).hexdigest()
                   for a in (result.table.user_vecs, result.table.item_vecs)]
        assert digests == [
            "8733ba87e7880517dfc94924256a0e5ba3720223c387e9c2538e6dd2cd305b8c",
            "1296a07bffe335bbcb96d1023f1d334c18ff70fa09214e9cba7314988e2d122b",
        ]
