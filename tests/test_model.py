"""Core model tests: aggregation, doppelganger transfer, losses, fusion,
joint training and the full-objective gradient check."""

import math

import numpy as np
import pytest

from multitap.diffkit import grad_check
from multitap.idh import CRITERIA_ORDER, Criterion
from multitap.model import (
    AggregatorParams,
    ModelInputs,
    MultiTapModel,
    PersonaTable,
    TrainConfig,
    aggregate_personas,
    bpr_loss,
    bpr_loss_from_scores,
    direct_alignment_loss,
    doppelganger_embed,
    dpl_loss,
    fuse_representations,
    infonce_sum,
    train_target,
)
from multitap.corpus import InteractionRecord
from multitap.persona.encoding import PersonaEmbeddingSet


def emb_set(matrix):
    return PersonaEmbeddingSet(
        "u", {c: matrix[k] for k, c in enumerate(CRITERIA_ORDER)}, matrix.shape[1]
    )


def random_params(rng, n, h=None, mask=True):
    h = h or n
    return AggregatorParams(
        mask=rng.normal(size=n) if mask else None,
        ffn_w=rng.normal(size=(n, n)) * 0.2,
        ffn_b=np.zeros(n),
        proj_w=rng.normal(size=(n, h)) * 0.2,
        proj_b=np.zeros(h),
    )


class TestAggregation:
    def test_identical_vectors_uniform_attention(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=6)
        matrix = np.tile(v, (5, 1))
        result = aggregate_personas(emb_set(matrix), random_params(rng, 6), "self_attn")
        np.testing.assert_allclose(result.weights, np.full(5, 0.2), atol=1e-9)
        np.testing.assert_allclose(result.pooled, v, atol=1e-12)

    def test_mean_equals_self_attn_for_identical_vectors(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6)
        matrix = np.tile(v, (5, 1))
        params = random_params(rng, 6)
        attn = aggregate_personas(emb_set(matrix), params, "self_attn")
        mean = aggregate_personas(emb_set(matrix), params, "mean")
        np.testing.assert_allclose(attn.pooled, mean.pooled, atol=1e-12)
        np.testing.assert_allclose(attn.vector, mean.vector, atol=1e-12)

    def test_pooled_within_convex_hull(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            matrix = rng.normal(size=(5, 7))
            params = random_params(rng, 7)
            result = aggregate_personas(emb_set(matrix), params, "self_attn")
            assert np.all(result.pooled >= matrix.min(axis=0) - 1e-12)
            assert np.all(result.pooled <= matrix.max(axis=0) + 1e-12)
            assert abs(result.weights.sum() - 1.0) < 1e-6

    def test_concat_widens_input(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(5, 4))
        params = AggregatorParams(
            mask=None,
            ffn_w=rng.normal(size=(20, 4)),
            ffn_b=np.zeros(4),
            proj_w=rng.normal(size=(4, 4)),
            proj_b=np.zeros(4),
        )
        result = aggregate_personas(emb_set(matrix), params, "concat")
        assert result.pooled.shape == (20,)
        assert result.vector.shape == (4,)

    def test_missing_mask_errors(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 4))
        with pytest.raises(ValueError, match="mask"):
            aggregate_personas(
                emb_set(matrix), random_params(rng, 4, mask=False), "self_attn"
            )


def persona_table(user_ids, vecs):
    return PersonaTable(user_ids=list(user_ids), user_vecs=np.asarray(vecs, dtype=float))


class TestDoppelganger:
    def test_single_source_user(self):
        rng = np.random.default_rng(5)
        target = persona_table(["u"], rng.normal(size=(1, 6)))
        source = persona_table(["u"], rng.normal(size=(1, 6)))
        state = doppelganger_embed("u", target, source)
        np.testing.assert_allclose(state.weights, [1.0])
        np.testing.assert_allclose(state.vector, source.user_vecs[0])

    def test_identical_source_embeddings(self):
        rng = np.random.default_rng(6)
        shared = rng.normal(size=6)
        target = persona_table(["u", "v", "w"], rng.normal(size=(3, 6)))
        source = persona_table(["u", "v", "w"], np.tile(shared, (3, 1)))
        state = doppelganger_embed("u", target, source)
        np.testing.assert_allclose(state.weights, np.full(3, 1 / 3), atol=1e-9)
        np.testing.assert_allclose(state.vector, shared, atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        users = [f"u{k}" for k in range(5)]
        target = persona_table(users, rng.normal(size=(5, 8)))
        source = persona_table(users, rng.normal(size=(5, 8)))
        state = doppelganger_embed("u2", target, source)
        q = target.user_vecs[2]
        logits = source.user_vecs @ q / math.sqrt(8)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        np.testing.assert_allclose(state.weights, w, atol=1e-10)
        np.testing.assert_allclose(state.vector, w @ source.user_vecs, atol=1e-10)

    def test_convex_hull_100_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            users = [f"u{k}" for k in range(6)]
            target = persona_table(users, rng.normal(size=(6, 5)))
            source = persona_table(users, rng.normal(size=(6, 5)))
            state = doppelganger_embed("u0", target, source)
            lo = source.user_vecs.min(axis=0) - 1e-12
            hi = source.user_vecs.max(axis=0) + 1e-12
            assert np.all(state.vector >= lo) and np.all(state.vector <= hi)
            assert abs(state.weights.sum() - 1.0) < 1e-6

    def test_non_overlap_user_errors(self):
        rng = np.random.default_rng(9)
        target = persona_table(["u"], rng.normal(size=(1, 4)))
        source = persona_table(["v"], rng.normal(size=(1, 4)))
        with pytest.raises(ValueError, match="overlap"):
            doppelganger_embed("u", target, source)


def doppelganger_table(users, target, source):
    return {u: doppelganger_embed(u, target, source) for u in users}


class TestDplLoss:
    def test_two_anchor_uniform_case(self):
        # anchors orthogonal to each other, doppelgangers all equal -> all sims equal
        target = persona_table(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        shared = np.array([1.0, 1.0])
        source = persona_table(["a", "b"], np.tile(shared, (2, 1)))
        dopples = doppelganger_table(["a", "b"], target, source)
        loss = dpl_loss(["a", "b"], target, dopples, tau=0.5)
        assert loss == pytest.approx(2 * math.log(2), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_n_equal_similarity_anchors(self, n):
        # orthonormal anchors and identical doppelgangers give equal sims
        users = [f"u{k}" for k in range(n)]
        target = persona_table(users, np.eye(n))
        source = persona_table(users, np.tile(np.ones(n), (n, 1)))
        dopples = doppelganger_table(users, target, source)
        loss = dpl_loss(users, target, dopples, tau=0.7)
        assert loss == pytest.approx(n * math.log(n), abs=1e-8)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(10)
        users = [f"u{k}" for k in range(4)]
        target = persona_table(users, rng.normal(size=(4, 6)))
        source = persona_table(users, rng.normal(size=(4, 6)))
        dopples = doppelganger_table(users, target, source)
        tau = 0.5
        loss = dpl_loss(users, target, dopples, tau)

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        expected = 0.0
        for u in users:
            num = math.exp(cos(target.user_vector(u), dopples[u].vector) / tau)
            den = sum(
                math.exp(cos(target.user_vector(u), dopples[v].vector) / tau)
                for v in users
            )
            expected -= math.log(num / den)
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_single_anchor_errors(self):
        target = persona_table(["a"], np.ones((1, 3)))
        source = persona_table(["a"], np.ones((1, 3)))
        dopples = doppelganger_table(["a"], target, source)
        with pytest.raises(ValueError):
            dpl_loss(["a"], target, dopples, tau=0.5)

    def test_per_anchor_terms_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            users = [f"u{k}" for k in range(5)]
            anchors = rng.normal(size=(5, 4))
            positives = rng.normal(size=(5, 4))
            # per-anchor term is -log softmax diag <= log(N), always >= 0
            loss = infonce_sum(anchors, positives, tau=0.3)
            assert loss >= -1e-12


class TestDirectAlignment:
    def test_two_user_symmetric_case(self):
        users = ["a", "b"]
        t = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        s = {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 1.0])}
        loss = direct_alignment_loss(
            users, "direct_persona", 0.5, target_personas=t, source_personas=s
        )
        assert loss == pytest.approx(2 * math.log(2), abs=1e-9)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(12)
        users = [f"u{k}" for k in range(5)]
        t = {u: rng.normal(size=6) for u in users}
        s = {u: rng.normal(size=6) for u in users}
        loss = direct_alignment_loss(
            users, "direct_persona", 0.4, target_personas=t, source_personas=s
        )

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        expected = 0.0
        for u in users:
            den = sum(math.exp(cos(t[u], s[v]) / 0.4) for v in users)
            expected -= math.log(math.exp(cos(t[u], s[u]) / 0.4) / den)
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_direct_both_concatenates_dimensions(self):
        rng = np.random.default_rng(13)
        users = ["a", "b"]
        t = {u: rng.normal(size=4) for u in users}
        s = {u: rng.normal(size=4) for u in users}
        tid = {u: rng.normal(size=3) for u in users}
        sid = {u: rng.normal(size=3) for u in users}
        loss = direct_alignment_loss(
            users,
            "direct_both",
            0.5,
            target_personas=t,
            source_personas=s,
            target_ids=tid,
            source_ids=sid,
        )
        anchors = np.stack([np.concatenate([t[u], tid[u]]) for u in users])
        positives = np.stack([np.concatenate([s[u], sid[u]]) for u in users])
        assert anchors.shape[1] == 7
        assert loss == pytest.approx(infonce_sum(anchors, positives, 0.5), abs=1e-12)


class TestFusion:
    def test_shape_contract(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=256)
        v = rng.normal(size=128)
        w = rng.normal(size=(384, 128)) * 0.02
        z = fuse_representations(h, v, w, np.zeros(128))
        assert z.shape == (128,)

    def test_zero_weights_zero_output(self):
        z = fuse_representations(np.ones(4), np.ones(3), np.zeros((7, 5)), np.zeros(5))
        np.testing.assert_array_equal(z, np.zeros(5))

    def test_identity_block_selects_id_vector(self):
        h = np.array([9.0, 8.0])
        v = np.array([1.0, 2.0, 3.0])
        w = np.vstack([np.zeros((2, 3)), np.eye(3)])
        z = fuse_representations(h, v, w, np.zeros(3))
        np.testing.assert_allclose(z, v)


class TestBprLoss:
    def test_equal_scores_ln2(self):
        assert bpr_loss_from_scores(np.array([1.0]), np.array([1.0])) == pytest.approx(
            math.log(2), abs=1e-9
        )

    def test_large_margin_goes_to_zero(self):
        assert bpr_loss_from_scores(np.array([60.0]), np.array([0.0])) < 1e-12

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(15)
        users = [f"u{k}" for k in range(4)]
        items = [f"i{k}" for k in range(6)]
        uz = {u: rng.normal(size=5) for u in users}
        iz = {i: rng.normal(size=5) for i in items}
        triples = [
            (users[rng.integers(0, 4)], items[rng.integers(0, 6)], items[rng.integers(0, 6)])
            for _ in range(16)
        ]
        loss = bpr_loss(triples, uz, iz)
        expected = 0.0
        for u, ip, ineg in triples:
            x = uz[u] @ iz[ip] - uz[u] @ iz[ineg]
            expected += -math.log(1.0 / (1.0 + math.exp(-x)))
        assert loss == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# trainable model
# ---------------------------------------------------------------------------


def toy_inputs(rng, n_users=4, n_items=6, n=8, id_dim=4, sem_dim=5, h=None):
    users = [f"u{k}" for k in range(n_users)]
    items = [f"i{k}" for k in range(n_items)]
    persona = rng.normal(size=(n_users, 5, n))
    persona /= np.linalg.norm(persona, axis=2, keepdims=True)
    sem = rng.normal(size=(n_items, sem_dim))
    return ModelInputs(
        user_ids=users,
        item_ids=items,
        persona_inputs=persona,
        item_semantics=sem,
        backbone_user=rng.normal(size=(n_users, id_dim)) * 0.3,
        backbone_item=rng.normal(size=(n_items, id_dim)) * 0.3,
        overlap_users=users,
        source_user_personas=rng.normal(size=(n_users, h or n)),
        source_user_backbone=rng.normal(size=(n_users, id_dim)),
    )


def toy_records(rng, inputs, per_user=3, boundary=1000):
    train, valid = [], []
    ts = 0
    for u in inputs.user_ids:
        for _ in range(per_user):
            i = inputs.item_ids[int(rng.integers(0, len(inputs.item_ids)))]
            train.append(InteractionRecord(u, i, 5.0, ts))
            ts += 1
        valid.append(
            InteractionRecord(u, inputs.item_ids[int(rng.integers(0, len(inputs.item_ids)))], 5.0, boundary + ts)
        )
    return train, valid


def toy_config(**overrides):
    base = dict(
        aggregation="self_attn",
        transfer="doppelganger",
        lambda_dpl=1.4,
        tau=0.5,
        batch_size=64,
        negatives=1,
        learning_rate=0.01,
        weight_decay=0.0,
        dropout=0.0,
        max_epochs=4,
        patience=4,
        seed=0,
        fused_dim=6,
    )
    base.update(overrides)
    return TrainConfig(**base)


def to_generic_point(model, seed=99, scale=0.3):
    """Move parameters to a seeded generic point before gradient checking.

    At the near-zero init the persona vectors have ~1e-3 norms, and the
    scale-invariant cosine terms then dominate the finite-difference
    truncation error at eps=1e-4; a generic O(0.3) point keeps the check
    well-conditioned and is the stronger place to compare gradients."""
    rng = np.random.default_rng(seed)
    for name in model.store.names():
        model.store.params[name][...] = rng.normal(
            scale=scale, size=model.store.params[name].shape
        )


class TestGradientCheck:
    @pytest.mark.parametrize("transfer", ["doppelganger", "direct_id", "direct_persona", "direct_both"])
    def test_full_objective_matches_finite_differences(self, transfer):
        rng = np.random.default_rng(16)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config(transfer=transfer))
        to_generic_point(model)
        users = np.array([0, 1, 2, 3, 0, 2])
        pos = np.array([0, 1, 2, 3, 4, 5])
        neg = np.array([5, 4, 3, 2, 1, 0])

        def fn(store):
            total, _, _ = model.batch_loss_and_grads(users, pos, neg, dropout_rng=None)
            return total

        assert grad_check(fn, model.store, eps=1e-4) < 1e-4

    @pytest.mark.parametrize("aggregation", ["mean", "concat"])
    def test_other_aggregations_grad_check(self, aggregation):
        rng = np.random.default_rng(17)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config(aggregation=aggregation))
        to_generic_point(model)
        users = np.array([0, 1, 2, 3])
        pos = np.array([0, 1, 2, 3])
        neg = np.array([3, 2, 1, 0])

        def fn(store):
            total, _, _ = model.batch_loss_and_grads(users, pos, neg, dropout_rng=None)
            return total

        assert grad_check(fn, model.store, eps=1e-4) < 1e-4


class TestBatchedPathsMatchOps:
    def test_persona_forward_matches_aggregate_op(self):
        rng = np.random.default_rng(18)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config())
        cache = model._persona_forward(np.arange(4), None)
        params = model.aggregator_params()
        for k, user in enumerate(inputs.user_ids):
            es = PersonaEmbeddingSet(
                user,
                {c: inputs.persona_inputs[k, j] for j, c in enumerate(CRITERIA_ORDER)},
                inputs.persona_inputs.shape[2],
            )
            result = aggregate_personas(es, params, "self_attn")
            np.testing.assert_allclose(cache["h"][k], result.vector, atol=1e-12)
            np.testing.assert_allclose(cache["A"][k], result.weights, atol=1e-12)

    def test_transfer_term_matches_dpl_loss_op(self):
        rng = np.random.default_rng(19)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config())
        h = model._persona_forward(np.arange(4), None)["h"]
        loss, _, _ = model._transfer_term(
            np.arange(4), list(inputs.user_ids), h
        )
        target = PersonaTable(user_ids=list(inputs.user_ids), user_vecs=h)
        source = PersonaTable(
            user_ids=list(inputs.overlap_users), user_vecs=inputs.source_user_personas
        )
        dopples = {u: doppelganger_embed(u, target, source) for u in inputs.user_ids}
        expected = dpl_loss(list(inputs.user_ids), target, dopples, model.config.tau)
        assert loss == pytest.approx(expected / 4.0, abs=1e-10)


class TestTraining:
    def test_lambda_zero_equals_transfer_none(self):
        rng = np.random.default_rng(20)
        inputs = toy_inputs(rng, n_users=6, n_items=8)
        train, valid = toy_records(np.random.default_rng(21), inputs)
        a = train_target(inputs, train, valid, toy_config(lambda_dpl=0.0))
        b = train_target(inputs, train, valid, toy_config(transfer="none", lambda_dpl=0.0))
        assert [r["l_rec"] for r in a.history] == [r["l_rec"] for r in b.history]
        assert [r["valid_hr"] for r in a.history] == [r["valid_hr"] for r in b.history]
        assert all(r["l_dpl"] == 0.0 for r in a.history)

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(22)
        inputs = toy_inputs(rng, n_users=6, n_items=8)
        train, valid = toy_records(np.random.default_rng(23), inputs)
        a = train_target(inputs, train, valid, toy_config(dropout=0.2))
        b = train_target(inputs, train, valid, toy_config(dropout=0.2))
        assert a.history == b.history
        for name in a.model.store.names():
            np.testing.assert_array_equal(
                a.model.store.params[name], b.model.store.params[name]
            )

    def test_empty_overlap_with_transfer_errors(self):
        rng = np.random.default_rng(24)
        inputs = toy_inputs(rng)
        inputs.overlap_users = []
        with pytest.raises(ValueError, match="overlap"):
            MultiTapModel(inputs, toy_config())

    def test_scaled_z_preserves_ranking(self):
        rng = np.random.default_rng(25)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config())
        scores = model.score_matrix()
        from oracles import rank_candidates

        for row in range(scores.shape[0]):
            base = rank_candidates(scores[row], inputs.item_ids, set())
            scaled = rank_candidates(scores[row] * 9.0, inputs.item_ids, set())
            assert base == scaled

    def test_eq16_decomposition(self):
        rng = np.random.default_rng(26)
        inputs = toy_inputs(rng)
        model = MultiTapModel(inputs, toy_config(lambda_dpl=0.0))
        users = np.array([0, 1, 2, 3])
        pos = np.array([0, 1, 2, 3])
        neg = np.array([3, 2, 1, 0])
        total, l_rec, l_dpl = model.batch_loss_and_grads(users, pos, neg)
        assert l_dpl == 0.0
        assert total == l_rec
