"""Full-ranking evaluation tests: closed forms, oracle equivalence, invariances."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitap import evaluate
from multitap.corpus import InteractionRecord
from multitap.evaluate import aggregate_seed_reports, full_ranking_eval, heldout_units, pair_index

import oracles
from oracles import rank_candidates


def records(pairs):
    return [InteractionRecord(user, item, 5.0, 0) for user, item in pairs]


def resolve(user_rows, item_ids, train, heldout):
    """The units of the (user, item) pairs `heldout` with `train`
    ({user: items}) as the users' observed items."""
    item_rows = {i: k for k, i in enumerate(item_ids)}
    train_records = records((u, i) for u in train for i in train[u])
    _, observed = pair_index(train_records, user_rows, item_rows)
    return heldout_units(user_rows, item_ids, observed, records(heldout))


def run_eval(scores, user_rows, item_ids, train, heldout, **kwargs):
    """`full_ranking_eval` of the units `resolve` makes."""
    return full_ranking_eval(scores, resolve(user_rows, item_ids, train, heldout), **kwargs)


def score_matrix(scores_by_user):
    """(U, I) matrix and user -> row map of per-user score vectors."""
    users = sorted(scores_by_user)
    matrix = np.array([scores_by_user[u] for u in users], dtype=np.float64)
    return matrix, {u: k for k, u in enumerate(users)}


def one_user(scores):
    """Matrix arguments ranking `scores` for the single user "u"."""
    return np.asarray(scores, dtype=np.float64)[None, :], {"u": 0}


def eval_single(scores_by_item, positive, exclude=frozenset(), ks=(5,)):
    item_ids = sorted(scores_by_item)
    scores = [scores_by_item[i] for i in item_ids]
    return run_eval(
        *one_user(scores), item_ids, {"u": set(exclude)}, [("u", positive)], ks=ks
    )


class TestClosedForms:
    def test_rank_one(self):
        scores = {f"i{k}": -float(k) for k in range(10)}
        out = eval_single(scores, "i0")
        assert out["HR"][5] == 1.0
        assert out["NDCG"][5] == 1.0

    def test_rank_three(self):
        scores = {f"i{k}": -float(k) for k in range(10)}
        out = eval_single(scores, "i2")
        assert out["HR"][5] == 1.0
        assert out["NDCG"][5] == pytest.approx(1.0 / math.log2(4))
        assert out["NDCG"][5] == pytest.approx(0.5)

    def test_rank_six(self):
        scores = {f"i{k}": -float(k) for k in range(10)}
        out = eval_single(scores, "i5")
        assert out["HR"][5] == 0.0
        assert out["NDCG"][5] == 0.0


class TestProtocol:
    def test_train_items_excluded(self):
        scores = {"a": 3.0, "b": 2.0, "c": 1.0}
        out = eval_single(scores, "c", exclude={"a", "b"}, ks=(1,))
        assert out["HR"][1] == 1.0

    def test_tie_break_by_item_id(self):
        scores = {"b": 1.0, "a": 1.0, "c": 1.0}
        ranked = rank_candidates(np.array([1.0, 1.0, 1.0]), ["b", "a", "c"], set())
        assert ranked == ["a", "b", "c"]

    def test_skipped_users_counted(self):
        matrix, rows = one_user([1.0, 0.0])
        heldout = [("ghost", "a"), ("ghost", "b"), ("u", "a")]
        out = run_eval(matrix, rows, ["a", "b"], {}, heldout, ks=(1,))
        assert out["skipped"] == 2
        assert out["units"] == 1
        assert out["HR"][1] == 1.0

    def test_unknown_positive_is_skipped_and_counted(self):
        matrix, rows = one_user([1.0, 0.0])
        heldout = [("u", "missing"), ("u", "b")]
        out = run_eval(matrix, rows, ["a", "b"], {}, heldout, ks=(1, 2))
        assert out["skipped"] == 1
        assert out["units"] == 1
        assert out["HR"] == {1: 0.0, 2: 1.0}

    def test_pair_index(self):
        records = [
            InteractionRecord("u", "a", 5.0, 1),
            InteractionRecord("v", "b", 4.0, 2),
            InteractionRecord("ghost", "a", 1.0, 3),
            InteractionRecord("u", "c", 3.0, 4),
            InteractionRecord("u", "stale", 1.0, 5),
            InteractionRecord("u", "a", 2.0, 6),
        ]
        pairs, observed = pair_index(records, {"u": 1, "v": 0}, {"a": 0, "b": 1, "c": 2})
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[1, 0], [0, 1], [1, 2], [1, 0]]
        assert observed == [{1}, {0, 2}]
        pairs, observed = pair_index([], {"u": 0}, {"a": 0})
        assert pairs.shape == (0, 2)
        assert observed == [set()]


class TestInvariants:
    def _random_instance(self, rng, n_items=15):
        item_ids = [f"i{k:02d}" for k in range(n_items)]
        scores = rng.normal(size=n_items)
        positive = item_ids[int(rng.integers(0, n_items))]
        return item_ids, scores, positive

    def test_oracle_equivalence_small_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            item_ids, scores, positive = self._random_instance(rng)
            lookup = dict(zip(item_ids, scores))
            out = run_eval(
                *one_user(scores), item_ids, {}, [("u", positive)], ks=(1, 3, 5, 10)
            )
            # naive sort oracle
            order = sorted(item_ids, key=lambda i: (-lookup[i], i))
            rank = order.index(positive) + 1
            for k in (1, 3, 5, 10):
                assert out["HR"][k] == (1.0 if rank <= k else 0.0)
                expected = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
                assert out["NDCG"][k] == pytest.approx(expected)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        item_ids, scores, positive = self._random_instance(rng)
        out = run_eval(
            *one_user(scores), item_ids, {}, [("u", positive)], ks=(1, 2, 5, 10, 15)
        )
        hr = [out["HR"][k] for k in (1, 2, 5, 10, 15)]
        ndcg = [out["NDCG"][k] for k in (1, 2, 5, 10, 15)]
        assert hr == sorted(hr)
        assert ndcg == sorted(ndcg)

    def test_ndcg_bounded_by_hr(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            item_ids, scores, positive = self._random_instance(rng)
            out = run_eval(*one_user(scores), item_ids, {}, [("u", positive)], ks=(5,))
            assert 0.0 <= out["NDCG"][5] <= out["HR"][5] <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        item_ids = [f"i{k:02d}" for k in range(20)]
        scores = rng.normal(size=20)
        heldout = [("u", item_ids[k]) for k in rng.integers(0, 20, size=6)]

        base = run_eval(*one_user(scores), item_ids, {}, heldout, ks=(5, 10))
        warped = run_eval(
            *one_user(np.exp(2.0 * scores + 1.0)), item_ids, {}, heldout, ks=(5, 10)
        )
        assert base["HR"] == warped["HR"]
        assert base["NDCG"] == warped["NDCG"]


class TestSortOracle:
    """The production eval equals the lexsort oracle, type for type."""

    def _case(self, rng):
        n_items = int(rng.integers(1, 25))
        item_ids = [f"i{k}" for k in rng.permutation(n_items)]  # unsorted, mixed widths
        users = [f"u{k}" for k in range(int(rng.integers(1, 6)))]
        # rounding to one decimal makes score ties common
        scores = {u: np.round(rng.normal(size=n_items), 1) for u in users}
        for u in users:
            scores[u][rng.random(n_items) < 0.15] = np.nan
        train = {
            u: {i for i in item_ids if rng.random() < 0.3} for u in users if rng.random() < 0.8
        }
        pool = item_ids + ["unknown"]
        heldout = [
            (users[int(rng.integers(0, len(users)))], pool[int(rng.integers(0, len(pool)))])
            for _ in range(int(rng.integers(1, 12)))
        ]
        heldout.append(("ghost", item_ids[0]))
        return item_ids, scores, train, heldout

    def test_repr_equals_oracle_on_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            item_ids, scores, train, heldout = self._case(rng)
            matrix, rows = score_matrix(scores)

            def score_fn(user):  # the oracle's view of the same matrix
                return matrix[rows[user]]

            for average in ("interaction", "user"):
                kwargs = {"ks": (1, 3, 5, 10), "average": average}
                assert repr(
                    run_eval(matrix, rows, item_ids, train, heldout, **kwargs)
                ) == repr(oracles.full_ranking_eval(score_fn, item_ids, train, heldout, **kwargs))

    @pytest.mark.parametrize("block_cells", [1, 7, evaluate._BLOCK_CELLS])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_blocked_eval_repr_equals_oracle(self, block_cells, data):
        """Blocks of 1 and 7 cells split the units across users and inside one
        user; the default block holds every unit of a small case."""
        n_items = data.draw(st.integers(0, 12))
        item_ids = data.draw(st.permutations([f"i{k}" for k in range(n_items)]))
        users = [f"u{k}" for k in range(data.draw(st.integers(1, 5)))]
        # rounded scores make ties common; NaN and +-inf candidates and positives
        value = st.one_of(
            st.integers(-3, 3).map(lambda x: x / 2.0),
            st.sampled_from([np.nan, np.inf, -np.inf]),
        )
        matrix = np.array(
            [data.draw(st.lists(value, min_size=n_items, max_size=n_items))
             for _ in range(len(users) + 1)],  # the last row is nobody's
            dtype=np.float64,
        )
        rows = dict(zip(users, data.draw(st.permutations(range(len(users) + 1)))))
        # exclusion sets: none, some (with an id outside the catalog), or all
        train = {
            u: data.draw(st.one_of(
                st.just(set(item_ids)),
                st.sets(st.sampled_from(item_ids + ["stale"])),
            ))
            for u in users if data.draw(st.booleans())
        }
        heldout = data.draw(st.lists(
            st.tuples(st.sampled_from(users + ["ghost"]),
                      st.sampled_from(item_ids + ["unknown"])),
            min_size=1, max_size=14,
        ))
        ks = data.draw(st.sampled_from([(1, 3, 5, 10), (5,), (10, 2)]))
        average = data.draw(st.sampled_from(evaluate.AVERAGES))

        def score_fn(user):  # the oracle's view of the same matrix
            return matrix[rows[user]]

        with mock.patch.object(evaluate, "_BLOCK_CELLS", block_cells):
            got = run_eval(matrix, rows, item_ids, train, heldout, ks=ks, average=average)
        want = oracles.full_ranking_eval(score_fn, item_ids, train, heldout, ks=ks, average=average)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("block_cells", [1, 7, evaluate._BLOCK_CELLS])
    def test_unit_ranks_equal_oracle_ranks(self, block_cells):
        """Each unit's rank, in unit order, is its item's place in the
        lexsort oracle's ranking of the unit's user."""
        rng = np.random.default_rng(4)
        for _ in range(300):
            item_ids, scores, train, heldout = self._case(rng)
            matrix, rows = score_matrix(scores)
            units = resolve(rows, item_ids, train, heldout)
            with mock.patch.object(evaluate, "_BLOCK_CELLS", block_cells):
                ranks = evaluate.unit_ranks(matrix, units)
            user_of = {row: user for user, row in rows.items()}
            want = [
                rank_candidates(matrix[row], item_ids, train.get(user_of[row], set())).index(
                    item_ids[col]) + 1
                for row, col in zip(units.rows.tolist(), units.cols.tolist())
            ]
            assert ranks.dtype == np.int64
            assert ranks.tolist() == want

    def test_every_metric_is_a_float(self):
        rng = np.random.default_rng(5)
        cases = [self._case(rng) for _ in range(50)]
        # a case whose every unit is skipped reports zeros
        cases.append((["i0"], {"u0": np.zeros(1)}, {"u0": {"i0"}}, [("u0", "i0")]))
        for item_ids, scores, train, heldout in cases:
            matrix, rows = score_matrix(scores)
            for average in evaluate.AVERAGES:
                out = run_eval(matrix, rows, item_ids, train, heldout, ks=(1, 5), average=average)
                for metric in ("HR", "NDCG"):
                    assert [type(v) for v in out[metric].values()] == [float, float]
        assert out["units"] == 0 and out["HR"] == {1: 0.0, 5: 0.0}

    def test_nan_ranks_after_finite_then_by_id(self):
        item_ids = ["c", "a", "b", "d"]
        scores = np.array([np.nan, np.nan, -5.0, 1.0])
        assert rank_candidates(scores, item_ids, set()) == ["d", "b", "a", "c"]
        out = run_eval(*one_user(scores), item_ids, {}, [("u", "c")], ks=(3, 4))
        assert out["HR"] == {3: 0.0, 4: 1.0}

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            run_eval(*one_user(np.zeros(2)), ["a", "a"], {}, [("u", "a")])


class TestSeedAggregation:
    def test_mean_std_per_seed(self):
        reports = [
            {"HR": {5: 0.2}, "NDCG": {5: 0.1}, "units": 10, "skipped": 0},
            {"HR": {5: 0.4}, "NDCG": {5: 0.2}, "units": 10, "skipped": 0},
        ]
        out = aggregate_seed_reports(reports, [5])
        hr = next(m for m in out["metrics"] if m["metric"] == "HR")
        assert hr["mean"] == pytest.approx(0.3)
        assert hr["std"] == pytest.approx(0.1)
        assert hr["per_seed"] == [0.2, 0.4]


class TestAveragingModes:
    def test_per_user_differs_from_per_interaction(self):
        # user "a" has two positives (one hit, one miss), user "b" one hit
        item_ids = ["i0", "i1", "i2", "i3", "i4", "i5", "i6"]
        scores = {"a": np.array([7.0, 6, 5, 4, 3, 2, 1]), "b": np.array([1.0, 2, 3, 4, 5, 6, 7])}
        heldout = [("a", "i0"), ("a", "i6"), ("b", "i6")]
        matrix, rows = score_matrix(scores)
        args = (matrix, rows, item_ids, {}, heldout)
        inter = run_eval(*args, ks=(1,), average="interaction")
        user = run_eval(*args, ks=(1,), average="user")
        assert inter["HR"][1] == pytest.approx(2.0 / 3.0)
        assert user["HR"][1] == pytest.approx((0.5 + 1.0) / 2.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_eval(*one_user(np.zeros(1)), ["a"], {}, [("u", "a")], ks=(5,), average="nope")


class TestOneResolutionPerRun:
    """A trainer indexes its split and resolves its validation units once per
    run; each epoch's validation only ranks."""

    def _count(self, monkeypatch, module):
        calls = {"heldout_units": 0, "full_ranking_eval": 0}
        for name in calls:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_pretrain(self, monkeypatch):
        from multitap import gcn
        from test_gcn import blocked_split

        calls = self._count(monkeypatch, gcn)
        split = blocked_split(np.random.default_rng(0), n_users=12, n_items=10, per_user=4)
        config = gcn.GcnConfig(dim=4, layers=1, epochs=3, patience=3)
        result = gcn.pretrain_id_embeddings(split, config, ())
        assert len(result.history) == 3
        assert calls == {"heldout_units": 1, "full_ranking_eval": 3}

    def test_train_target(self, monkeypatch):
        from multitap import model
        from test_model import toy_config, toy_inputs, toy_records

        calls = self._count(monkeypatch, model)
        rng = np.random.default_rng(0)
        inputs = toy_inputs(rng)
        train, valid = toy_records(rng, inputs)
        result = model.train_target(
            inputs, train, valid, toy_config(max_epochs=3, patience=3), 0
        )
        assert len(result.history) == 3
        assert calls == {"heldout_units": 1, "full_ranking_eval": 3}
