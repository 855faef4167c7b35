"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one `[ACCEPTANCE] ...: PASS/FAIL` line (run with `-s` to see them
as they complete).
"""

import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from multitap.diffkit import grad_check, info_nce
from multitap.evaluate import full_ranking_eval
from multitap.gcn import BipartiteGraph, IdEmbeddingTable, normalized_adjacency, propagate
from multitap.idh import Criterion, Label, compute_domain_bins, compute_domain_labels, preservation_matrix
from multitap.model import MultiTapModel
from multitap.pipeline import Pipeline, PipelineConfig

from conftest import small_config_dict
from test_gcn import dense_adjacency, random_graph
from test_idh import build_synthetic_corpus, oracle_full_pipeline
from test_model import to_generic_point, toy_config, toy_inputs


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number} ({description}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number} ({description}): PASS")


class TestCriterion1GradientCorrectness:
    def test_full_objective_gradients(self):
        with criterion(1, "gradients of the complete objective match finite differences"):
            start = time.monotonic()
            rng = np.random.default_rng(16)
            inputs = toy_inputs(rng, n_users=4, n_items=6)
            model = MultiTapModel(inputs, toy_config())
            to_generic_point(model)
            users = np.array([0, 1, 2, 3, 0, 2])
            pos = np.array([0, 1, 2, 3, 4, 5])
            neg = np.array([5, 4, 3, 2, 1, 0])

            def fn(store):
                total, _, _ = model.batch_loss_and_grads(users, pos, neg, dropout_rng=None)
                return total

            max_rel = grad_check(fn, model.store, eps=1e-4)
            elapsed = time.monotonic() - start
            assert max_rel < 1e-4, f"max relative error {max_rel:.3e}"
            assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


class TestCriterion2AnalyticLossValues:
    def test_bpr_equal_scores(self):
        with criterion(2, "analytic BPR and InfoNCE values"):
            model = MultiTapModel(toy_inputs(np.random.default_rng(2)), toy_config())
            _, loss, _ = model.batch_loss_and_grads(np.array([0]), np.array([2]), np.array([2]))
            assert abs(loss - math.log(2)) < 1e-9
            for n in (2, 4, 8):
                anchors = np.eye(n)
                positives = np.tile(np.ones(n), (n, 1))
                loss = n * info_nce(anchors, positives, tau=0.5)[0]
                assert abs(loss - n * math.log(n)) < 1e-8, (n, loss)


class TestCriterion3AttentionContracts:
    def test_attention_contracts(self):
        with criterion(3, "attention weight and convexity contracts"):
            rng = np.random.default_rng(3)
            for k in (1, 5):
                inputs = toy_inputs(rng, n_users=k, n=6)
                inputs.source_user_personas = np.tile(rng.normal(size=6), (k, 1))
                model = MultiTapModel(inputs, toy_config())
                weights = model.doppelganger_weights(rng.normal(size=(1, 6)))
                assert np.max(np.abs(weights - 1.0 / k)) < 1e-9
            for _ in range(100):
                inputs = toy_inputs(rng, n_users=7, n=5)
                model = MultiTapModel(inputs, toy_config())
                weights = model.doppelganger_weights(rng.normal(size=(1, 5)))[0]
                source = inputs.source_user_personas
                vector = weights @ source
                assert abs(weights.sum() - 1.0) < 1e-6
                lo = source.min(axis=0) - 1e-12
                hi = source.max(axis=0) + 1e-12
                assert np.all(vector >= lo) and np.all(vector <= hi)


class TestCriterion4IdhOracleEquivalence:
    def test_exact_equivalence(self):
        with criterion(4, "heterogeneity pipeline equals enumeration oracle exactly"):
            start = time.monotonic()
            ds = build_synthetic_corpus(seed=0, users=50, categories=3, interactions=300)
            bins = compute_domain_bins(ds)
            labels = compute_domain_labels(ds, bins)
            oracle = oracle_full_pipeline(ds)
            for crit in (Criterion.PS, Criterion.QP, Criterion.PB):
                oracle_labels, oracle_matrices = oracle[crit]
                assert labels[crit] == oracle_labels
                for g in Label:
                    matrix = preservation_matrix(labels[crit], crit, g)
                    for pair, (ratio, support) in oracle_matrices[g].items():
                        assert matrix.support[pair] == support
                        assert matrix.cells[pair] == ratio
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, f"took {elapsed:.1f}s"


class TestCriterion5GraphBackbone:
    def test_propagation_matches_dense_oracle(self):
        with criterion(5, "propagation equals the dense matrix-power oracle"):
            rng = np.random.default_rng(5)
            for _ in range(20):
                n_users = int(rng.integers(2, 25))
                n_items = int(rng.integers(2, 25))
                graph = random_graph(rng, n_users, n_items)
                users = sorted(graph.user_index)
                items = sorted(graph.item_index)
                table = IdEmbeddingTable(
                    users,
                    items,
                    rng.normal(size=(len(users), 6)),
                    rng.normal(size=(len(items), 6)),
                )
                adjacency = normalized_adjacency(graph)
                zero = propagate(table, adjacency, 0)
                np.testing.assert_array_equal(zero.user_vecs, table.user_vecs)
                np.testing.assert_array_equal(zero.item_vecs, table.item_vecs)
                for layers in (1, 3):
                    out = propagate(table, adjacency, layers)
                    dense = dense_adjacency(graph)
                    stacked = np.vstack([table.user_vecs, table.item_vecs])
                    expected = sum(
                        np.linalg.matrix_power(dense, l) @ stacked
                        for l in range(layers + 1)
                    ) / (layers + 1)
                    got = np.vstack([out.user_vecs, out.item_vecs])
                    assert np.max(np.abs(got - expected)) < 1e-10


class TestCriterion6DirectionalEndToEnd:
    def test_transfer_and_aggregation_directions(self, acceptance_pipeline):
        with criterion(6, "doppelganger transfer and self-attention directions"):
            pipe = acceptance_pipeline
            start = time.monotonic()
            inputs = pipe._target_inputs_with_transfer()
            seeds = pipe.config.seeds
            assert len(inputs.overlap_users) == 200
            assert pipe.config.train.lambda_dpl == 1.4
            assert pipe.config.train.tau == 0.5

            def run(seed, overrides):
                result = pipe._train_one(inputs, seed, overrides)
                report = pipe._test_report(result.model, [5])
                return report["HR"][5]

            dpl = [run(seed, {}) for seed in seeds]
            lam0 = [run(seed, {"lambda_dpl": 0.0}) for seed in seeds]
            mean_agg = [run(seed, {"aggregation": "mean"}) for seed in seeds]
            elapsed = time.monotonic() - start

            wins = sum(1 for a, b in zip(dpl, lam0) if a > b)
            print(
                f"\n  transfer HR@5 per seed {[round(v, 4) for v in dpl]} "
                f"vs lambda=0 {[round(v, 4) for v in lam0]} -> {wins}/5 wins"
            )
            print(
                f"  self-attn mean {np.mean(dpl):.4f} vs mean-aggregation "
                f"{np.mean(mean_agg):.4f}; trained in {elapsed:.0f}s"
            )
            assert wins >= 4, f"transfer won only {wins}/5 seeds"
            assert np.mean(dpl) >= np.mean(mean_agg), "self-attention lost to mean"
            assert elapsed < 300.0, f"training took {elapsed:.0f}s (budget 300s)"
            # criterion 9 rides on the same measurement
            TestCriterion9Efficiency.measured_seconds = elapsed


class TestCriterion7Determinism:
    def test_bit_identical_runs(self, small_fixture, tmp_path):
        with criterion(7, "bit-identical metric reports and checkpoints"):
            _, paths = small_fixture
            stages = ["ingest", "split", "idh", "persona", "pretrain", "train", "eval"]
            runs = {}
            for name in ("a", "b"):
                config = PipelineConfig.from_dict(
                    small_config_dict(paths, tmp_path / f"run_{name}", tmp_path / f"cache_{name}")
                )
                pipe = Pipeline(config)
                pipe.run(stages)
                runs[name] = (pipe, tmp_path / f"run_{name}")
            assert runs["a"][0].hash == runs["b"][0].hash
            for rel in (
                "eval/report.json",
                "model/target_seed0.ckpt",
                "model/target_seed0.ckpt.manifest.json",
                "model/source_tables.ckpt",
                "backbone/target.ckpt",
            ):
                a = (runs["a"][1] / rel).read_bytes()
                b = (runs["b"][1] / rel).read_bytes()
                assert a == b, f"{rel} differs between identically configured runs"


AMAZON_DIR = os.environ.get("MULTITAP_AMAZON_DIR")


class TestCriterion8RealData:
    @pytest.mark.skipif(
        not AMAZON_DIR,
        reason="optional real-data check; set MULTITAP_AMAZON_DIR to converted JSONL files",
    )
    def test_amazon_overlap_and_preservation(self):
        with criterion(8, "real-data overlap and preservation checks"):
            from multitap.corpus import build_domain_pair, load_domain

            elec = load_domain(
                os.path.join(AMAZON_DIR, "elec_interactions.jsonl"),
                os.path.join(AMAZON_DIR, "elec_metadata.jsonl"),
                "Elec",
            )
            home = load_domain(
                os.path.join(AMAZON_DIR, "home_interactions.jsonl"),
                os.path.join(AMAZON_DIR, "home_metadata.jsonl"),
                "Home",
            )
            pair = build_domain_pair(elec, home)
            assert len(pair.overlap) == 7274
            labels = compute_domain_labels(elec)[Criterion.PS]
            matrix = preservation_matrix(labels, Criterion.PS, Label.HIGH)
            car_gps = [
                ratio
                for (base, other), ratio in matrix.cells.items()
                if ratio is not None and "Car" in base and "GPS" in other
            ]
            assert car_gps, "no Car->GPS cell found"
            assert abs(car_gps[0] - 0.31) <= 0.03


class TestCriterion9Efficiency:
    measured_seconds: float | None = None

    def test_training_well_under_budget(self, acceptance_pipeline):
        with criterion(9, "synthetic training fits the efficiency envelope"):
            elapsed = self.measured_seconds
            if elapsed is None:
                # standalone run: time one full five-seed training directly
                pipe = acceptance_pipeline
                inputs = pipe._target_inputs_with_transfer()
                start = time.monotonic()
                for seed in pipe.config.seeds:
                    pipe._train_one(inputs, seed)
                elapsed = time.monotonic() - start
            assert elapsed < 300.0, f"fixture training took {elapsed:.0f}s"
