"""End-to-end pipeline tests: dependencies, caching, determinism, CLI."""

import dataclasses
import json
import logging
import math
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multitap.diffkit as diffkit_mod
import multitap.idh as idh_mod
import multitap.pipeline as pipeline_mod
from multitap import cli as cli_mod
from multitap.cli import main
from multitap.diffkit import checkpoint_manifest_path, load_checkpoint
from multitap.errors import ClientError, DependencyError
from multitap.persona import JsonCache
from multitap.persona.clients import ClientSettings, build_clients
from multitap.pipeline import NODES, STAGES, Pipeline, PipelineConfig, stages_through
from multitap.util import read_json, write_json

import oracles
from conftest import small_config_dict

GOLDEN = Path(__file__).parent / "golden" / "smoke_report.json"
RUN_STAGES = ["ingest", "split", "idh", "persona", "pretrain", "train", "eval"]


def build_pipeline(paths, run_dir, cache_dir=None) -> Pipeline:
    config = PipelineConfig.from_dict(small_config_dict(paths, run_dir, cache_dir))
    return Pipeline(config)


def copy_inputs(paths, directory: Path):
    """Copies of the four input files under `directory`, as fixture paths."""
    directory.mkdir(parents=True)
    copies = {}
    for f in dataclasses.fields(paths):
        copies[f.name] = directory / Path(getattr(paths, f.name)).name
        shutil.copyfile(getattr(paths, f.name), copies[f.name])
    return type(paths)(**copies)


class TestDependencies:
    def test_stage_without_inputs_names_prerequisite(self, small_fixture, tmp_path):
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        with pytest.raises(DependencyError, match="run 'split' first"):
            pipe.run(["idh"])

    def test_train_requires_persona_and_pretrain(self, small_fixture, tmp_path):
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        pipe.run(["ingest", "split"])
        with pytest.raises(DependencyError):
            pipe.run(["train"])


@pytest.fixture(scope="module")
def completed_run(small_fixture, tmp_path_factory):
    _, paths = small_fixture
    run_dir = tmp_path_factory.mktemp("smoke_run")
    pipe = build_pipeline(paths, run_dir)
    status = pipe.run(["ingest", "split", "idh", "persona", "pretrain", "train", "eval"])
    return pipe, run_dir, status


class TestEndToEnd:
    def test_completes_and_emits_metric_report(self, completed_run):
        pipe, run_dir, status = completed_run
        assert all(v == "ran" for v in status.values())
        report = read_json(run_dir / "eval" / "report.json")
        assert report["split"] == "test"
        assert report["seeds"] == 1
        metrics = {(m["metric"], m["K"]): m for m in report["metrics"]}
        assert ("HR", 5) in metrics and ("NDCG", 5) in metrics
        for m in report["metrics"]:
            assert 0.0 <= m["mean"] <= 1.0

    def test_matches_stored_golden_metrics(self, completed_run):
        _, run_dir, _ = completed_run
        report = read_json(run_dir / "eval" / "report.json")
        golden = read_json(GOLDEN)
        assert len(report["metrics"]) == len(golden["metrics"])
        for got, want in zip(report["metrics"], golden["metrics"]):
            assert got["metric"] == want["metric"] and got["K"] == want["K"]
            assert got["per_seed"] == pytest.approx(want["per_seed"], abs=1e-9)

    def test_rerun_is_cached_and_byte_stable(self, completed_run):
        pipe, run_dir, _ = completed_run
        before = {
            p: p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file()
        }
        status = pipe.run(["ingest", "split", "idh", "persona", "pretrain", "train", "eval"])
        assert all(v == "cached" for v in status.values())
        for p, content in before.items():
            assert p.read_bytes() == content, f"{p} changed on cached rerun"

    def test_artifact_manifests_carry_config_hash(self, completed_run):
        pipe, run_dir, _ = completed_run
        assert len(set(pipe.keys.values())) == len(pipe.keys)
        for stage in RUN_STAGES:
            manifest = read_json(run_dir / stage / "manifest.json")
            assert manifest["stage_key"] == pipe.keys[stage]
        checkpoints = {
            "persona/source/user_vectors.ckpt": "persona",
            "persona/target/item_vectors.ckpt": "persona",
            "backbone/source.ckpt": "pretrain",
            "backbone/target.ckpt": "pretrain",
            "model/source_tables.ckpt": "source",
            "model/target_seed0.ckpt": "train",
        }
        for rel, node in checkpoints.items():
            manifest = read_json(checkpoint_manifest_path(run_dir / rel))
            assert manifest["stage_key"] == pipe.keys[node], rel
        assert read_json(run_dir / "eval" / "report.json")["stage_key"] == pipe.keys["eval"]


class TestDeterminism:
    def test_two_runs_bit_identical_reports_and_checkpoints(
        self, small_fixture, tmp_path
    ):
        _, paths = small_fixture
        stages = ["ingest", "split", "idh", "persona", "pretrain", "train", "eval"]
        pipe_a = build_pipeline(paths, tmp_path / "run_a", tmp_path / "cache_a")
        pipe_b = build_pipeline(paths, tmp_path / "run_b", tmp_path / "cache_b")
        assert pipe_a.hash == pipe_b.hash  # run/cache location excluded from hash
        pipe_a.run(stages)
        pipe_b.run(stages)
        report_a = (tmp_path / "run_a" / "eval" / "report.json").read_bytes()
        report_b = (tmp_path / "run_b" / "eval" / "report.json").read_bytes()
        assert report_a == report_b
        for name in ("target_seed0.ckpt", "source_tables.ckpt"):
            a = (tmp_path / "run_a" / "model" / name).read_bytes()
            b = (tmp_path / "run_b" / "model" / name).read_bytes()
            assert a == b


class TestAblate:
    def test_lambda_sweep_row_count(self, small_fixture, tmp_path):
        _, paths = small_fixture
        config_dict = small_config_dict(paths, tmp_path / "run")
        config_dict["train"].update(max_epochs=4, patience=4)
        config_dict["ablate"] = {"lambda": [round(0.2 * k, 10) for k in range(11)]}
        pipe = Pipeline(PipelineConfig.from_dict(config_dict))
        pipe.run(["ingest", "split", "idh", "persona", "pretrain", "ablate"])
        rows = (tmp_path / "run" / "ablation" / "results.csv").read_text().splitlines()
        assert rows[0].startswith("axis,value,seed")
        assert len(rows) == 1 + 11 * 1  # 11 lambda values x 1 seed

    def test_transfer_and_aggregation_grids(self, small_fixture, tmp_path):
        _, paths = small_fixture
        config_dict = small_config_dict(paths, tmp_path / "run")
        config_dict["train"].update(max_epochs=3, patience=3)
        config_dict["ablate"] = {
            "aggregation": ["self_attn", "mean", "concat"],
            "transfer": ["doppelganger", "direct_id", "direct_persona", "direct_both", "none"],
        }
        pipe = Pipeline(PipelineConfig.from_dict(config_dict))
        pipe.run(["ingest", "split", "idh", "persona", "pretrain", "ablate"])
        rows = (tmp_path / "run" / "ablation" / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + (3 + 5) * 1


class TestCli:
    def test_fixture_then_run_then_missing_dependency_error(self, tmp_path, capsys):
        from multitap.cli import main

        out = tmp_path / "fx"
        assert main(["fixture", "--out", str(out), "--users", "30", "--seed", "3"]) == 0
        config_path = out / "config.json"
        assert config_path.exists()
        # shrink the config for speed, then exercise the dependency error path
        config = json.loads(config_path.read_text())
        config["train"].update(max_epochs=2, patience=2)
        config["gcn"].update(epochs=2, patience=2)
        config["seeds"] = [0]
        config_path.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_path), "--stages", "train"])
        captured = capsys.readouterr()
        assert code == 1
        err = json.loads(captured.err)
        assert err["error"]["type"] == "DependencyError"

    @pytest.mark.parametrize("argv, flag, expected", [
        (["--seed", "-1"], "--seed", "an integer >= 0, got '-1'"),
        (["--users", "-3"], "--users", "an integer >= 1, got '-3'"),
        (["--users", "0"], "--users", "an integer >= 1, got '0'"),
    ])
    def test_fixture_rejects_a_bad_size_or_seed_before_writing(
        self, tmp_path, capsys, argv, flag, expected
    ):
        with pytest.raises(SystemExit) as info:
            main(["fixture", "--out", str(tmp_path / "fx"), *argv])
        assert info.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ArgumentError",
            "message": f"multitap fixture: argument {flag}: expected {expected}",
        }
        assert not (tmp_path / "fx").exists()

    def test_cli_sweep_parsing(self):
        from multitap.cli import _parse_sweep

        axis, values = _parse_sweep("lambda=0:2:0.2")
        assert axis == "lambda"
        assert len(values) == 11
        assert values[0] == 0.0 and values[-1] == 2.0

    @pytest.mark.parametrize(
        "text, grid",
        [("lambda=0:1:0.6", [0.0, 0.6]), ("lambda=0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
         ("lambda=0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]), ("tau=0.5:1:0.5", [0.5, 1.0])],
    )
    def test_sweep_grid_ends_at_or_before_stop(self, text, grid):
        from multitap.cli import _parse_sweep

        assert _parse_sweep(text)[1] == grid

    def test_cli_ingest_and_split(self, small_fixture, tmp_path, capsys):
        from multitap.cli import main
        from multitap.util import write_json

        _, paths = small_fixture
        config_path = tmp_path / "config.json"
        write_json(config_path, small_config_dict(paths, tmp_path / "run"))
        assert main(["split", "--config", str(config_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stages"]["split"] == "ran"
        assert (tmp_path / "run" / "split" / "target.json").exists()


class TestPersonaPhases:
    def test_build_then_generate_then_encode(self, small_fixture, tmp_path):
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        pipe.run(["ingest", "split", "idh"])
        base = tmp_path / "run" / "persona" / "target"
        pipe.stage_persona(phase="build")
        assert (base / "db.json").exists()
        assert not (base / "texts.json").exists()
        assert not pipe._is_done("persona")
        pipe.stage_persona(phase="generate")
        assert (base / "texts.json").exists()
        assert not (base / "user_vectors.ckpt").exists()
        pipe.stage_persona(phase="encode")
        assert (base / "user_vectors.ckpt").exists()
        assert pipe._is_done("persona")

    @pytest.mark.parametrize("phase", ["build", "generate"])
    def test_early_phase_prints_one_object(self, small_fixture, tmp_path, capsys, phase):
        _, paths = small_fixture
        config_path = tmp_path / "config.json"
        write_json(config_path, small_config_dict(paths, tmp_path / "run"))
        code, captured = cli(capsys, "persona", phase, "--config", config_path)
        assert code == 0, captured.err
        assert json.loads(captured.out) == {
            "run_dir": str(tmp_path / "run"),
            "config_hash": Pipeline(PipelineConfig.from_json(config_path)).hash,
            "stages": {"ingest": "ran", "split": "ran"},
            "persona_phase": phase,
        }


class TestEvalOptions:
    def test_single_checkpoint_and_valid_split(self, completed_run, tmp_path):
        pipe, run_dir, _ = completed_run
        import dataclasses

        config = dataclasses.replace(pipe.config, eval_split="valid")
        single = Pipeline(config)
        ckpt = run_dir / "model" / "target_seed0.ckpt"
        single.stage_eval(checkpoint=str(ckpt))
        report = read_json(run_dir / "eval" / "checkpoint_target_seed0.json")
        assert report["split"] == "valid"
        assert report["checkpoint"].endswith("target_seed0.ckpt")
        hr = report["HR"].get("5", report["HR"].get(5))
        assert 0.0 <= hr <= 1.0

    def test_checkpoint_report_does_not_depend_on_path_spelling(
        self, completed_run, tmp_path, monkeypatch
    ):
        pipe, run_dir, _ = completed_run
        ckpt = (run_dir / "model" / "target_seed0.ckpt").resolve()
        out = run_dir / "eval" / "checkpoint_target_seed0.json"
        Pipeline(pipe.config).stage_eval(checkpoint=str(ckpt))
        by_absolute = out.read_bytes()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        relative = os.path.relpath(ckpt, elsewhere)
        assert not Path(relative).is_absolute()
        Pipeline(pipe.config).stage_eval(checkpoint=relative)
        assert out.read_bytes() == by_absolute
        assert read_json(out)["checkpoint"] == "target_seed0.ckpt"


class TestReportPaths:
    def test_bare_checkpoint_reproduces_the_eval_report(self, completed_copy, small_fixture, tmp_path):
        """A checkpoint copied without its manifest scores as in eval."""
        _, paths = small_fixture
        run_dir, _ = completed_copy
        report = read_json(run_dir / "eval" / "report.json")
        want = {m["metric"]: m["per_seed"][0] for m in report["metrics"] if m["K"] == 5}
        bare = tmp_path / "bare.ckpt"
        shutil.copyfile(run_dir / "model" / "target_seed0.ckpt", bare)
        pipe = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir)))
        pipe.stage_eval(checkpoint=str(bare))
        single = read_json(pipe.checkpoint_report_path(bare))
        assert {"HR": single["HR"]["5"], "NDCG": single["NDCG"]["5"]} == want

    def test_checkpoint_eval_and_ablate_reproduce_the_eval_report(self, completed_copy):
        """Eval, a checkpoint eval and ablate's doppelganger row all score the
        seed-0 model through `_test_report`, and agree to the last bit."""
        run_dir, config_path = completed_copy
        pipe = Pipeline(PipelineConfig.from_json(config_path))
        report = read_json(run_dir / "eval" / "report.json")
        want = {m["metric"]: m["per_seed"][0] for m in report["metrics"] if m["K"] == 5}
        ckpt = run_dir / "model" / "target_seed0.ckpt"
        pipe.stage_eval(checkpoint=str(ckpt))
        single = read_json(pipe.checkpoint_report_path(ckpt))
        assert {"HR": single["HR"]["5"], "NDCG": single["NDCG"]["5"]} == want
        assert pipe.run(["ablate"]) == {"ablate": "ran"}
        lines = (run_dir / "ablation" / "results.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        row = next(r for r in rows if (r["axis"], r["value"], r["seed"]) == (
            "transfer", "doppelganger", "0"))
        assert {"HR": float(row["hr@5"]), "NDCG": float(row["ndcg@5"])} == want

    def test_ablate_scores_every_run_with_no_transfer(self, completed_copy, monkeypatch):
        """Ablate builds each scored model on the target's own inputs with
        `transfer: none`, never one that transfers, and writes the rows that
        scoring each run under its transferring trainer gives."""
        run_dir, config_path = completed_copy
        pipe = Pipeline(PipelineConfig.from_json(config_path))
        built, model_cls = [], pipeline_mod.MultiTapModel

        def spy(inputs, cfg, *args):
            built.append((cfg.transfer, inputs.overlap_users))
            return model_cls(inputs, cfg, *args)

        monkeypatch.setattr(pipeline_mod, "MultiTapModel", spy)
        assert pipe.run(["ablate"]) == {"ablate": "ran"}
        assert built == [("none", [])] * 2
        monkeypatch.undo()
        grid = pipeline_mod.ablation_grid(pipe.config.ablate)
        runs = pipe._target_runs("ablate", [(0, over) for *_, over in grid])
        inputs = pipe._target_inputs_with_transfer()
        want = ["axis,value,seed,hr@5,ndcg@5"]
        for (axis, value, _), (seed, cfg, params, _) in zip(grid, runs):
            model = model_cls(inputs, cfg)
            model.store.load_params(params)
            report = pipe._test_report(model, [5])
            want.append(f"{axis},{value},{seed},{report['HR'][5]},{report['NDCG'][5]}")
        assert [cfg.transfer for _, cfg, *_ in runs] == ["doppelganger", "none"]
        assert (run_dir / "ablation" / "results.csv").read_text().splitlines() == want


class TestCliStandaloneIngest:
    def test_ingest_without_config(self, small_fixture, tmp_path, capsys):
        from multitap.cli import main

        _, paths = small_fixture
        code = main(
            [
                "ingest",
                "--domain", "target",
                "--interactions", str(paths.target_interactions),
                "--metadata", str(paths.target_metadata),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["domain"] == "target"
        assert summary["users"] > 0
        assert (tmp_path / "target_ingest.json").exists()

    @pytest.mark.parametrize("flags", [["--domain", "zzz", "--out", "stats"], ["--out", "stats"],
                                       ["--interactions", "i.jsonl", "--metadata", "m.jsonl"]])
    def test_standalone_flags_with_config_are_a_usage_error(
        self, small_fixture, tmp_path, capsys, monkeypatch, flags
    ):
        """They would be ignored: the config's ingest stage would run instead."""
        _, paths = small_fixture
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "config.json", small_config_dict(paths, tmp_path / "run"))
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--config", str(tmp_path / "config.json"), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ArgumentError"
        assert error["message"].endswith(", ".join(f for f in flags if f.startswith("--")))
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.fixture
def completed_copy(completed_run, small_fixture, tmp_path):
    """A private copy of the completed run and a config file that points at it."""
    _, paths = small_fixture
    _, run_dir, _ = completed_run
    shutil.copytree(run_dir, tmp_path / "run")
    config_path = tmp_path / "config.json"
    write_json(config_path, small_config_dict(paths, tmp_path / "run"))
    return tmp_path / "run", config_path


def snapshot(run_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()
    }


def cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


ALL_KEYED = {"split", "idh", "persona", "pretrain", "source", "train", "eval", "ablate"}


class TestStageKeys:
    @pytest.mark.parametrize(
        "edit, changed",
        [
            (lambda c: c["target"].update(domain_id="other"), ALL_KEYED | {"ingest"}),
            (lambda c: c["split"].update(valid_fraction=0.4), ALL_KEYED),
            # the fixture's boundary, 1546300800, spelt as an ISO date and in another zone
            (lambda c: c["split"].update(boundary="2019-01-01"), set()),
            (lambda c: c["split"].update(boundary="2019-01-01T01:00:00+01:00"), set()),
            (lambda c: c.update(criteria=["ps", "qp"]), {"idh"}),
            (lambda c: c.update(report_labels=["high"]), {"idh"}),
            (lambda c: c["client"].update(item_dim=64), {"persona", "source", "train", "eval", "ablate"}),
            (lambda c: c["gcn"].update(epochs=3), {"pretrain", "source", "train", "eval", "ablate"}),
            (lambda c: c["source_train"].update(max_epochs=3), {"source", "train", "eval", "ablate"}),
            (lambda c: c["train"].update(lambda_dpl=1.0), {"train", "eval", "ablate"}),
            # the source model trains the first seed alone
            (lambda c: c.update(seeds=[0, 1]), {"train", "eval", "ablate"}),
            (lambda c: c.update(seeds=[1]), {"source", "train", "eval", "ablate"}),
            (lambda c: c.update(eval_ks=[5, 10]), {"eval"}),
            (lambda c: c.update(ablate={"lambda": [0.0, 1.0]}), {"ablate"}),
        ],
        ids=["target.domain_id", "split.valid_fraction", "split.boundary_date",
             "split.boundary_zoned", "criteria", "report_labels",
             "client.item_dim", "gcn.epochs",
             "source_train.max_epochs", "train.lambda_dpl", "seeds_added", "first_seed",
             "eval_ks", "ablate"],
    )
    def test_field_changes_exactly_its_downstream_keys(self, small_fixture, tmp_path, edit, changed):
        _, paths = small_fixture
        base = PipelineConfig.from_dict(small_config_dict(paths, tmp_path / "a")).stage_keys()
        config = small_config_dict(paths, tmp_path / "b", tmp_path / "cache_b")
        edit(config)
        keys = PipelineConfig.from_dict(config).stage_keys()
        assert {node for node in keys if keys[node] != base[node]} == changed


PERSONA_ON = {"persona", "source", "train", "eval", "ablate"}
# deployment settings: how the clients are reached and batched, never what they return
DEPLOYMENT = [("parallelism", 2), ("chunk_size", 7), ("endpoint", "http://localhost:9/v2")]
REMOTE_OUTPUT = [("chat_model", "chat-x"), ("persona_temperature", 0.2),
                 ("description_temperature", 0.9), ("embed_model", "emb-y")]
# the encoders' widths, which size the encoders of either mode
WIDTHS = [("persona_dim", 64), ("item_dim", 64)]
CLIENT_KEY_CASES = [
    *[("offline", f, v, PERSONA_ON) for f, v in [("mode", "remote"), *WIDTHS]],
    *[("remote", f, v, PERSONA_ON) for f, v in REMOTE_OUTPUT + WIDTHS],
    *[("offline", f, v, set()) for f, v in DEPLOYMENT + REMOTE_OUTPUT],
    *[("remote", f, v, set()) for f, v in DEPLOYMENT],
    # a width written out at the mode's default is the same width
    ("offline", "persona_dim", 256, set()),
    ("remote", "item_dim", 512, set()),
    # a temperature written as an integer is the same temperature
    ("remote", "description_temperature", 1, set()),
]


class TestClientSettingsInKeys:
    @pytest.mark.parametrize("mode, field, value, changed", CLIENT_KEY_CASES,
                             ids=[f"{m}-{f}={v!r}" for m, f, v, _ in CLIENT_KEY_CASES])
    def test_only_settings_that_change_outputs_key_persona(
        self, small_fixture, tmp_path, mode, field, value, changed
    ):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["client"]["mode"] = mode
        base = Pipeline(PipelineConfig.from_dict(config))
        config["client"][field] = value
        pipe = Pipeline(PipelineConfig.from_dict(config))
        assert {node for node in pipe.keys if pipe.keys[node] != base.keys[node]} == changed
        # the run hash is made of the keys: it moves exactly when one of them does
        assert (pipe.hash != base.hash) == bool(changed)

    @pytest.mark.parametrize("field, value", DEPLOYMENT + REMOTE_OUTPUT[:2],
                             ids=[f for f, _ in DEPLOYMENT + REMOTE_OUTPUT[:2]])
    def test_offline_run_is_served_whole_after_a_setting_it_ignores(
        self, completed_copy, small_fixture, field, value
    ):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        before = snapshot(run_dir)
        config = small_config_dict(paths, run_dir)
        config["client"][field] = value
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert status == {s: "cached" for s in RUN_STAGES}
        assert snapshot(run_dir) == before

    def test_moved_inputs_keep_every_stage_cached(self, completed_copy, small_fixture, tmp_path):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        before = snapshot(run_dir)
        moved = copy_inputs(paths, tmp_path / "moved")
        pipe = Pipeline(PipelineConfig.from_dict(small_config_dict(moved, run_dir)))
        assert pipe.hash == Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir))).hash
        status = pipe.run(RUN_STAGES)
        assert status == {s: "cached" for s in RUN_STAGES}
        assert snapshot(run_dir) == before


class TestStageReuse:
    def test_lambda_rerun_matches_cold_run(self, completed_copy, small_fixture, tmp_path):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        configs = {}
        for name, directory in (("reuse", run_dir), ("cold", tmp_path / "cold")):
            configs[name] = small_config_dict(paths, directory)
            configs[name]["train"]["lambda_dpl"] = 1.0
        status = Pipeline(PipelineConfig.from_dict(configs["reuse"])).run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES[:5]}, "train": "ran", "eval": "ran"}
        Pipeline(PipelineConfig.from_dict(configs["cold"])).run(RUN_STAGES)
        reused = snapshot(run_dir)
        cold = {rel: data for rel, data in snapshot(tmp_path / "cold").items()
                if not rel.startswith("cache/")}
        assert "eval/report.json" in cold and "model/target_seed0.ckpt" in cold
        for rel, data in cold.items():
            assert reused[rel] == data, f"{rel} differs from a cold run of the same config"

    def test_served_run_reads_each_record_once(self, completed_copy, monkeypatch):
        """One pass shares its done checks: a run that serves every stage reads
        each stage's record once, not once more for every stage downstream."""
        run_dir, config_path = completed_copy
        pipe = Pipeline(PipelineConfig.from_json(config_path))
        reads = []

        def counted(path):
            reads.append(Path(path).relative_to(run_dir).as_posix())
            return read_json(path)

        monkeypatch.setattr(pipeline_mod, "read_json", counted)
        status = pipe.run(RUN_STAGES)
        assert status == dict.fromkeys(RUN_STAGES, "cached")
        assert sorted(reads) == sorted(f"{stage}/manifest.json" for stage in RUN_STAGES)

        # a pass that reruns train and eval checks each served record once too:
        # neither a stage's dependency check nor the source model's reads it again
        config = read_json(config_path)
        config["train"]["lambda_dpl"] = 0.7
        reads.clear()
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert {s for s, v in status.items() if v == "ran"} == {"train", "eval"}
        for stage in ("ingest", "split", "persona", "pretrain"):
            assert reads.count(f"{stage}/manifest.json") == 1, (stage, reads)

    @pytest.mark.parametrize(
        "argv, ran, downstream",
        [
            (["persona"], set(), ()),
            (["train", "--lambda", "1.0"], {"train"}, ("train/", "model/target_", "model/metrics_")),
            (["eval", "--k", "5,10"], {"eval"}, ("eval/",)),
            (["eval", "--split", "valid"], {"eval"}, ("eval/",)),
        ],
        ids=["persona", "train-lambda", "eval-k", "eval-split"],
    )
    def test_cli_override_reruns_only_downstream(self, completed_copy, capsys, argv, ran, downstream):
        run_dir, config_path = completed_copy
        before = snapshot(run_dir)
        code, captured = cli(capsys, argv[0], "--config", config_path, *argv[1:])
        assert code == 0, captured.err
        status = json.loads(captured.out)["stages"]
        assert {s for s, v in status.items() if v == "ran"} == ran
        assert {s for s, v in status.items() if v != "ran"} == set(status) - ran
        after = snapshot(run_dir)
        for rel, data in before.items():
            if not rel.startswith(downstream):
                assert after[rel] == data, f"{rel} changed"

    def test_pretrain_change_is_never_served_as_cached(self, completed_copy, capsys):
        run_dir, config_path = completed_copy
        original = snapshot(run_dir)
        code, captured = cli(capsys, "pretrain", "--config", config_path, "--epochs", "1")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["pretrain"] == "ran"
        # train and eval under the original config were built on the old backbone
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", "train,eval")
        assert code == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "DependencyError" and "'pretrain'" in error["message"]
        ckpt = run_dir / "model" / "target_seed0.ckpt"
        code, captured = cli(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
        assert code == 1
        assert json.loads(captured.err)["error"]["type"] == "DependencyError"
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", ",".join(RUN_STAGES))
        assert code == 0, captured.err
        # rebuilding the original backbone makes the original train and eval valid again
        status = json.loads(captured.out)["stages"]
        assert status == {**{s: "cached" for s in RUN_STAGES}, "pretrain": "ran"}
        restored = snapshot(run_dir)
        for rel in ("backbone/target.ckpt", "model/source_tables.ckpt", "model/target_seed0.ckpt",
                    "eval/report.json"):
            assert restored[rel] == original[rel], rel

    def test_missing_artifact_reruns_its_stage(self, completed_copy, small_fixture):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        original = (run_dir / "backbone" / "target.ckpt").read_bytes()
        (run_dir / "backbone" / "target.ckpt").unlink()
        pipe = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir)))
        assert not pipe._is_done("pretrain") and not pipe._is_done("train")
        status = pipe.run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "pretrain": "ran"}
        assert (run_dir / "backbone" / "target.ckpt").read_bytes() == original

    def test_truncated_checkpoint_reruns_its_stage(self, completed_copy, small_fixture):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        original = snapshot(run_dir)
        with open(run_dir / "backbone" / "target.ckpt", "r+b") as fh:
            fh.truncate(100)
        pipe = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir)))
        assert not pipe._is_done("pretrain") and not pipe._is_done("eval")
        status = pipe.run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "pretrain": "ran"}
        assert snapshot(run_dir) == original

    def test_damaged_cache_shard_is_recomputed(self, completed_copy, small_fixture, caplog):
        """A cut-short vector shard holds nothing: persona encodes its entries
        again and writes the shard back whole."""
        _, paths = small_fixture
        run_dir, _ = completed_copy
        original = snapshot(run_dir)
        shard = sorted((run_dir / "cache" / "vectors").glob("*.pack"))[0]
        with open(shard, "r+b") as fh:
            fh.truncate(100)
        (run_dir / "persona" / "manifest.json").unlink()
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            status = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir))).run(
                RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "persona": "ran"}
        assert str(shard) in caplog.text
        assert snapshot(run_dir) == original

    @pytest.mark.parametrize(
        "record", ["train/manifest.json", "source/manifest.json"],
        ids=["stage", "source"],
    )
    def test_record_without_file_list_is_rebuilt(self, completed_copy, small_fixture, record):
        """A record an older version wrote holds no file list: its node is
        rebuilt, here inside train, and comes back byte-identical.  The source
        model is a leaf that train reads, so train's record goes too."""
        _, paths = small_fixture
        run_dir, _ = completed_copy
        original = snapshot(run_dir)
        old = read_json(run_dir / record)
        del old["files"]
        write_json(run_dir / record, old)
        if record.startswith("source/"):
            (run_dir / "train" / "manifest.json").unlink()
        status = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir))).run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "train": "ran"}
        assert snapshot(run_dir) == original

    def test_interrupted_rebuild_is_never_served_as_cached(
        self, completed_copy, small_fixture, monkeypatch
    ):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        original = snapshot(run_dir)
        pretrain = pipeline_mod.pretrain_id_embeddings
        calls = []

        def fail_on_second_domain(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return pretrain(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "pretrain_id_embeddings", fail_on_second_domain)
        changed = small_config_dict(paths, run_dir)
        changed["gcn"]["epochs"] = 1
        with pytest.raises(RuntimeError, match="interrupted"):
            Pipeline(PipelineConfig.from_dict(changed)).run(RUN_STAGES)
        monkeypatch.undo()
        manifest = "backbone/source.ckpt.manifest.json"
        assert snapshot(run_dir)[manifest] != original[manifest]  # half rebuilt
        pipe = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir)))
        status = pipe.run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "pretrain": "ran"}
        assert snapshot(run_dir)[manifest] == original[manifest]

    def test_checkpoint_eval_leaves_stage_to_plain_eval(self, completed_copy, capsys):
        run_dir, config_path = completed_copy
        aggregate = (run_dir / "eval" / "report.json").read_bytes()
        shutil.rmtree(run_dir / "eval")
        ckpt = run_dir / "model" / "target_seed0.ckpt"
        code, captured = cli(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
        assert code == 0, captured.err
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", "eval")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"] == {"eval": "ran"}
        assert (run_dir / "eval" / "report.json").read_bytes() == aggregate
        assert read_json(run_dir / "eval" / "checkpoint_target_seed0.json")["checkpoint"] == ckpt.name


def count_trainings(monkeypatch) -> dict[str, list]:
    """What the pipeline trains from now on, by trainer: "target", the
    (trainer, seed) of every target run (a `train_target` call from
    `Pipeline._train_one`); "source", the seed of every source-model training
    (any other `train_target` call); "pretrain", the `gcn` section of every
    `pretrain_id_embeddings` call."""
    calls = {"target": [], "source": [], "pretrain": []}
    train, pretrain = pipeline_mod.train_target, pipeline_mod.pretrain_id_embeddings

    def counted_train(inputs, *args):
        if sys._getframe(1).f_code.co_name == "_train_one":
            calls["target"].append(args[-2:])
        else:
            calls["source"].append(args[-1])
        return train(inputs, *args)

    def counted_pretrain(split, config, *args):
        calls["pretrain"].append(config)
        return pretrain(split, config, *args)

    monkeypatch.setattr(pipeline_mod, "train_target", counted_train)
    monkeypatch.setattr(pipeline_mod, "pretrain_id_embeddings", counted_pretrain)
    return calls


def run_shards(run_dir: Path, trainer: str) -> list[Path]:
    """The shards of the run store that hold `trainer`'s entries: "backbone"
    (tensors `user_vecs`, `item_vecs`), "source" (`h_users`, `v_users`) or
    "target" (a target model's parameters)."""
    marks = {"backbone": "user_vecs", "source": "h_users"}

    def holds(path: Path) -> str:
        _, records = diffkit_mod.read_container(path)
        names = {n for record in records.values() for n in record["params"]}
        return next((t for t, mark in marks.items() if mark in names), "target")

    return [p for p in sorted((run_dir / "cache" / "runs").glob("*.pack")) if holds(p) == trainer]


def model_files(run_dir: Path) -> dict[str, bytes]:
    return {rel: data for rel, data in snapshot(run_dir).items() if rel.startswith("model/")}


class TestRunStore:
    """Train and ablate take their target runs from one run store under cache/runs/."""

    def test_ablate_after_train_trains_only_the_runs_train_did_not(
        self, small_fixture, tmp_path, monkeypatch
    ):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["seeds"] = [0, 1, 2, 3, 4]
        pipe = Pipeline(PipelineConfig.from_dict(config))
        calls = count_trainings(monkeypatch)["target"]
        pipe.run(RUN_STAGES)
        assert len(calls) == 5
        calls.clear()
        assert pipe.run(["ablate"]) == {"ablate": "ran"}
        # the default grid is doppelganger vs none: train made every doppelganger run
        assert [(cfg.transfer, seed) for cfg, seed in calls] == [("none", s) for s in range(5)]
        report = read_json(tmp_path / "run" / "eval" / "report.json")
        per_seed = next(m["per_seed"] for m in report["metrics"]
                        if (m["metric"], m["K"]) == ("HR", 5))
        lines = (tmp_path / "run" / "ablation" / "results.csv").read_text().splitlines()
        served = [float(line.split(",")[3]) for line in lines[1:] if ",doppelganger," in line]
        assert served == per_seed

    def test_ablate_lambda_written_as_an_integer_is_served_from_train(
        self, small_fixture, tmp_path, monkeypatch
    ):
        """`1` and `1.0` are one lambda, so one run: ablate trains nothing."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["train"]["lambda_dpl"] = 1
        config["ablate"] = {"lambda": [1]}
        pipe = Pipeline(PipelineConfig.from_dict(config))
        pipe.run(RUN_STAGES)
        calls = count_trainings(monkeypatch)
        assert pipe.run(["ablate"]) == {"ablate": "ran"}
        assert calls == {"target": [], "source": [], "pretrain": []}

    def test_train_moved_back_to_an_earlier_lambda_trains_nothing(
        self, completed_copy, capsys, monkeypatch
    ):
        run_dir, config_path = completed_copy
        assert read_json(config_path)["train"]["lambda_dpl"] == 1.4
        first = model_files(run_dir)
        code, captured = cli(capsys, "train", "--config", config_path, "--lambda", "1.0")
        assert code == 0, captured.err
        assert model_files(run_dir) != first
        calls = count_trainings(monkeypatch)["target"]
        code, captured = cli(capsys, "train", "--config", config_path, "--lambda", "1.4")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["train"] == "ran"
        assert calls == []
        assert model_files(run_dir) == first

    def test_damaged_run_shard_is_trained_again(
        self, completed_copy, small_fixture, tmp_path, caplog, monkeypatch
    ):
        _, paths = small_fixture
        run_dir, config_path = completed_copy
        intact = tmp_path / "intact"
        shutil.copytree(run_dir, intact)
        Pipeline(PipelineConfig.from_dict(small_config_dict(paths, intact))).run(["ablate"])
        (shard,) = run_shards(run_dir, "target")  # train's one run
        with open(shard, "r+b") as fh:
            fh.truncate(100)
        calls = count_trainings(monkeypatch)["target"]
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            assert Pipeline(PipelineConfig.from_json(config_path)).run(["ablate"]) == {
                "ablate": "ran"}
        assert [(cfg.transfer, seed) for cfg, seed in calls] == [("doppelganger", 0), ("none", 0)]
        assert str(shard) in caplog.text
        results = "ablation/results.csv"
        assert (run_dir / results).read_bytes() == (intact / results).read_bytes()

    def test_run_shard_cut_short_in_its_tensors_is_trained_again(
        self, completed_copy, caplog, monkeypatch
    ):
        """The shard's header, which holds the run records, still reads; its
        tensors do not, so the run is trained again in the same call."""
        run_dir, config_path = completed_copy
        original = model_files(run_dir)
        (shard,) = run_shards(run_dir, "target")  # train's one run
        with open(shard, "r+b") as fh:
            fh.truncate(shard.stat().st_size - 1000)
        (run_dir / "train" / "manifest.json").unlink()
        calls = count_trainings(monkeypatch)["target"]
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            assert Pipeline(PipelineConfig.from_json(config_path)).run(["train"]) == {
                "train": "ran"}
        assert str(shard) in caplog.text
        assert [(cfg.transfer, seed) for cfg, seed in calls] == [("doppelganger", 0)]
        assert model_files(run_dir) == original

    def test_damaged_run_shard_is_deleted_after_its_warning(self, completed_copy, caplog):
        run_dir, config_path = completed_copy
        (shard,) = run_shards(run_dir, "target")  # train's one run
        with open(shard, "r+b") as fh:
            fh.truncate(100)
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            assert Pipeline(PipelineConfig.from_json(config_path)).run(["ablate"]) == {
                "ablate": "ran"}
        assert str(shard) in caplog.text
        assert not shard.exists()
        # the retrained runs went to a new shard, and no lookup warns again
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            assert JsonCache(run_dir / "cache" / "runs").get(["absent"]) is None
        assert caplog.text == ""
        assert len(run_shards(run_dir, "target")) == 1

    def test_first_seed_away_and_back_serves_the_source_tables(
        self, completed_copy, capsys, monkeypatch
    ):
        run_dir, config_path = completed_copy
        assert read_json(config_path)["seeds"] == [0]
        first = model_files(run_dir)
        calls = count_trainings(monkeypatch)
        code, captured = cli(capsys, "train", "--config", config_path, "--seed", "1")
        assert code == 0, captured.err
        assert calls["source"] == [1]
        assert read_json(checkpoint_manifest_path(run_dir / "model" / "source_tables.ckpt"))[
            "seed"] == 1
        shards = sorted((run_dir / "cache" / "runs").glob("*.pack"))
        code, captured = cli(capsys, "train", "--config", config_path)
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["train"] == "ran"
        assert calls["source"] == [1] and [seed for _, seed in calls["target"]] == [1]
        assert sorted((run_dir / "cache" / "runs").glob("*.pack")) == shards
        assert model_files(run_dir) == first

    def test_train_tau_trains_no_source_model_without_source_train(
        self, small_fixture, tmp_path, capsys, monkeypatch
    ):
        """With no `source_train`, the source model trains on `train` with
        transfer off, which reads no tau: a new `train.tau` retrains the
        target runs alone."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        del config["source_train"]
        config_path = tmp_path / "config.json"
        write_json(config_path, config)
        code, captured = cli(capsys, "train", "--config", config_path)
        assert code == 0, captured.err
        calls = count_trainings(monkeypatch)
        code, captured = cli(capsys, "train", "--config", config_path, "--tau", "0.3")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["train"] == "ran"
        assert calls["source"] == [] and [cfg.tau for cfg, _ in calls["target"]] == [0.3]

    def test_source_trainer_change_serves_the_runs_that_transfer_nothing(
        self, small_fixture, tmp_path, monkeypatch
    ):
        """A run that transfers nothing reads no source model: a new
        `source_train` trains nothing, and ablate with `none` points alone is
        served whole."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config.update(seeds=[0, 1], ablate={"transfer": ["none"]})
        Pipeline(PipelineConfig.from_dict(config)).run(["ingest", "split", "persona", "pretrain",
                                                        "ablate"])
        results = (tmp_path / "run" / "ablation" / "results.csv").read_bytes()
        config["source_train"]["learning_rate"] *= 2
        calls = count_trainings(monkeypatch)
        assert Pipeline(PipelineConfig.from_dict(config)).run(["ablate"]) == {"ablate": "cached"}
        assert calls["source"] == [] and calls["target"] == []
        assert (tmp_path / "run" / "ablation" / "results.csv").read_bytes() == results

    def test_ablate_none_is_served_from_train_none_at_any_lambda(
        self, small_fixture, tmp_path, monkeypatch
    ):
        """`train.transfer: none` reads no lambda, so ablate's `none` point
        is train's run whatever lambda train sets."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["train"]["transfer"] = "none"
        assert config["train"]["lambda_dpl"] == 1.4
        config.update(seeds=[0, 1], ablate={"transfer": ["none"]})
        pipe = Pipeline(PipelineConfig.from_dict(config))
        pipe.run(RUN_STAGES)
        calls = count_trainings(monkeypatch)
        assert pipe.run(["ablate"]) == {"ablate": "ran"}
        assert calls == {"target": [], "source": [], "pretrain": []}
        report = read_json(tmp_path / "run" / "eval" / "report.json")
        per_seed = next(m["per_seed"] for m in report["metrics"]
                        if (m["metric"], m["K"]) == ("HR", 5))
        lines = (tmp_path / "run" / "ablation" / "results.csv").read_text().splitlines()
        assert [float(line.split(",")[3]) for line in lines[1:]] == per_seed

    def test_unset_persona_width_is_the_encoder_width(self, small_fixture, tmp_path, monkeypatch):
        """An unset `persona_out_dim` is the persona encoder's width (256 in
        offline mode), so writing that width out reruns no stage."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["seeds"] = [0, 1]
        config["train"]["persona_out_dim"] = None
        Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        tensors = {rel: data for rel, data in model_files(tmp_path / "run").items()
                   if rel.endswith((".ckpt", ".jsonl"))}
        config["train"]["persona_out_dim"] = 256
        calls = count_trainings(monkeypatch)
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert status == {s: "cached" for s in RUN_STAGES}
        assert calls == {"target": [], "source": [], "pretrain": []}
        assert {rel: (tmp_path / "run" / rel).read_bytes() for rel in tensors} == tensors

    def test_transfer_at_lambda_zero_is_the_run_with_no_transfer(
        self, small_fixture, tmp_path, caplog, monkeypatch
    ):
        """`transfer: none` and `lambda: 0.0` in one grid are one run per
        seed: each is trained once, served to the other point, and logged
        as such on `multitap.pipeline`; neither reads a source model."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config.update(seeds=[0, 1], ablate={"transfer": ["none"], "lambda": [0.0]})
        pipe = Pipeline(PipelineConfig.from_dict(config))
        pipe.run(["ingest", "split", "persona", "pretrain"])
        calls = count_trainings(monkeypatch)
        with caplog.at_level(logging.INFO, logger="multitap.pipeline"):
            assert pipe.run(["ablate"]) == {"ablate": "ran"}
        assert [(cfg.transfer, seed) for cfg, seed in calls["target"]] == [("none", 0), ("none", 1)]
        assert calls["source"] == []
        runs = [m.split() for m in caplog.messages if m.startswith("run ")]
        assert [status for *_, status in runs] == ["trained"] * 2 + ["served"] * 2
        assert [key for _, key, _ in runs] == [key for _, key, _ in runs[:2]] * 2
        lines = (tmp_path / "run" / "ablation" / "results.csv").read_text().splitlines()
        metrics = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in lines[1:]}
        for seed in ("0", "1"):
            assert metrics["transfer", "none", seed] == metrics["lambda", "0.0", seed]

    def test_gcn_change_and_back_serves_both_backbones(self, completed_copy, capsys, monkeypatch):
        run_dir, config_path = completed_copy
        assert read_json(config_path)["gcn"]["epochs"] == 15
        backbones = {rel: data for rel, data in snapshot(run_dir).items()
                     if rel.startswith("backbone/")}
        assert len(backbones) == 4
        calls = count_trainings(monkeypatch)
        code, captured = cli(capsys, "pretrain", "--config", config_path, "--epochs", "2")
        assert code == 0, captured.err
        assert [gcn.epochs for gcn in calls["pretrain"]] == [2, 2]
        assert {rel: (run_dir / rel).read_bytes() for rel in backbones} != backbones
        shards = sorted((run_dir / "cache" / "runs").glob("*.pack"))
        code, captured = cli(capsys, "pretrain", "--config", config_path)
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["pretrain"] == "ran"
        assert [gcn.epochs for gcn in calls["pretrain"]] == [2, 2]
        assert sorted((run_dir / "cache" / "runs").glob("*.pack")) == shards
        assert {rel: (run_dir / rel).read_bytes() for rel in backbones} == backbones

    @pytest.mark.parametrize("trainer, stage", [("source", "train"), ("backbone", "pretrain")])
    @pytest.mark.parametrize("cut", ["header", "tensors"])
    def test_cut_short_entry_is_trained_again(
        self, completed_copy, caplog, monkeypatch, trainer, stage, cut
    ):
        """A source or backbone entry whose shard is cut short is trained
        again when its node rebuilds, and the shard and the node's files come
        back byte-identical; the other backbone side is served.  The source
        model is a leaf that train reads, so train's record goes too."""
        run_dir, config_path = completed_copy
        original = snapshot(run_dir)
        shard = run_shards(run_dir, trainer)[0]
        with open(shard, "r+b") as fh:
            fh.truncate(100 if cut == "header" else shard.stat().st_size - 1000)
        node = "source" if trainer == "source" else "pretrain"
        for record in {node, stage}:
            (run_dir / record / "manifest.json").unlink()
        calls = count_trainings(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
            status = Pipeline(PipelineConfig.from_json(config_path)).run(RUN_STAGES)
        assert str(shard) in caplog.text
        assert status == {**{s: "cached" for s in RUN_STAGES}, stage: "ran"}
        trained = {"source": len(calls["source"]), "backbone": len(calls["pretrain"])}
        assert trained == {t: int(t == trainer) for t in trained}
        assert calls["target"] == []
        assert snapshot(run_dir) == original


def undeclared_files(pipe: Pipeline) -> dict[str, list[str]]:
    """Every file outside cache/ that is neither a manifest nor under exactly
    one node's declared artifacts, with the nodes that declare it."""
    declared = {node: pipe.artifact_paths(node) for node in NODES}
    manifests = {pipe.run_dir / node / "manifest.json" for node in NODES} | {
        checkpoint_manifest_path(p) for ps in declared.values() for p in ps if p.suffix == ".ckpt"
    }
    files = [p for p in pipe.run_dir.rglob("*")
             if p.is_file() and p.relative_to(pipe.run_dir).parts[0] != "cache"]
    assert any(p.parent.name == "report" for p in files)
    owners = {
        str(p.relative_to(pipe.run_dir)): [
            node for node, ps in declared.items() if any(a == p or a in p.parents for a in ps)
        ]
        for p in files if p not in manifests
    }
    return {rel: nodes for rel, nodes in owners.items() if len(nodes) != 1}


class TestNodeTable:
    def test_every_run_dir_file_is_declared(self, small_fixture, tmp_path, monkeypatch):
        """After a run plus ablate, every file outside cache/ is a manifest
        or lies under exactly one node's declared artifacts, and every
        checkpoint outside cache/ is read later in the run.  Retraining on
        fewer seeds leaves no file of a dropped seed."""
        read = set()

        def recording(read_container):
            def wrapper(path, *args, **kwargs):
                read.add(Path(path))
                return read_container(path, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(diffkit_mod, "read_container", recording(diffkit_mod.read_container))
        monkeypatch.setattr(pipeline_mod, "read_container", recording(pipeline_mod.read_container))
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        pipe.run(RUN_STAGES + ["ablate"])
        assert undeclared_files(pipe) == {}
        checkpoints = {p for p in pipe.run_dir.rglob("*.ckpt")
                       if p.relative_to(pipe.run_dir).parts[0] != "cache"}
        assert sorted(str(p.relative_to(pipe.run_dir)) for p in checkpoints - read) == []

        config = small_config_dict(paths, tmp_path / "run")
        Pipeline(PipelineConfig.from_dict({**config, "seeds": [0, 1]})).run(["train"])
        assert (pipe.run_dir / "model" / "target_seed1.ckpt").exists()
        pipe = Pipeline(PipelineConfig.from_dict(config))
        assert pipe.run(["train"]) == {"train": "ran"}
        assert undeclared_files(pipe) == {}
        assert not list(pipe.run_dir.glob("model/*seed1*"))

    def test_deleted_report_reruns_idh_alone(self, completed_copy, small_fixture):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        report = run_dir / "idh" / "source" / "report"
        original = snapshot(report)
        assert "preservation_summary.json" in original
        shutil.rmtree(report)
        status = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir))).run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "idh": "ran"}
        assert snapshot(report) == original

    def test_one_deleted_report_file_reruns_idh_alone(self, completed_copy, small_fixture):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        report = run_dir / "idh" / "source" / "report"
        original = snapshot(run_dir)
        (report / "preservation_pb_low.csv").unlink()
        status = Pipeline(PipelineConfig.from_dict(small_config_dict(paths, run_dir))).run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "idh": "ran"}
        assert snapshot(run_dir) == original

    def test_dropped_criterion_leaves_no_stale_report(
        self, completed_copy, small_fixture, tmp_path, capsys
    ):
        _, paths = small_fixture
        run_dir, config_path = completed_copy
        assert (run_dir / "idh" / "source" / "report" / "preservation_pb_high.csv").exists()
        cold_path = tmp_path / "cold.json"
        write_json(cold_path, small_config_dict(paths, tmp_path / "cold"))
        for path in (config_path, cold_path):
            code, captured = cli(capsys, "idh", "--config", path, "--criteria", "ps,qp")
            assert code == 0, captured.err
        reused = snapshot(run_dir / "idh")
        assert reused == snapshot(tmp_path / "cold" / "idh")
        assert not [rel for rel in reused if "_pb_" in rel]


class TestBeginRemovesRecordedFiles:
    """A node that starts removes the files its last record lists, but only
    files inside the run dir and outside its cache/: records are read from disk."""

    def test_listed_files_inside_the_run_dir_go(self, small_fixture, tmp_path):
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        outside = tmp_path / "outside.txt"
        for path in (outside, pipe.run_dir / "ingest" / "old.txt",
                     pipe.run_dir / "cache" / "shard.txt", pipe.run_dir / "unlisted.txt"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x")
        (pipe.run_dir / "link.txt").symlink_to(outside)
        listed = ["ingest/old.txt", "cache/shard.txt", "../outside.txt", str(outside),
                  "link.txt", "ingest", "absent.txt", 3]
        write_json(pipe.run_dir / "ingest" / "manifest.json", {"files": listed})
        pipe._begin("ingest")
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert left == ["outside.txt", "run/cache/shard.txt", "run/link.txt", "run/unlisted.txt"]

    @pytest.mark.parametrize("record", ['{"files": {"ingest/summary.json": 1}',
                                        '{"stage": "ingest"}', '{"files": "ingest"}', "[]"])
    def test_unreadable_or_fileless_record_removes_nothing(self, small_fixture, tmp_path, record):
        _, paths = small_fixture
        pipe = build_pipeline(paths, tmp_path / "run")
        summary = pipe.run_dir / "ingest" / "summary.json"
        summary.parent.mkdir(parents=True)
        summary.write_text("{}")
        (pipe.run_dir / "ingest" / "manifest.json").write_text(record)
        pipe._begin("ingest")
        assert summary.exists()
        assert not (pipe.run_dir / "ingest" / "manifest.json").exists()


class TestIdhIsALeaf:
    """Persona labels users from the split itself, so what idh reports on
    reaches idh alone."""

    def test_train_does_not_request_idh(self):
        assert "idh" not in stages_through("train")

    @pytest.mark.parametrize(
        "edit", [lambda c: c.update(report_labels=["high"]), lambda c: c.update(criteria=["ps"])],
        ids=["report_labels", "criteria"],
    )
    def test_report_setting_reruns_idh_alone(self, completed_copy, small_fixture, edit):
        _, paths = small_fixture
        run_dir, _ = completed_copy
        before = snapshot(run_dir)
        config = small_config_dict(paths, run_dir)
        edit(config)
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert status == {**{s: "cached" for s in RUN_STAGES}, "idh": "ran"}
        after = snapshot(run_dir)
        assert {rel for rel in before.keys() | after.keys()
                if before.get(rel) != after.get(rel) and not rel.startswith("idh/")} == set()

    def test_single_criterion_run_matches_the_default_outside_idh(
        self, completed_run, small_fixture, tmp_path
    ):
        _, paths = small_fixture
        _, run_dir, _ = completed_run
        config = small_config_dict(paths, tmp_path / "ps")
        config["criteria"] = ["ps"]
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert status == {s: "ran" for s in RUN_STAGES}
        single, default = snapshot(tmp_path / "ps"), snapshot(run_dir)
        assert {rel: data for rel, data in single.items() if rel.startswith("persona/")} == {
            rel: data for rel, data in default.items() if rel.startswith("persona/")}
        assert "eval/report.json" in single
        for rel, data in single.items():
            if not rel.startswith("idh/"):
                assert default[rel] == data, f"{rel} differs from the default-criteria run"


def no_transfer_run(small_fixture, run_dir: Path) -> dict:
    """The small config with `train.transfer: none`, run cold through eval."""
    _, paths = small_fixture
    config = small_config_dict(paths, run_dir)
    config["train"]["transfer"] = "none"
    assert Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES) == {
        s: "ran" for s in RUN_STAGES}
    return config


class TestSourceIsALeaf:
    """Only a run that transfers reads the source model, so train and ablate
    build it for such a run alone, and eval never reads it."""

    def test_train_and_ablate_do_not_consume_the_source_model(self):
        assert NODES["train"].upstream == NODES["ablate"].upstream == ("persona", "pretrain")
        assert not any("source" in node.upstream for node in NODES.values())

    def test_cold_run_that_transfers_nothing_trains_no_source_model(
        self, small_fixture, tmp_path, monkeypatch
    ):
        calls = count_trainings(monkeypatch)
        no_transfer_run(small_fixture, tmp_path / "run")
        assert calls["source"] == [] and len(calls["target"]) == 1
        assert not (tmp_path / "run" / "model" / "source_tables.ckpt").exists()
        assert not (tmp_path / "run" / "source" / "manifest.json").exists()

    def test_source_trainer_change_reruns_no_stage_of_a_run_that_transfers_nothing(
        self, small_fixture, tmp_path, monkeypatch
    ):
        config = no_transfer_run(small_fixture, tmp_path / "run")
        before = snapshot(tmp_path / "run")
        config["source_train"]["learning_rate"] *= 2
        calls = count_trainings(monkeypatch)
        status = Pipeline(PipelineConfig.from_dict(config)).run(RUN_STAGES)
        assert status == {s: "cached" for s in RUN_STAGES}
        assert calls == {"target": [], "source": [], "pretrain": []}
        assert snapshot(tmp_path / "run") == before

    def test_lambda_of_a_train_that_transfers_nothing_reruns_no_stage(
        self, completed_copy, capsys, monkeypatch
    ):
        run_dir, config_path = completed_copy
        code, captured = cli(capsys, "train", "--config", config_path, "--transfer", "none",
                             "--lambda", "0.5")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["train"] == "ran"
        before = snapshot(run_dir)
        calls = count_trainings(monkeypatch)
        code, captured = cli(capsys, "train", "--config", config_path, "--transfer", "none",
                             "--lambda", "0.7")
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"]["train"] == "cached"
        assert calls == {"target": [], "source": [], "pretrain": []}
        assert snapshot(run_dir) == before

    def test_checkpoint_eval_needs_no_source_model(self, small_fixture, tmp_path, capsys):
        """A checkpoint is scored with no transfer, on the personas and
        backbone alone: it scores as in eval on a run dir with no source model."""
        config = no_transfer_run(small_fixture, tmp_path / "run")
        run_dir = tmp_path / "run"
        assert not (run_dir / "source").exists()
        write_json(tmp_path / "config.json", config)
        ckpt = run_dir / "model" / "target_seed0.ckpt"
        code, captured = cli(capsys, "eval", "--config", tmp_path / "config.json",
                             "--checkpoint", ckpt)
        assert code == 0, captured.err
        report = read_json(run_dir / "eval" / "report.json")
        want = {m["metric"]: m["per_seed"][0] for m in report["metrics"] if m["K"] == 5}
        single = read_json(run_dir / "eval" / "checkpoint_target_seed0.json")
        assert {"HR": single["HR"]["5"], "NDCG": single["NDCG"]["5"]} == want


class TestOnePersonaWidth:
    """The source model takes train's persona width, which a transfer needs."""

    def test_source_model_is_as_wide_as_train(self, small_fixture, tmp_path):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        assert "persona_out_dim" not in config["source_train"]
        config["train"]["persona_out_dim"] = 16
        pipe = Pipeline(PipelineConfig.from_dict(config))
        assert pipe.config.source_train_config().persona_out_dim == 16
        pipe.run(["ingest", "split", "persona", "pretrain", "train"])
        tables, _ = load_checkpoint(tmp_path / "run" / "model" / "source_tables.ckpt")
        assert tables["h_users"].shape[1] == 16


class TestOneAnalysisPerSplit:
    def test_cold_run_computes_bins_and_labels_once_per_side(
        self, small_fixture, tmp_path, monkeypatch
    ):
        """idh and persona share each train split's heterogeneity analysis."""
        _, paths = small_fixture
        calls = {"compute_domain_bins": 0, "compute_domain_labels": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(idh_mod, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(idh_mod, name, counted)
        status = build_pipeline(paths, tmp_path / "run").run(STAGES)
        assert status == {s: "ran" for s in STAGES}
        assert calls == {"compute_domain_bins": 2, "compute_domain_labels": 2}


class TestInputsInKey:
    @pytest.fixture
    def own_inputs(self, small_fixture, tmp_path):
        """A completed run on private copies of the input files."""
        _, paths = small_fixture
        own = copy_inputs(paths, tmp_path / "inputs")
        config_path = tmp_path / "config.json"
        write_json(config_path, small_config_dict(own, tmp_path / "run"))
        Pipeline(PipelineConfig.from_json(config_path)).run(RUN_STAGES)
        return own, config_path, tmp_path / "run"

    def test_input_edited_in_place_reruns_every_stage(self, own_inputs, capsys):
        own, config_path, _ = own_inputs
        before = Pipeline(PipelineConfig.from_json(config_path)).hash
        lines = own.target_interactions.read_text().splitlines()
        row = json.loads(lines[0])
        row["rating"] = 2.0 if row["rating"] == 1.0 else 1.0
        lines[0] = json.dumps(row)
        own.target_interactions.write_text("\n".join(lines) + "\n")
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", ",".join(RUN_STAGES))
        assert code == 0, captured.err
        out = json.loads(captured.out)
        assert out["stages"] == {s: "ran" for s in RUN_STAGES}
        assert out["config_hash"] != before

    def test_missing_input_fails_before_any_stage_runs(self, own_inputs, capsys):
        own, config_path, run_dir = own_inputs
        before = snapshot(run_dir)
        own.source_metadata.unlink()
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", ",".join(RUN_STAGES))
        assert code == 2
        assert json.loads(captured.err)["error"] == {
            "type": "FileNotFoundError",
            "message": f"[Errno 2] No such file or directory: '{own.source_metadata}'",
        }
        assert snapshot(run_dir) == before


class TestPersonaPhaseAfterDoneStage:
    @pytest.mark.parametrize("phase", ["build", "generate"])
    def test_early_phase_leaves_done_persona_alone(self, completed_copy, capsys, phase):
        run_dir, config_path = completed_copy
        before = snapshot(run_dir / "persona")
        code, captured = cli(capsys, "persona", phase, "--config", config_path)
        assert code == 0, captured.err
        code, captured = cli(capsys, "run", "--config", config_path, "--stages", ",".join(RUN_STAGES))
        assert code == 0, captured.err
        assert json.loads(captured.out)["stages"] == {s: "cached" for s in RUN_STAGES}
        assert snapshot(run_dir / "persona") == before


# The stages each subcommand requests: its own and every stage upstream of it.
SUBCOMMAND_STAGES = {
    "ingest": ["ingest"],
    "split": ["ingest", "split"],
    "idh": ["ingest", "split", "idh"],
    "persona": ["ingest", "split", "persona"],
    "pretrain": ["ingest", "split", "pretrain"],
    "train": ["ingest", "split", "persona", "pretrain", "train"],
    "eval": ["ingest", "split", "persona", "pretrain", "train", "eval"],
    "ablate": ["ingest", "split", "persona", "pretrain", "ablate"],
}


def flat_fields(config: PipelineConfig) -> dict:
    """Every config field by its dest name: `eval_ks`, `train.lambda_dpl`."""
    flat = {}
    for name, value in dataclasses.asdict(config).items():
        if isinstance(value, dict) and name != "ablate":
            flat.update({f"{name}.{k}": v for k, v in value.items()})
        else:
            flat[name] = value
    return flat


@pytest.fixture
def captured_runs(small_fixture, tmp_path, monkeypatch):
    """A config file whose every overridable field differs from the values
    below, and a `main` that records (config, stages) instead of running."""
    _, paths = small_fixture
    config = small_config_dict(paths, tmp_path / "run")
    config["client"]["mode"] = "remote"
    config["ablate"] = {"transfer": ["none"], "tau": [0.1]}
    config_path = tmp_path / "config.json"
    write_json(config_path, config)
    runs = []
    monkeypatch.setattr(cli_mod, "_run_stages", lambda c, stages: runs.append((c, stages)))

    def run(*argv):
        assert main([argv[0], "--config", str(config_path), *argv[1:]]) == 0
        return runs[-1]

    return PipelineConfig.from_json(config_path), run


# (argv, the config field its flag sets, the value it sets)
OVERRIDES = [
    (["split", "--boundary", "2020-06-01"], "split.boundary", 1590969600),
    (["split", "--valid-fraction", "0.25"], "split.valid_fraction", 0.25),
    (["idh", "--criteria", "ps,qp"], "criteria", ("ps", "qp")),
    (["idh", "--labels", "high"], "report_labels", ("high",)),
    (["persona", "--offline"], "client.mode", "offline"),
    (["pretrain", "--layers", "2"], "gcn.layers", 2),
    (["pretrain", "--epochs", "3"], "gcn.epochs", 3),
    (["train", "--lambda", "1.0"], "train.lambda_dpl", 1.0),
    (["train", "--tau", "0.3"], "train.tau", 0.3),
    (["train", "--aggregation", "mean"], "train.aggregation", "mean"),
    (["train", "--transfer", "none"], "train.transfer", "none"),
    (["train", "--seed", "5"], "seeds", (5,)),
    (["eval", "--k", "5,10"], "eval_ks", (5, 10)),
    (["eval", "--split", "valid"], "eval_split", "valid"),
    (["run", "--sweep", "lambda=0:1:0.5"], "ablate",
     {"transfer": ["none"], "tau": [0.1], "lambda": [0.0, 0.5, 1.0]}),
    (["ablate", "--sweep", "lambda=0:1:0.5", "--sweep", "tau=0.5:1:0.5"], "ablate",
     {"transfer": ["none"], "tau": [0.5, 1.0], "lambda": [0.0, 0.5, 1.0]}),
]


class TestCliTables:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_STAGES))
    def test_subcommand_runs_its_upstream_stages(self, captured_runs, command):
        _, run = captured_runs
        assert stages_through(command) == SUBCOMMAND_STAGES[command]
        assert run(command)[1] == SUBCOMMAND_STAGES[command]

    @pytest.mark.parametrize(
        "argv, field, value", OVERRIDES, ids=[argv[0] + argv[1] for argv, _, _ in OVERRIDES]
    )
    def test_flag_sets_exactly_its_field(self, captured_runs, argv, field, value):
        base, run = captured_runs
        before = flat_fields(base)
        after = flat_fields(run(*argv)[0])
        assert {name for name in after if after[name] != before[name]} == {field}
        assert after[field] == value and type(after[field]) is type(value)


class TestCliErrors:
    """Every failure, a usage error included, is one JSON object on stderr."""

    # each rejected value's message names the form the flag expects
    EXPECTED = {
        "eval --k 5,x": "expected a comma list of integers, got '5,x'",
        "train --seed x": "expected an integer seed, got 'x'",
        "train --lambda x": "expected a number, got 'x'",
        "ablate --sweep bad": "expected a sweep like name=start:stop:step, got 'bad'",
        "pretrain --epochs 1.5": "expected an integer, got '1.5'",
        "ablate --sweep lambda=a:1:1":
            "expected a sweep like name=start:stop:step, got 'lambda=a:1:1'",
        "ablate --sweep lambda=0:inf:1":
            "expected a sweep like name=start:stop:step, got 'lambda=0:inf:1'",
        "ablate --sweep lambda=0:1e300:1e-300":
            "expected a sweep like name=start:stop:step, got 'lambda=0:1e300:1e-300'",
        "train --lambda nan": "expected a number, got 'nan'",
        "train --tau inf": "expected a number, got 'inf'",
        "split --valid-fraction=-Infinity": "expected a number, got '-Infinity'",
        "run --stages ": "expected a nonempty comma list of stages, got ''",
        "run --stages ,": "expected a nonempty comma list of stages, got ','",
        "eval --k ": "expected a comma list of integers, got ''",
    }

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["eval", "--k", "5,x"], "--k"),
            (["train", "--seed", "x"], "--seed"),
            (["train", "--lambda", "x"], "--lambda"),
            (["ablate", "--sweep", "bad"], "--sweep"),
            (["pretrain", "--epochs", "1.5"], "--epochs"),
            (["ablate", "--sweep", "lambda=a:1:1"], "--sweep"),
            (["ablate", "--sweep", "lambda=0:inf:1"], "--sweep"),
            (["ablate", "--sweep", "lambda=0:1e300:1e-300"], "--sweep"),
            (["train", "--lambda", "nan"], "--lambda"),
            (["train", "--tau", "inf"], "--tau"),
            (["split", "--valid-fraction=-Infinity"], "--valid-fraction"),
            # a stage list that names no stage would run nothing and succeed
            (["run", "--stages", ""], "--stages"),
            (["run", "--stages", ","], "--stages"),
            # an empty list would leave the field as the config sets it
            (["eval", "--k", ""], "--k"),
        ],
    )
    def test_rejected_flag_value_prints_json_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--config", "unused.json", *argv[1:]])
        assert info.value.code == 2
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ArgumentError"
        assert f"argument {flag}: {self.EXPECTED[' '.join(argv)]}" in error["message"]
        # no converter's Python name ("invalid int value", "_one_seed")
        assert "invalid" not in error["message"]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, edit, field",
        [
            (["pretrain", "--epochs", "0"], None, "epochs"),
            (["train"], lambda c: c["train"].update(batch_size=0), "train.batch_size"),
            (["train"], lambda c: c["train"].update(max_epochs=0), "train.max_epochs"),
            (["train"], lambda c: c["source_train"].update(batch_size=0), "source_train.batch_size"),
            (["pretrain"], lambda c: c["gcn"].update(patience=-1), "gcn.patience"),
        ],
    )
    def test_loop_setting_that_cannot_train_is_rejected(
        self, small_fixture, tmp_path, capsys, argv, edit, field
    ):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        if edit is not None:
            edit(config)
        write_json(tmp_path / "config.json", config)
        code, captured = cli(capsys, argv[0], "--config", tmp_path / "config.json", *argv[1:])
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{field} must be >= ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["idh", "--labels", "high,lo"], None,
             "unknown report label 'lo'; known labels: high, medium, low"),
            (["idh", "--criteria", "ps,cf"], None,
             "unknown criterion 'cf'; known criteria: ps, qp, pb"),
            (["eval"], lambda c: c.update(eval_split="tset"),
             "unknown eval_split 'tset'; known splits: valid, test"),
            (["eval"], lambda c: c.update(eval_average="users"),
             "unknown eval_average 'users'; known averages: interaction, user"),
            (["run"], lambda c: c["client"].update(mode="ofline"),
             "unknown client mode 'ofline'; known modes: offline, remote"),
            # an empty flag list is a list of one empty name, like any other list
            (["idh", "--criteria", ""], None, "unknown criterion ''; known criteria: ps, qp, pb"),
            (["idh", "--labels", ""], None,
             "unknown report label ''; known labels: high, medium, low"),
        ],
        ids=["report_labels", "criteria", "eval_split", "eval_average", "client_mode",
             "empty_criteria", "empty_labels"],
    )
    def test_value_outside_closed_vocabulary_is_rejected(
        self, small_fixture, tmp_path, capsys, argv, edit, message
    ):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        if edit is not None:
            edit(config)
        write_json(tmp_path / "config.json", config)
        code, captured = cli(capsys, argv[0], "--config", tmp_path / "config.json", *argv[1:])
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error == {"type": "ValueError", "message": message}
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--source", "--target"])
    def test_train_takes_its_domains_from_the_config_alone(self, capsys, flag):
        """A flag that swapped the domains for train alone is not a flag."""
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", "unused.json", flag, "target"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ArgumentError"
        assert f"unrecognized arguments: {flag} target" in error["message"]
        assert captured.out == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--help"])
        assert info.value.code == 0
        assert "--lambda" in capsys.readouterr().out

    def test_misspelt_sweep_axis_is_rejected(self, small_fixture, tmp_path, capsys):
        _, paths = small_fixture
        config_path = tmp_path / "config.json"
        write_json(config_path, small_config_dict(paths, tmp_path / "run"))
        code, captured = cli(capsys, "ablate", "--config", config_path, "--sweep", "lamda=0:1:0.5")
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert "'lamda'" in error["message"]
        assert "aggregation, transfer, lambda, tau" in error["message"]
        assert not (tmp_path / "run").exists()

    def test_bad_ablate_value_fails_before_the_done_stage_is_touched(self, completed_copy, capsys):
        run_dir, config_path = completed_copy
        assert cli(capsys, "ablate", "--config", config_path)[0] == 0
        before = snapshot(run_dir)
        for sweep, message in [
            ("transfer=0:0:1", "ablate.transfer[0] must be a string, got 0.0"),
            ("tau=0:0:1", "tau must be positive"),
        ]:
            code, captured = cli(capsys, "ablate", "--config", config_path, "--sweep", sweep)
            assert code == 2
            assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}
            assert snapshot(run_dir) == before  # the done ablate's manifest included

    def test_checkpoint_that_does_not_fit_the_model_is_rejected(self, completed_copy, capsys):
        run_dir, config_path = completed_copy
        code, captured = cli(capsys, "train", "--config", config_path, "--aggregation", "mean")
        assert code == 0, captured.err
        trained = run_dir / "model" / "target_seed0.ckpt"
        ckpt = run_dir.parent / "mean_seed0.ckpt"
        for source, copy in ((trained, ckpt), (checkpoint_manifest_path(trained),
                                               checkpoint_manifest_path(ckpt))):
            shutil.copyfile(source, copy)
        # the config still aggregates by self-attention, whose parameters the copy lacks
        code, captured = cli(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
        assert code == 2
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(
            f"checkpoint {ckpt} does not fit the configured model: missing parameter 'agg.")
        assert captured.out == ""

    def test_checkpoint_of_another_persona_width_is_rejected_naming_it(
        self, completed_copy, capsys
    ):
        """A tensor of another shape, like a missing one, names the checkpoint."""
        run_dir, config_path = completed_copy
        config = read_json(config_path)
        config["train"]["persona_out_dim"] = 16
        write_json(run_dir.parent / "width16.json", config)
        code, captured = cli(capsys, "train", "--config", run_dir.parent / "width16.json",
                             "--transfer", "none")
        assert code == 0, captured.err
        ckpt = run_dir.parent / "width16_seed0.ckpt"
        shutil.copyfile(run_dir / "model" / "target_seed0.ckpt", ckpt)
        code, captured = cli(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
        assert code == 2
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError",
            "message": f"checkpoint {ckpt} does not fit the configured model: "
                       "shape mismatch loading 'agg.proj_b'"}
        assert captured.out == ""

    def test_ablate_axis_that_is_not_a_list_is_rejected(self, small_fixture, tmp_path, capsys):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["ablate"] = {"lambda": 0.5}
        write_json(tmp_path / "config.json", config)
        code, captured = cli(capsys, "ablate", "--config", tmp_path / "config.json")
        assert code == 2
        assert json.loads(captured.err)["error"] == {
            "type": "ValueError",
            "message": "ablate axis 'lambda' must be a list of values, got 0.5",
        }
        assert not (tmp_path / "run").exists()

    def test_unknown_ablate_axis_in_config_is_rejected(self, small_fixture, tmp_path):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["ablate"] = {"lambda": [0.0], "taus": [0.1], "lamda": [1.0]}
        with pytest.raises(ValueError, match=r"unknown ablate axis 'lamda', 'taus'; known axes"):
            PipelineConfig.from_dict(config)


TRAIN_FIELDS = ("aggregation, transfer, lambda_dpl, tau, batch_size, learning_rate, "
                "weight_decay, dropout, max_epochs, patience, persona_out_dim, fused_dim")
GCN_FIELDS = "dim, layers, learning_rate, weight_decay, epochs, patience, batch_size"
SOURCE_PINNED = "the source model always trains with transfer='none'"
SOURCE_WIDTH = "the source model takes train.persona_out_dim, as a transfer needs one width"
CLIENT_FIELDS = ("mode, persona_dim, item_dim, chunk_size, parallelism, endpoint, chat_model, "
                 "embed_model, persona_temperature, description_temperature")


class TestConfigChecks:
    """Config values no stage can use fail at load, with exit 2, before any
    stage runs or any file of a run dir is touched."""

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["train"], lambda c: c.update(seeds=[]), "seeds must be nonempty and distinct, got []"),
            (["train"], lambda c: c.update(seeds=[0, 0]),
             "seeds must be nonempty and distinct, got [0, 0]"),
            (["train"], lambda c: c.update(seeds=[0, -2]), "seeds must be nonnegative, got [0, -2]"),
            (["train", "--seed", "-1"], None, "seeds must be nonnegative, got [-1]"),
            (["eval"], lambda c: c.update(eval_ks=[0, -3]),
             "eval_ks must be nonempty, each >= 1, got [0, -3]"),
            (["eval"], lambda c: c.update(eval_ks=[]), "eval_ks must be nonempty, each >= 1, got []"),
            (["eval", "--k", "5,0"], None, "eval_ks must be nonempty, each >= 1, got [5, 0]"),
            (["eval"], lambda c: c.update(eval_ks=[5, 5]), "eval_ks must be distinct, got [5, 5]"),
            (["eval", "--k", "10,5,10"], None, "eval_ks must be distinct, got [10, 5, 10]"),
            (["idh"], lambda c: c.update(criteria=["ps", "ps"]),
             "criteria must be distinct, got ['ps', 'ps']"),
            (["idh", "--labels", "high,high"], None,
             "report_labels must be distinct, got ['high', 'high']"),
            # no section sets the validation cutoff, and one width per encoder
            # serves both client modes
            (["train"], lambda c: c["train"].update(eval_k=5),
             f"unknown config field 'train.eval_k'; known fields: {TRAIN_FIELDS}"),
            (["train"], lambda c: c["source_train"].update(eval_k=5),
             f"unknown config field 'source_train.eval_k'; known fields: {TRAIN_FIELDS}"),
            (["pretrain"], lambda c: c["gcn"].update(eval_k=5),
             f"unknown config field 'gcn.eval_k'; known fields: {GCN_FIELDS}"),
            (["persona"], lambda c: c["client"].update(remote_persona_dim=3072),
             f"unknown config field 'client.remote_persona_dim'; known fields: {CLIENT_FIELDS}"),
            (["persona"], lambda c: c["client"].update(remote_item_dim=512),
             f"unknown config field 'client.remote_item_dim'; known fields: {CLIENT_FIELDS}"),
            (["split", "--boundary", "garbage"], None,
             "boundary must be an integer timestamp or an ISO date, got 'garbage'"),
            (["split"], lambda c: c["split"].update(boundary=True),
             "split.boundary must be an integer timestamp or an ISO date, got True"),
            (["split", "--valid-fraction", "1.5"], None,
             "valid_fraction must lie in (0, 1), got 1.5"),
            (["split"], lambda c: c["split"].update(valid_fraction=0.0),
             "split.valid_fraction must lie in (0, 1), got 0.0"),
            # each field is checked against the type its section declares
            (["run"], lambda c: c["split"].update(valid_fraction="0.5"),
             "split.valid_fraction must be a number, got '0.5'"),
            (["run"], lambda c: c["gcn"].update(epochs="2"), "gcn.epochs must be an integer, got '2'"),
            (["run"], lambda c: c["train"].update(max_epochs=True),
             "train.max_epochs must be an integer, got True"),
            (["run"], lambda c: c["source_train"].update(dropout=False),
             "source_train.dropout must be a number, got False"),
            (["run"], lambda c: c["gcn"].update(epochs=2.0), "gcn.epochs must be an integer, got 2.0"),
            (["run"], lambda c: c["train"].update(learning_rate=10**400),
             f"train.learning_rate must be a finite number, got {10**400}"),
            (["run"], lambda c: c["client"].update(mode=1), "client.mode must be a string, got 1"),
            (["run"], lambda c: c.update(seeds=[0, "1"]), "seeds[1] must be an integer, got '1'"),
            (["run"], lambda c: c.update(eval_ks=5), "eval_ks must be a list, got 5"),
            (["run"], lambda c: c.update(gcn=[]), "gcn must be an object, got []"),
            (["run"], lambda c: c["train"].update(lamda_dpl=1.0),
             f"unknown config field 'train.lamda_dpl'; known fields: {TRAIN_FIELDS}"),
            (["run"], lambda c: c.pop("target"), "missing config field 'target'"),
            (["run"], lambda c: c["source"].pop("metadata"), "missing config field 'source.metadata'"),
            # sizes and rates that cannot train
            (["run"], lambda c: c["gcn"].update(dim=0), "gcn.dim must be >= 1, got 0"),
            (["run"], lambda c: c["gcn"].update(layers=-1), "gcn.layers must be >= 0, got -1"),
            (["run"], lambda c: c["train"].update(fused_dim=0), "train.fused_dim must be >= 1, got 0"),
            (["run"], lambda c: c["train"].update(persona_out_dim=0),
             "train.persona_out_dim must be >= 1, got 0"),
            (["run"], lambda c: c["client"].update(parallelism=0),
             "client.parallelism must be >= 1, got 0"),
            (["run"], lambda c: c["client"].update(chunk_size=0),
             "client.chunk_size must be >= 1, got 0"),
            (["run"], lambda c: c["client"].update(persona_dim=0),
             "client.persona_dim must be >= 1, got 0"),
            (["run"], lambda c: c["train"].update(learning_rate=0),
             "train.learning_rate must be positive, got 0.0"),
            (["run"], lambda c: c["gcn"].update(learning_rate=-0.1),
             "gcn.learning_rate must be positive, got -0.1"),
            (["run"], lambda c: c["train"].update(weight_decay=-1e-4),
             "train.weight_decay must be nonnegative, got -0.0001"),
            # a value rejected in a trainer section is named with its section
            (["run"], lambda c: c["source_train"].update(max_epochs=0),
             "source_train.max_epochs must be >= 1, got 0"),
            (["run"], lambda c: c["source_train"].update(aggregation="foo"),
             "source_train.aggregation must be one of self_attn, mean, concat, got 'foo'"),
            (["run"], lambda c: c["train"].update(lambda_dpl=-1.0),
             "train.lambda_dpl must be nonnegative"),
            # JSON NaN and Infinity parse as floats; a number field rejects them
            (["run"], lambda c: c["train"].update(lambda_dpl=math.nan),
             "train.lambda_dpl must be a finite number, got nan"),
            (["run"], lambda c: c["train"].update(learning_rate=math.nan),
             "train.learning_rate must be a finite number, got nan"),
            (["run"], lambda c: c["client"].update(persona_temperature=math.nan),
             "client.persona_temperature must be a finite number, got nan"),
            (["run"], lambda c: c["train"].update(tau=math.inf),
             "train.tau must be a finite number, got inf"),
            (["run"], lambda c: c["gcn"].update(learning_rate=math.inf),
             "gcn.learning_rate must be a finite number, got inf"),
            (["run"], lambda c: c["source_train"].update(weight_decay=-math.inf),
             "source_train.weight_decay must be a finite number, got -inf"),
            # each ablate value is checked like the train field it sets
            (["ablate"], lambda c: c.update(ablate={"lambda": [0.5, math.nan]}),
             "ablate.lambda[1] must be a finite number, got nan"),
            (["ablate"], lambda c: c.update(ablate={"tau": ["inf"]}),
             "ablate.tau[0] must be a number, got 'inf'"),
            (["ablate"], lambda c: c.update(ablate={"tau": [math.inf]}),
             "ablate.tau[0] must be a finite number, got inf"),
            (["ablate"], lambda c: c.update(ablate={"lambda": [True]}),
             "ablate.lambda[0] must be a number, got True"),
            (["ablate"], lambda c: c.update(ablate={"lambda": [[1]]}),
             "ablate.lambda[0] must be a number, got [1]"),
            (["ablate"], lambda c: c.update(ablate={"aggregation": ["mean", 1]}),
             "ablate.aggregation[1] must be a string, got 1"),
            # no trainer section has a seed or a persona-space seed: `seeds` sets each
            # run's seed, and one constant seeds the aggregator in both domains
            (["run"], lambda c: c["train"].update(seed=3),
             f"unknown config field 'train.seed'; known fields: {TRAIN_FIELDS}"),
            (["train"], lambda c: c["source_train"].update(seed=9),
             f"unknown config field 'source_train.seed'; known fields: {TRAIN_FIELDS}"),
            (["run"], lambda c: c["train"].update(persona_space_seed=1),
             f"unknown config field 'train.persona_space_seed'; known fields: {TRAIN_FIELDS}"),
            # nor does `gcn` or `client`: the backbones and the offline encoders
            # draw from constants, and every trainer draws one negative per positive
            (["pretrain"], lambda c: c["gcn"].update(seed=1),
             f"unknown config field 'gcn.seed'; known fields: {GCN_FIELDS}"),
            (["pretrain"], lambda c: c["gcn"].update(negatives=1),
             f"unknown config field 'gcn.negatives'; known fields: {GCN_FIELDS}"),
            (["run"], lambda c: c["train"].update(negatives=1),
             f"unknown config field 'train.negatives'; known fields: {TRAIN_FIELDS}"),
            (["train"], lambda c: c["source_train"].update(negatives=2),
             f"unknown config field 'source_train.negatives'; known fields: {TRAIN_FIELDS}"),
            (["persona"], lambda c: c["client"].update(seed=7),
             f"unknown config field 'client.seed'; known fields: {CLIENT_FIELDS}"),
            # the source model takes train's persona width, which a transfer needs:
            # a source width is rejected, whether it differs from train's or not
            (["train"], lambda c: c["source_train"].update(persona_out_dim=16),
             f"source_train.persona_out_dim is never read: {SOURCE_WIDTH}"),
            (["ablate"], lambda c: (c["train"].update(transfer="none"),
                                    c["source_train"].update(persona_out_dim=32)),
             f"source_train.persona_out_dim is never read: {SOURCE_WIDTH}"),
            (["train"], lambda c: c["source_train"].update(persona_out_dim=0),
             f"source_train.persona_out_dim is never read: {SOURCE_WIDTH}"),
            (["ablate"], lambda c: c.update(ablate={"lambda": [1.0, 1.0]}),
             "ablate.lambda must be distinct, got [1.0, 1.0]"),
            # the source model trains with transfer off: a section that sets what
            # it never reads is rejected, not silently overridden
            (["train"], lambda c: c["source_train"].update(transfer="doppelganger"),
             f"source_train.transfer is never read: {SOURCE_PINNED}"),
            (["run"], lambda c: c["source_train"].update(lambda_dpl=2.0),
             f"source_train.lambda_dpl is never read: {SOURCE_PINNED}"),
            (["ablate"], lambda c: c["source_train"].update(tau=0.1),
             f"source_train.tau is never read: {SOURCE_PINNED}"),
        ],
        ids=["no_seeds", "repeated_seed", "negative_seed", "negative_seed_flag", "eval_ks", "no_eval_ks", "eval_k_flag",
             "repeated_eval_k", "repeated_eval_k_flag", "repeated_criterion",
             "repeated_label_flag", "train_eval_k", "source_train_eval_k", "gcn_eval_k",
             "client_remote_persona_dim", "client_remote_item_dim", "boundary_flag",
             "boundary_bool", "valid_fraction_flag", "valid_fraction_zero",
             "number_as_string", "integer_as_string", "bool_as_integer", "bool_as_number",
             "float_as_integer", "huge_integer_as_number", "string_as_number", "seed_as_string",
             "list_as_integer",
             "section_as_list", "misspelt_field", "missing_section", "missing_field",
             "gcn_dim", "gcn_layers", "fused_dim", "persona_out_dim", "parallelism", "chunk_size",
             "persona_dim", "train_learning_rate", "gcn_learning_rate", "weight_decay",
             "source_train_max_epochs", "source_train_aggregation", "train_lambda_dpl",
             "nan_lambda", "nan_learning_rate", "nan_persona_temperature", "inf_tau",
             "inf_gcn_learning_rate", "minus_inf_weight_decay", "ablate_nan_lambda",
             "ablate_tau_as_string", "ablate_inf_tau", "ablate_bool_lambda", "ablate_list_lambda",
             "ablate_aggregation_as_integer", "train_seed", "source_train_seed",
             "train_persona_space_seed", "gcn_seed", "gcn_negatives", "train_negatives",
             "source_train_negatives", "client_seed", "persona_width", "ablate_persona_width",
             "unusable_persona_width",
             "repeated_ablate_value", "source_train_transfer", "source_train_lambda_dpl",
             "source_train_tau"],
    )
    def test_unusable_value_is_rejected_before_any_stage(
        self, small_fixture, tmp_path, capsys, argv, edit, message
    ):
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        if edit is not None:
            edit(config)
        write_json(tmp_path / "config.json", config)
        code, captured = cli(capsys, argv[0], "--config", tmp_path / "config.json", *argv[1:])
        assert code == 2
        assert json.loads(captured.err)["error"] == {"type": "ValueError", "message": message}
        assert not (tmp_path / "run").exists()

    def test_int_in_float_field_is_stored_as_float(self, small_fixture, tmp_path):
        """So `1` and `1.0` make one stage key, in a section and in ablate."""
        _, paths = small_fixture
        config = small_config_dict(paths, tmp_path / "run")
        config["train"]["lambda_dpl"] = 1
        config["ablate"] = {"lambda": [0, 1], "tau": [2]}
        loaded = PipelineConfig.from_dict(config)
        assert type(loaded.train.lambda_dpl) is float and loaded.train.lambda_dpl == 1.0
        assert loaded.ablate == {"lambda": [0.0, 1.0], "tau": [2.0]}
        assert {type(v) for values in loaded.ablate.values() for v in values} == {float}
        config["train"]["lambda_dpl"] = 1.0
        config["ablate"] = {"lambda": [0.0, 1.0], "tau": [2.0]}
        assert PipelineConfig.from_dict(config).stage_keys() == loaded.stage_keys()

    @pytest.mark.parametrize(
        "argv, edit",
        [
            (["split", "--boundary", "garbage"], None),
            (["split", "--valid-fraction", "1.5"], None),
            (["eval"], lambda c: c["split"].update(boundary=True)),
        ],
        ids=["boundary_flag", "valid_fraction_flag", "boundary_bool"],
    )
    def test_rejected_split_leaves_a_completed_run_untouched(
        self, completed_copy, capsys, argv, edit
    ):
        run_dir, config_path = completed_copy
        before = snapshot(run_dir)
        config = read_json(config_path)
        if edit is not None:
            edit(config)
        write_json(config_path.with_name("edited.json"), config)
        code, captured = cli(
            capsys, argv[0], "--config", config_path.with_name("edited.json"), *argv[1:]
        )
        assert code == 2
        assert json.loads(captured.err)["error"]["type"] == "ValueError"
        assert snapshot(run_dir) == before
        # the next unrelated command finds every stage still done
        code, captured = cli(capsys, "eval", "--config", config_path)
        assert code == 0, captured.err
        assert set(json.loads(captured.out)["stages"].values()) == {"cached"}


class TestBackboneCheckpoint:
    def test_holds_the_propagated_tables_only(self, completed_run):
        _, run_dir, _ = completed_run
        for side in ("source", "target"):
            arrays, manifest = load_checkpoint(run_dir / "backbone" / f"{side}.ckpt")
            assert sorted(arrays) == ["item_vecs", "user_vecs"]
            assert arrays["item_vecs"].shape[0] == len(manifest["item_ids"])


class TestRemoteClients:
    class _Session:
        """Answers chat and embedding posts, or fails every post with `fail`."""

        def __init__(self, fail=None):
            self.fail = fail
            self.posts = []

        def post(self, url, json, headers, timeout):
            self.posts.append({"url": url, "body": json, "timeout": timeout})
            if self.fail is not None:
                return SimpleNamespace(status_code=self.fail, text="", json=dict)
            if url.endswith("/embeddings"):
                rows = [{"index": k, "embedding": [0.5] * json["dimensions"]}
                        for k in range(len(json["input"]))]
                payload = {"data": rows}
            else:
                payload = {"choices": [{"message": {"content": "text"}}]}
            return SimpleNamespace(status_code=200, text="", json=lambda: payload)

    def _clients(self, monkeypatch, tmp_path, session, **settings):
        import requests

        from multitap.persona import clients

        monkeypatch.setenv("MULTITAP_API_KEY", "k")
        monkeypatch.setattr(requests, "Session", lambda: session)
        sleeps = []
        monkeypatch.setattr(clients.time, "sleep", sleeps.append)
        config = PipelineConfig.from_dict({
            "run_dir": str(tmp_path / "run"),
            "source": {"domain_id": "s", "interactions": "s.jsonl", "metadata": "sm.jsonl"},
            "target": {"domain_id": "t", "interactions": "t.jsonl", "metadata": "tm.jsonl"},
            "client": {"mode": "remote", **settings},
        })
        return config.client, build_clients(config.client), sleeps

    @pytest.mark.parametrize(
        "settings",
        [{}, {"endpoint": "http://localhost:9/v2/", "chat_model": "chat-x", "embed_model": "emb-y",
              "persona_temperature": 0.2, "description_temperature": 0.9,
              "persona_dim": 6, "item_dim": 4}],
        ids=["defaults", "custom"],
    )
    def test_clients_carry_client_settings(self, monkeypatch, tmp_path, settings):
        session = self._Session()
        cs, (generator, persona_encoder, item_encoder), sleeps = self._clients(
            monkeypatch, tmp_path, session, **settings
        )
        # the widths are the section's, or the remote defaults when it sets none
        persona_width, item_width = cs.widths
        assert (persona_encoder.dim, item_encoder.dim) == cs.widths
        assert cs.widths == ((6, 4) if settings else (3072, 512))
        if not settings:
            assert generator.identity == "remote-gpt-4o-t0.7-1.0"
            assert persona_encoder.identity == "remote-text-embedding-3-large-d3072"
            assert item_encoder.identity == "remote-text-embedding-3-large-d512"
        assert generator.identity == (
            f"remote-{cs.chat_model}-t{cs.persona_temperature}-{cs.description_temperature}")
        assert persona_encoder.identity == f"remote-{cs.embed_model}-d{persona_width}"
        assert item_encoder.identity == f"remote-{cs.embed_model}-d{item_width}"
        assert generator.personas({"User ID": "u"}) == "text"
        assert generator.domain_description({"Domain": "d"}) == "text"
        assert persona_encoder.embed(["a"]).shape == (1, persona_width)
        assert item_encoder.embed(["b", "c"]).shape == (2, item_width)
        base = cs.endpoint.rstrip("/")
        assert [p["url"] for p in session.posts] == [base + "/chat/completions"] * 2 + [
            base + "/embeddings"] * 2
        assert all(p["timeout"] == 60.0 for p in session.posts)
        chats = [p["body"] for p in session.posts[:2]]
        assert [(b["model"], b["temperature"]) for b in chats] == [
            (cs.chat_model, cs.persona_temperature),
            (cs.chat_model, cs.description_temperature),
        ]
        assert [b["messages"][1]["content"] for b in chats] == [
            '{"User ID": "u"}', '{"Domain": "d"}']
        assert [p["body"] for p in session.posts[2:]] == [
            {"model": cs.embed_model, "input": ["a"], "dimensions": persona_width},
            {"model": cs.embed_model, "input": ["b", "c"], "dimensions": item_width},
        ]
        assert sleeps == []

    def test_widths_follow_a_replaced_mode(self):
        """`persona --offline` replaces the mode of a built remote section:
        unset widths become the offline ones."""
        remote = ClientSettings(mode="remote")
        assert remote.widths == (3072, 512)
        offline = dataclasses.replace(remote, mode="offline")
        assert offline.widths == (256, 128)

    def test_three_attempts_with_doubling_backoff(self, monkeypatch, tmp_path):
        session = self._Session(fail=503)
        _, (generator, _, item_encoder), sleeps = self._clients(monkeypatch, tmp_path, session)
        with pytest.raises(ClientError, match="after 3 attempts: status 503"):
            generator.personas({"User ID": "u"})
        assert len(session.posts) == 3
        assert sleeps == [1.0, 2.0]
        with pytest.raises(ClientError, match="after 3 attempts"):
            item_encoder.embed(["a"])
        assert len(session.posts) == 6
        assert sleeps == [1.0, 2.0, 1.0, 2.0]


class TestKeysAndHash:
    @pytest.mark.parametrize("overrides", [
        {},
        {"source_train": None},
        {"ablate": {"lambda": [0.0, 1.0], "transfer": ["none"]}, "seeds": [3, 1]},
        {"client": {"mode": "remote", "chunk_size": 7}, "split": {"boundary": 1546300800}},
        {"train": {"transfer": "none", "persona_out_dim": None}},
        {"train": {"transfer": "none"}, "ablate": {"tau": [0.3], "aggregation": ["mean"]}},
    ], ids=["fixture", "no-source-trainer", "ablate", "client-split", "no-transfer-unset-width",
            "no-transfer-ablate-axes"])
    def test_match_the_whole_config_oracle(self, small_fixture, tmp_path, overrides):
        _, paths = small_fixture
        config = PipelineConfig.from_dict({**small_config_dict(paths, tmp_path / "run"), **overrides})
        pipe = Pipeline(config)
        assert pipe.keys == oracles.stage_keys(config)
        assert pipe.hash == oracles.config_hash(config)


class TestSharedCache:
    def test_sampled_description_is_served_to_a_second_run(self, small_fixture, tmp_path, monkeypatch):
        """A generator that draws a new description on every call, as a remote
        one sampling at temperature 1.0 does: a second run dir sharing the
        cache makes no generator call and writes the same persona files."""
        from multitap.persona import HashingEncoder, TemplateGenerator

        class SamplingGenerator(TemplateGenerator):
            def domain_description(self, payload):
                raw = json.loads(super().domain_description(payload))
                raw["Domain Profile"]["Domain Description"] += f" Draw {self.calls}."
                return json.dumps(raw)

        generators = []

        def clients(cs):
            generators.append(SamplingGenerator())
            return generators[-1], *(HashingEncoder(width, 7) for width in cs.widths)

        monkeypatch.setattr(pipeline_mod, "build_clients", clients)
        _, paths = small_fixture
        calls = []  # per run, over every generator built (the stage keys build one too)
        for name in ("a", "b"):
            generators.clear()
            build_pipeline(paths, tmp_path / name, tmp_path / "cache").run(
                ["ingest", "split", "idh", "persona"])
            calls.append(sum(g.calls for g in generators))
        assert calls[0] > 0
        assert calls[1] == 0
        persona = {name: {p.relative_to(tmp_path / name): p.read_bytes()
                          for p in (tmp_path / name / "persona").rglob("*") if p.is_file()}
                   for name in ("a", "b")}
        assert persona["a"] == persona["b"]
