"""Shared fixtures: synthetic corpora and prepared pipelines."""

import logging

import pytest

from multitap.fixtures import FixtureSpec, fixture_config_dict, write_fixture
from multitap.pipeline import Pipeline, PipelineConfig

logging.getLogger("multitap").setLevel(logging.ERROR)


def small_fixture_spec() -> FixtureSpec:
    """Reduced corpus for fast end-to-end pipeline tests."""
    return FixtureSpec(
        overlap_users=60,
        source_only_users=8,
        target_only_users=8,
        source_items_per_category=24,
        target_items_per_category=8,
        source_train_per_user=12,
        target_train_per_user=3,
        source_heldout_per_user=4,
        target_heldout_per_user=6,
    )


def small_config_dict(paths, run_dir, cache_dir=None) -> dict:
    config = fixture_config_dict(paths, run_dir, seeds=[0], cache_dir=cache_dir)
    config["gcn"].update(epochs=15, patience=5)
    config["train"].update(max_epochs=12, patience=5)
    config["source_train"].update(max_epochs=15, patience=15)
    config["eval_ks"] = [5]
    return config


@pytest.fixture(scope="session")
def small_fixture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("small_fixture")
    paths = write_fixture(directory, small_fixture_spec())
    return directory, paths


@pytest.fixture(scope="session")
def acceptance_fixture(tmp_path_factory):
    """Full-size planted corpus used by the acceptance suite."""
    directory = tmp_path_factory.mktemp("acceptance_fixture")
    paths = write_fixture(directory, FixtureSpec())
    return directory, paths


@pytest.fixture(scope="session")
def acceptance_pipeline(acceptance_fixture, tmp_path_factory):
    """Pipeline with all pre-training stages completed on the full fixture."""
    _, paths = acceptance_fixture
    run_dir = tmp_path_factory.mktemp("acceptance_run")
    config = PipelineConfig.from_dict(fixture_config_dict(paths, run_dir))
    pipe = Pipeline(config)
    pipe.run(["ingest", "split", "idh", "persona", "pretrain"])
    pipe._ensure_source_tables("train")
    return pipe
