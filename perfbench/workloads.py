"""Workload table shared by the runner (`run.py`) and the child (`child.py`).

Each workload is a `FixtureSpec` override plus a fixed epoch budget: every
trainer gets `patience == epochs`, so the work in a run does not depend on
when validation peaks (the best epoch is still restored).  `README.md` in
this directory says why each workload exists and which layer it stresses.
"""

STAGES = ("ingest", "split", "idh", "persona", "pretrain", "train", "eval")

# Entry points that a train-only rerun must reach even once per-stage
# reuse lands; everything upstream may legitimately be served from disk.
SWEEP_EXPECTED = (
    "pipeline.run",
    "pipeline.train",
    "pipeline.eval",
    "model.train_target",
    "model.batch_loss_and_grads",
    "model.score_matrix",
    "diffkit.adam_step",
    "diffkit.save_checkpoint",
    "diffkit.load_checkpoint",
    "evaluate.full_ranking_eval",
)

WORKLOADS = {
    # 1.5x the users and 6x the items per category, cold: persona (history
    # scan, cache writes, item encoding), propagation over many nodes, the
    # B x |U_o| transfer term, full-ranking eval and Adam over big tables
    "scale": {
        "spec": {
            "overlap_users": 300,
            "source_only_users": 30,
            "target_only_users": 30,
            "source_items_per_category": 288,
            "target_items_per_category": 72,
        },
        "epochs": {"gcn": 2, "source_train": 2, "train": 2},
    },
    # the acceptance suite's planted corpus with a completed run as set-up,
    # then a train-only change
    "sweep": {
        "spec": {},
        "epochs": {"gcn": 4, "source_train": 6, "train": 6},
        "prime": {"train": {"lambda_dpl": 1.4}},
        "change": {"train": {"lambda_dpl": 1.0}},
        "expected": SWEEP_EXPECTED,
    },
}

# `--tiny`: a corpus small enough for the smoke test; the workload keeps its
# shape only through `prime`/`change`.
TINY = {
    "spec": {
        "overlap_users": 40,
        "source_only_users": 4,
        "target_only_users": 4,
        "source_items_per_category": 12,
        "target_items_per_category": 6,
        "source_train_per_user": 8,
        "target_train_per_user": 3,
        "source_heldout_per_user": 2,
        "target_heldout_per_user": 3,
    },
    "epochs": {"gcn": 1, "source_train": 1, "train": 1},
}


def workload(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY)
    return spec
