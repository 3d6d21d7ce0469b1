"""Acceptance gate: the README quick-start recipe learns.

Runs `la2 generate` and `la2 train` as the README's quick start does (Darcy,
n=200, 16x16 grid, data seed 7; L=4, C=64, K=8), for 8 epochs at model seeds
0 and 1. Each seed trains for about 45 s on one core, so the module is marked
`slow` and left out of the default run. Run it with

    PYTHONPATH=src python -m pytest -q -m slow tests/test_acceptance.py

Both bounds were fixed before the gate was first run: no epoch's mean train
loss may exceed epoch 1's (the loss must not spike), and the final test
relative L2 must be at most 0.30 (a model that predicts zero scores 1).
"""

import csv

import pytest

from la2.cli import EXIT_OK, main

pytestmark = pytest.mark.slow

EPOCHS = 8
MAX_FINAL_TEST_REL_L2 = 0.30


@pytest.fixture(scope="module")
def darcy16(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "darcy16"
    rc = main(["generate", "--task", "darcy", "--n", "200", "--grid", "16",
               "--seed", "7", "--out", str(path)])
    assert rc == EXIT_OK
    return path


@pytest.mark.parametrize("seed", [0, 1])
def test_quick_start_learns(darcy16, tmp_path, seed):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(darcy16), "--out", str(out),
               "--layers", "4", "--hidden", "64", "-K", "8",
               "--epochs", str(EPOCHS), "--seed", str(seed)])
    assert rc == EXIT_OK
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == EPOCHS
    losses = [float(r["train_loss"]) for r in rows]
    final = float(rows[-1]["test_rel_l2"])
    spikes = [(i + 1, v) for i, v in enumerate(losses) if v > losses[0]]
    assert not spikes, f"train loss rose above epoch 1's {losses[0]:.4g}: {spikes}"
    assert final <= MAX_FINAL_TEST_REL_L2, (
        f"final test rel L2 {final:.4f} > {MAX_FINAL_TEST_REL_L2}; losses {losses}")
