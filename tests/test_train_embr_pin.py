"""End-to-end pin of train + EMBR on ``configs/toy_reduced.json``.

Two epochs of ``train`` and then four ``embr_phase`` steps, once without and
once with the reference added to each n-best list.  The sha256 of every
archive ``save`` writes and each step's mean risk (as a hex float) were
recorded before the loss and risk gradients shared one backward chain and
one batch mean; they pin the batch order and the order in which per-utterance
gradients are summed and averaged.  The EMBR archive and two step risks (by
one unit in the last place) were re-recorded when the risk gradient moved to
one grid per n-best list; the training archive did not change.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from rnntdec import embr_phase, load, save, train
from rnntdec.runconfig import load_run_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_reduced.json"

TRAIN_SHA256 = "02f79d16b7117bff16f3670ba8db4017c321bcd99b4af646c4d48d3dbd0e82f8"
# After two epochs every reference is already in its 4-best list, so adding it
# changes nothing and both runs give the same archive and risks.
EMBR_SHA256 = "3cb9ddcb48d592023fb0b156144c2ee81c1b0a084f072af72e41f89ed2f73a03"
EMBR_STEP_RISKS = [
    "0x1.5885145d3a787p-2",
    "0x1.ab54939cb4813p-5",
    "0x1.0d0dd288d9c45p-2",
    "0x1.c56541ccaea93p-2",
]


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    cfg = load_run_config(str(CONFIG))
    hp = replace(cfg.train, epochs=2)
    result = train(cfg.decoder, cfg.task, hp)
    path = tmp_path_factory.mktemp("pin") / "train.rnnt"
    save(result.weights, cfg.decoder, str(path), seed=hp.seed)
    return cfg, result, path


def test_train_archive_pinned(trained):
    _, _, path = trained
    assert sha256_of(path) == TRAIN_SHA256


@pytest.mark.parametrize("add_reference", [False, True])
def test_embr_archive_and_step_risks_pinned(trained, tmp_path, add_reference):
    cfg, result, train_path = trained
    weights, dec_cfg = load(str(train_path))
    params = replace(cfg.embr, steps=4, add_reference=add_reference)
    phase = embr_phase(weights, dec_cfg, result.train_set, params)
    out = tmp_path / "embr.rnnt"
    save(phase.weights, dec_cfg, str(out), seed=params.seed)
    assert [r.hex() for r in phase.step_risks] == EMBR_STEP_RISKS
    assert sha256_of(out) == EMBR_SHA256
