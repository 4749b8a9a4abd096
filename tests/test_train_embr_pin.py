"""End-to-end pin of train + EMBR on ``configs/toy_reduced.json``.

Two epochs of ``train`` and then four ``embr_phase`` steps, once without and
once with the reference added to each n-best list.  The sha256 of every
archive ``save`` writes and each step's mean risk (as a hex float) pin the
batch order and the order in which a step sums its utterances' gradients.
All three values were re-recorded when every optimizer step became one
``backprop.step_grads`` call, which accumulates the whole batch into one
gradient set and runs one prediction backward pass over the windows of the
whole batch: that changes the summation order on purpose.  Each step's mean
value stays bit-equal for equal weights (``tests/test_grid_buffers.py``),
so the step risks moved (by 36 to 753 units in the last place) only
because the trained weights moved in their last bits.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from rnntdec import embr_phase, load, save, train
from rnntdec.runconfig import load_run_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_reduced.json"

TRAIN_SHA256 = "6fa2ff96665db6300c8b9b0c0047369ee648cf4269254100fb5bd4e559600ed4"
# After two epochs every reference is already in its 4-best list, so adding it
# changes nothing and both runs give the same archive and risks.
EMBR_SHA256 = "0945ec44874fc83a7eca658006dbd3a87570895df339d1bebae8a7100688a2e5"
EMBR_STEP_RISKS = [
    "0x1.5885145d3a6fcp-2",
    "0x1.ab54939cb4522p-5",
    "0x1.0d0dd288d9c21p-2",
    "0x1.c56541ccaeb95p-2",
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
