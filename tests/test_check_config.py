"""A model carries its config.

Every entry point that takes a model and a config checks the config against
the model's own (``weights.check_config``): an equal config passes, and one
that differs in any field raises ConfigError (exit 2, ``error[schema]``)
naming that field, before any work is done.
"""

from dataclasses import replace

import numpy as np
import pytest

from rnntdec import (
    beam_decode,
    convert_to_lookup,
    greedy_decode,
    init_weights,
    prediction_forward,
    save,
)
from rnntdec.backprop import step_grads
from rnntdec.embr import utterance_risk
from rnntdec.errors import ConfigError
from rnntdec.toy import Utterance
from rnntdec.weights import check_config

from helpers import tiny_config

MODEL_CFG = tiny_config(tied=True)  # reduced, vocab 4, d_e = d_h = 5, d_enc 4, N 2, H 2

# one field changed at a time; every result is a valid config of its own
CHANGES = {
    "vocab_size": 5,
    "history_len": 3,
    "tied": False,
    "position_trainable": True,
    "max_symbols_per_frame": 3,
    "d_enc": 6,
    "num_heads": 3,
    "variant": "concat2emb",
}

FRAMES = np.zeros((3, MODEL_CFG.d_enc))


ENTRY_POINTS = {
    "prediction_forward": lambda w, cfg, _: prediction_forward(
        np.full((2, MODEL_CFG.history_len), MODEL_CFG.pad_id), w, cfg),
    "greedy_decode": lambda w, cfg, _: greedy_decode(FRAMES, w, cfg),
    "beam_decode": lambda w, cfg, _: beam_decode(FRAMES, w, cfg, 2),
    "convert_to_lookup": lambda w, cfg, _: convert_to_lookup(w, cfg),
    "utterance_risk": lambda w, cfg, _: utterance_risk(
        Utterance(FRAMES, [0, 1]), [(0, 1), (1,)], w, cfg),
    "step_grads": lambda w, cfg, _: step_grads(
        [(None, FRAMES, np.full((2, MODEL_CFG.history_len), MODEL_CFG.pad_id),
          lambda logits: (0.0, None))], w, cfg),
    "save": lambda w, cfg, tmp_path: save(w, cfg, str(tmp_path / "m.rnnt")),
}


@pytest.mark.parametrize("field", sorted(CHANGES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_disagreeing_config_is_config_error(entry, field, tmp_path):
    w = init_weights(MODEL_CFG, seed=0)
    with pytest.raises(ConfigError, match=rf"\b{field} \(model "):
        ENTRY_POINTS[entry](w, replace(MODEL_CFG, **{field: CHANGES[field]}), tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing saved


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_equal_config_object_is_accepted(entry, tmp_path):
    w = init_weights(MODEL_CFG, seed=0)
    ENTRY_POINTS[entry](w, replace(MODEL_CFG), tmp_path)


def test_check_returns_the_models_config_and_names_every_difference():
    w = init_weights(MODEL_CFG, seed=0)
    assert check_config(w, replace(MODEL_CFG)) is w.config
    with pytest.raises(ConfigError) as err:
        check_config(w, replace(MODEL_CFG, vocab_size=5, tied=False))
    assert str(err.value) == (
        "config disagrees with the model's on vocab_size (model 4, config 5), "
        "tied (model True, config False)"
    )
