"""The training grid: bit pins of the loss and risk gradients, a step over
several utterances against those utterances alone, and a bound on the
memory a gradient allocates.

The digests were recorded before ``forward_grid``, ``transducer_loss``,
``backprop_decoder`` and ``log_softmax`` built their grids in place; the
in-place forms must perform the same IEEE operations in the same order.
A step of one utterance is that utterance's gradient, bit for bit.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rnntdec.backprop import step_grads, target_windows
from rnntdec.embr import _distinct_windows, _risk_item, utterance_risk, utterance_risk_grads
from rnntdec.errors import DomainError
from rnntdec.toy import Utterance, frames_for
from rnntdec.train import _loss_item, utterance_loss_grads
from rnntdec.weights import init_encoder_stub, init_weights

from helpers import tiny_config

D_FEAT = 6
# (frames, labels) of the two utterance shapes: the benchmark's ``long``
# decode utterance (35 labels, 4 frames each) and a toy-sized one
SHAPES = {"long": (140, 35), "toy": (12, 4)}
VARIANTS = ("reduced", "stateless1emb", "concat2emb", "lstm")


def model_case(variant, tied, dtype):
    cfg = tiny_config(variant, tied=tied)
    w = init_weights(cfg, seed=11, dtype=dtype)
    w.enc_stub = init_encoder_stub(D_FEAT, cfg.d_enc, 12, dtype=dtype)
    return w, cfg


def grad_case(variant, tied, dtype, shape):
    w, cfg = model_case(variant, tied, dtype)
    T, U = SHAPES[shape]
    rng = np.random.default_rng(13)
    labels = rng.integers(0, cfg.vocab_size, size=U).tolist()
    features = rng.normal(size=(T, D_FEAT)).astype(dtype)
    return Utterance(features, labels), w, cfg


def nbest_of(labels, vocab_size):
    """The reference plus a substitution, a deletion and an insertion."""
    ref = tuple(labels)
    sub = ref[:1] + ((ref[1] + 1) % vocab_size,) + ref[2:]
    return [ref, sub, ref[:-1], ref[:2] + (ref[0],) + ref[2:]]


def digest(value, grads) -> str:
    """sha256 of the float64 value, then every gradient by name: its name,
    dtype, shape and bytes."""
    h = hashlib.sha256(np.float64(value).tobytes())
    for name in sorted(grads):
        g = np.ascontiguousarray(grads[name])
        h.update(f"{name}{g.dtype.str}{g.shape}".encode())
        h.update(g.tobytes())
    return h.hexdigest()


def case_digest(key) -> str:
    kind, variant, tied, dtype, shape = key.split("-")
    utt, w, cfg = grad_case(variant, tied == "tied", np.dtype(dtype), shape)
    if kind == "loss":
        return digest(*utterance_loss_grads(utt, w, cfg))
    return digest(*utterance_risk_grads(utt, nbest_of(utt.labels, cfg.vocab_size), w, cfg))


CASES = [
    f"{kind}-{variant}-{tied}-{dtype}-{shape}"
    for kind in ("loss", "risk")
    for variant in VARIANTS
    for tied in ("tied", "untied")
    for dtype in ("f8", "f4")
    for shape in SHAPES
]

# recorded from the grids built one fresh temporary per elementwise step; the
# 16 f4 risk digests were re-recorded when the risk path stopped rounding its
# summed frame gradient to f4 before the encoder-stub product (the loss path
# never did), and equal that older code with the sum started in float64; the
# 16 lstm digests were re-recorded when the LSTM backward pass went lockstep
# over all histories, which sums each weight gradient over the rows in one
# product per step (the loss and risk values stayed bit-equal); the 32 risk
# digests were re-recorded when the risk path moved to one grid per n-best
# list, summing the candidates' scaled dlogits before one backward pass
# rather than the candidates' gradients after one pass each (the risk values
# stayed bit-equal)
GRAD_DIGESTS = {
    "loss-reduced-tied-f8-long": "27e130bb9f035236cbf5abc843571cda828805c4e39c242a38588b8402da59c9",
    "loss-reduced-tied-f8-toy": "2663d8693ae5f33b7193fd03e8cbf3a22d79ebea68e4292e6cbc46e08a139b4e",
    "loss-reduced-tied-f4-long": "23182348cee585ace2777df955f2137865b4aea6959e3f7587f775d6406edc61",
    "loss-reduced-tied-f4-toy": "4e2c98f0a3cd4f6a5439f2dbec60843cbb4417a1b2756724dceeee712ff17b4c",
    "loss-reduced-untied-f8-long": "d05918bafcf8a4c48b5af063ef43e9bf9cde6639b657069ed67155d439b2fbf0",
    "loss-reduced-untied-f8-toy": "ecfc4405b1f460cf7b8575e0d7f563aa22385f6811396d8a22e6cfad96d84252",
    "loss-reduced-untied-f4-long": "e0700917610549f8bfbb9269b12e69211583c443a32c4288e0727f8353b3aeac",
    "loss-reduced-untied-f4-toy": "48acd7c5d0d857b3ff41115d9cd18add543fda41f85e82c38a2ac33f85cc0221",
    "loss-stateless1emb-tied-f8-long": "71562873abf2f1ddcc1ec1b2fea068d1f6112f447ca5bf1e6b94148e0a0334ef",
    "loss-stateless1emb-tied-f8-toy": "5060391e1edf36d99eb308f99539eed3c54595a105c697749cb74ed85f89a9b4",
    "loss-stateless1emb-tied-f4-long": "c49249e8e72e2f65b934dad4bd9511f419a644d4f31ea7215703001348135022",
    "loss-stateless1emb-tied-f4-toy": "00691e18af339e8d50fb37a5428761323b27651d4536dccd1a3ebf743c08db98",
    "loss-stateless1emb-untied-f8-long": "83f784997d980b9a827f5bd7f25bf76d79b8d85e5bc9482f8bbc3235cfc3e9b8",
    "loss-stateless1emb-untied-f8-toy": "22f9cba1c225327d31a56b329f2560b8ddf9c28e55f2262aa81d7cd472cbd08a",
    "loss-stateless1emb-untied-f4-long": "cdc6ffcb4cb5154913bcfb44f4c503c2afa65a4b84b2c2b909f6ebf72083a647",
    "loss-stateless1emb-untied-f4-toy": "ac9f187b2fbee7ff5c2ac790245210e6ed09df282ec240188c3c19f86abafa9e",
    "loss-concat2emb-tied-f8-long": "4e0f8ed0c873ce5d427275dc5f4ec1f3b1c5c6f77b05fb2d664a0114328ecbd9",
    "loss-concat2emb-tied-f8-toy": "31f3a587e2cc9af5ada5b110f9315ffb8f36ffde7dd16648d9b65161a9b4ab30",
    "loss-concat2emb-tied-f4-long": "6d466d6f58b38f836d6bf00cfd2cd7395905cf28ea8548fa94db3f347ceed121",
    "loss-concat2emb-tied-f4-toy": "f60ae87b86f8a42e8927e12f7a1f77f3640e9232a56381685893f30bdf1dfe1e",
    "loss-concat2emb-untied-f8-long": "ce5d1be28523075923d303ac06ab4e9a3ef99a24446ce1c9a866d9c572b77445",
    "loss-concat2emb-untied-f8-toy": "1779e9a4f313041cae5d2ce2e6859e371b50ac5ef07eb1db48bb537899e4d90f",
    "loss-concat2emb-untied-f4-long": "deba7416be38d8d2a3b5f0eff4c8c031fbb5f655babb351e5eb79976f0042b45",
    "loss-concat2emb-untied-f4-toy": "f3f082100e35728d446ff75802c1ef2030871a155d5ba19622dec1fefc30519f",
    "loss-lstm-tied-f8-long": "a99f6a304eb369d3d8d059e5ac9ad5db0b834047a5ed07ee7e1e784dd2bb0546",
    "loss-lstm-tied-f8-toy": "90025b68a933445b4e31846c72ab28de7ddfe151d9422e1a83bd1cdd777f98ae",
    "loss-lstm-tied-f4-long": "a2b9d71f771740be4dccb97d07694dad4b67cd651c68f5fe31f4c50331b7ebc0",
    "loss-lstm-tied-f4-toy": "676a453b236569da884af2c8bd632387a84ff102c03ec452c3e1903cca1f19c5",
    "loss-lstm-untied-f8-long": "b84e5cb991fab8af7ea7a0fa4145d9ed09deca900899c7a7ec2dc6cfdb342d30",
    "loss-lstm-untied-f8-toy": "742d0f578c9e95689b7deff09cfec279cb9953e0e0ac2cd481f3a256197fd9a7",
    "loss-lstm-untied-f4-long": "0ff7ddfd98abf1686ae3b56f913b12426cdc4fc4b7b923088326a3f54e763ab3",
    "loss-lstm-untied-f4-toy": "db41b31d63b79c403bf4434f0a814b60ad66eb7cc7d4672a7431a6558a6d6514",
    "risk-reduced-tied-f8-long": "64e69603a9c343caf890a4629aa15ff27bda24ec99b3cd16316aadeaedbe653f",
    "risk-reduced-tied-f8-toy": "991a275eda4b3f170a8f7cf27d67be3dd4a357810d49bb0c11b171017f6b1339",
    "risk-reduced-tied-f4-long": "40eb459c27ffec214e29ed55994b1987ef6b10bbfa041a7f74bf34727df2b107",
    "risk-reduced-tied-f4-toy": "ddd63df7bf1ac8fd1baf93888a31305db8d0e05a2051cf06ab48b65856857faa",
    "risk-reduced-untied-f8-long": "ed127850c658794eb7233336b16eb164fcf52e0cacd43aecdfda3c1f1634516f",
    "risk-reduced-untied-f8-toy": "b29edb873d202d9fa052f5af61f44833f2e66eff41a94f59433f3c3fa0228add",
    "risk-reduced-untied-f4-long": "92083b70fb96707dc238ede21e7218dcfeda9435c06e5bce331f74a8d4d02415",
    "risk-reduced-untied-f4-toy": "ee9a907c8676c472f9334493b8cbff398ad5cd48a31069e93e1c451905c16f8a",
    "risk-stateless1emb-tied-f8-long": "91677ba45cba836bcc3d734708dc6ecfd69e8612f1bf8ed21c4b99276c9b3aff",
    "risk-stateless1emb-tied-f8-toy": "e29c9ffe13629ffc8d9f6e3d1a581a0e094081e11e6dcad531006a84310f4299",
    "risk-stateless1emb-tied-f4-long": "ef4bc308c7f2385f23e858835f1f08afa691a538debb939381abd36c536c0cad",
    "risk-stateless1emb-tied-f4-toy": "74ec56c3918b825762420ec7406caf8551d6139019b16a008a545c8f40a94dde",
    "risk-stateless1emb-untied-f8-long": "22a78e0fe3a9b622335981a95684f804c0255e2d0a2eccb64a25871fef82ce9f",
    "risk-stateless1emb-untied-f8-toy": "6f1e9616390ddf196341b45e7631ddeea79a68497b535843b45dc58c8000010d",
    "risk-stateless1emb-untied-f4-long": "14b0d93d9205f007a7504ccfafc587a3babcc184d9695091756077ec1e7fe0c2",
    "risk-stateless1emb-untied-f4-toy": "87c4f43c71f9495f9127590e89d609c9578b5809bf13bee284827de6a51ab95b",
    "risk-concat2emb-tied-f8-long": "09b9594df614988217f1379d7bfbf47c652dae096bb70fbf793c5c726128dc3c",
    "risk-concat2emb-tied-f8-toy": "404b58bd8d27f8492a973240fff3236eeb866d5eb678f5fb8c2d045345e76390",
    "risk-concat2emb-tied-f4-long": "6fc6993375033bd7befb83f479317fdb86ce92dd756ae666bcedef9da6d03e6b",
    "risk-concat2emb-tied-f4-toy": "549ba5ec0bff887b82c5e1c512ae243bb7122a32a5848854400b33313d866a8c",
    "risk-concat2emb-untied-f8-long": "45d3ec8c69fa603dbd805bf0bf18f76fd729228e70cc174b69f137226b5415fe",
    "risk-concat2emb-untied-f8-toy": "c9d8d96ea9baff21ef9d4c6d9c14647045e6ff5ae61d4156fb71449284dd456e",
    "risk-concat2emb-untied-f4-long": "ab80eef9d6cda8a1f7e1f858d2d5d20ec0669f4c9e136800ddb4a12456e492a2",
    "risk-concat2emb-untied-f4-toy": "142f63b0b38a552ef726d67e3df11aa76c20ee2cf851c50e5a84ad6fd342ccae",
    "risk-lstm-tied-f8-long": "b4ab853a5843216afa9173702cfb795ce357ba2f24815a3873c3c2f3d6b6fda1",
    "risk-lstm-tied-f8-toy": "ac7702a249937ac0dcf83f507f24c431429f4384043ada6a2dc945a075c0b09a",
    "risk-lstm-tied-f4-long": "bd79fce395fde584457fe797a7016064246f161c226b3e473818f3cd15e48848",
    "risk-lstm-tied-f4-toy": "525cf9db4bde2e6f0a98ecdae23e42377a3c813c902fab047029788046f3376a",
    "risk-lstm-untied-f8-long": "2043bc8ac8ac654e61e884154ca3e6b10a50c4bbd28b912000fc90e237f55f29",
    "risk-lstm-untied-f8-toy": "bfc7eec84543b4cb81f15f9316cce70a8f81f9b89e245556cc332b1944bfc5d8",
    "risk-lstm-untied-f4-long": "d7a854c172499bed006650574d5e44d5ed5189736eade27990189ff859d2f3f3",
    "risk-lstm-untied-f4-toy": "fa916b06217a73d3a54ef9ccc21baaf8e2c92aabe2353f71e59e94562b5d73e5",
}


@pytest.mark.parametrize("key", CASES)
def test_gradients_match_recorded_digest(key):
    assert case_digest(key) == GRAD_DIGESTS[key]


def loss_step(utts, w, cfg):
    return step_grads([_loss_item(u, w, cfg) for u in utts], w, cfg)


def risk_step(utts, lists, w, cfg):
    items = [_risk_item(u, frames_for(u, w), nbest, w, cfg, 1.0) for u, nbest in zip(utts, lists)]
    return step_grads(items, w, cfg)


# (frames, labels) of a step's utterances: a training step takes all three,
# an EMBR step the first two
STEP_SHAPES = [(12, 4), (9, 3), (15, 5)]
# the mean gradient sums the utterances in another order than a step, which
# accumulates into one set in the model's dtype
STEP_REL_TOL = {np.dtype("f8"): 1e-12, np.dtype("f4"): 8 * np.finfo(np.float32).eps}


def step_case(variant, tied, dtype, n):
    w, cfg = model_case(variant, tied, dtype)
    rng = np.random.default_rng(14)
    utts = [Utterance(rng.normal(size=(T, D_FEAT)).astype(dtype),
                      rng.integers(0, cfg.vocab_size, size=U).tolist()) for T, U in STEP_SHAPES[:n]]
    return utts, w, cfg


def assert_step_is_the_mean(step, alone):
    """A step's value is bit-equal to the mean of its utterances' values,
    summed in order, and each gradient is within STEP_REL_TOL (relative to
    the tensor's largest entry) of the mean of their gradients."""
    value, grads = step
    total = 0.0
    for v, _ in alone:
        total += v
    assert value == total / len(alone)
    for name, g in grads.items():
        assert g.dtype == alone[0][1][name].dtype
        mean = sum(a[name].astype(np.float64) for _, a in alone) / len(alone)
        assert np.abs(g - mean).max() <= STEP_REL_TOL[g.dtype] * np.abs(mean).max(), name


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_training_step_is_the_mean_of_its_utterances(variant, tied, dtype):
    utts, w, cfg = step_case(variant, tied, np.dtype(dtype), 3)
    alone = [utterance_loss_grads(u, w, cfg) for u in utts]
    assert_step_is_the_mean(loss_step(utts, w, cfg), alone)


@pytest.mark.parametrize("dtype", ["f8", "f4"])
@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_an_embr_step_is_the_mean_of_its_utterances(variant, tied, dtype):
    utts, w, cfg = step_case(variant, tied, np.dtype(dtype), 2)
    lists = [nbest_of(u.labels, cfg.vocab_size) for u in utts]
    alone = [utterance_risk_grads(u, nbest, w, cfg) for u, nbest in zip(utts, lists)]
    assert_step_is_the_mean(risk_step(utts, lists, w, cfg), alone)


@pytest.mark.parametrize("variant", VARIANTS)
def test_an_utterance_with_zero_risk_gradient_counts_in_the_step_mean(variant):
    utts, w, cfg = step_case(variant, True, np.dtype("f8"), 2)
    # a list of the reference alone has risk 0 and a zero gradient
    lists = [nbest_of(utts[0].labels, cfg.vocab_size), [tuple(utts[1].labels)]]
    alone = [utterance_risk_grads(u, nbest, w, cfg) for u, nbest in zip(utts, lists)]
    assert alone[1][0] == 0.0 and not any(g.any() for g in alone[1][1].values())
    assert_step_is_the_mean(risk_step(utts, lists, w, cfg), alone)


def test_gradient_peak_allocation_is_at_most_three_hidden_grids():
    # the ``long`` training shape of configs/toy_reduced.json's decoder, for
    # the loss and for the risk of ``nbest_of``'s four candidates, of one
    # utterance and of a whole step
    cfg = tiny_config("reduced", vocab_size=5, d_e=32, d_h=32, d_enc=32, num_heads=4, tied=True)
    w = init_weights(cfg, seed=0)
    w.enc_stub = init_encoder_stub(8, cfg.d_enc, 1)
    T, U = SHAPES["long"]
    rng = np.random.default_rng(2)
    utts = [Utterance(rng.normal(size=(T, 8)), rng.integers(0, cfg.vocab_size, size=U).tolist())
            for _ in range(4)]
    utt = utts[0]
    hidden_grid = T * (U + 1) * cfg.d_h * 8
    nbest = nbest_of(utt.labels, cfg.vocab_size)
    lists = [nbest_of(u.labels, cfg.vocab_size) for u in utts[:2]]
    # 4.74 grids for the loss with one fresh temporary per elementwise step;
    # 6.61 for the risk with one grid per candidate; a step must free each
    # utterance's grids before the next utterance builds its own
    for name, grads in (("loss", lambda: utterance_loss_grads(utt, w, cfg)),
                        ("risk", lambda: utterance_risk_grads(utt, nbest, w, cfg)),
                        ("loss step of 4", lambda: loss_step(utts, w, cfg)),
                        ("risk step of 2", lambda: risk_step(utts[:2], lists, w, cfg))):
        grads()  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * hidden_grid, f"{name}: peak {peak / hidden_grid:.2f} hidden grids"


def test_logits_stay_untouched_by_the_loss_and_backward_pass():
    utt, w, cfg = grad_case("reduced", True, np.dtype("f8"), "toy")
    features, frames, windows, loss = _loss_item(utt, w, cfg)
    seen = []

    def objective(logits):
        seen.append((logits, logits.copy()))
        return loss(logits)

    step_grads([(features, frames, windows, objective)], w, cfg)
    logits, before = seen[0]
    np.testing.assert_array_equal(logits, before)


def test_an_nbest_grid_holds_each_window_once():
    cfg = tiny_config("reduced", vocab_size=5)  # history_len 2
    # labels 1 1 1 meet the window (1, 1) twice
    nbest = [(1, 1, 1), (1, 1), (2, 1, 1, 3)]
    ids, cols = _distinct_windows(nbest, cfg)
    assert len({tuple(row) for row in ids.tolist()}) == len(ids)
    for labels, c in zip(nbest, cols):
        np.testing.assert_array_equal(ids[c], target_windows(labels, cfg))
    assert cols[0].tolist() == [0, 1, 2, 2]


def test_an_empty_nbest_list_is_a_domain_error():
    utt, w, cfg = grad_case("concat2emb", False, np.dtype("f8"), "toy")
    for score in (utterance_risk, utterance_risk_grads):
        with pytest.raises(DomainError, match="non-empty"):
            score(utt, [], w, cfg)
