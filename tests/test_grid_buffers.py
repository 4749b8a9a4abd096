"""The training grid: bit pins of the loss and risk gradients, and a bound
on the memory one utterance's gradient allocates.

The digests were recorded before ``forward_grid``, ``transducer_loss``,
``backprop_decoder`` and ``log_softmax`` built their grids in place; the
in-place forms must perform the same IEEE operations in the same order.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from rnntdec.backprop import backprop_decoder, forward_grid
from rnntdec.embr import utterance_risk_grads
from rnntdec.errors import StateError
from rnntdec.lattice import transducer_loss
from rnntdec.toy import Utterance, frames_for
from rnntdec.train import utterance_loss_grads
from rnntdec.weights import init_encoder_stub, init_weights

from helpers import tiny_config

D_FEAT = 6
# (frames, labels) of the two utterance shapes: the benchmark's ``long``
# decode utterance (35 labels, 4 frames each) and a toy-sized one
SHAPES = {"long": (140, 35), "toy": (12, 4)}


def grad_case(variant, tied, dtype, shape):
    cfg = tiny_config(variant, tied=tied)
    w = init_weights(cfg, seed=11, dtype=dtype)
    w.enc_stub = init_encoder_stub(D_FEAT, cfg.d_enc, 12, dtype=dtype)
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
    for variant in ("reduced", "stateless1emb", "concat2emb", "lstm")
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
# product per step (the loss and risk values stayed bit-equal)
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
    "risk-reduced-tied-f8-long": "e504cd4636a7ef4a8c6977bf70ff94d542d71ba0248f27e83895d56965410cd0",
    "risk-reduced-tied-f8-toy": "738838f1cea818ce967cee7d4f784fc18408a3c6b5b4a7173946d785bcf8eb7f",
    "risk-reduced-tied-f4-long": "20b5f25f5810a46c20ee3394c0e842a6f2ed5b279615bd9122b977155adb21a0",
    "risk-reduced-tied-f4-toy": "b631d83b0c5370cd32ecf6a10e8bb7a3e6da6d836a8c9cc05009d8f5ad20d68c",
    "risk-reduced-untied-f8-long": "e053da4b484ddf6804a64ca96093cafc0e2e714dad115ff039771d0a25e1777d",
    "risk-reduced-untied-f8-toy": "836338696a7a3b60c0bc51f4ea3fdb97c3f69a58a63944f9f1ec64c00dc49469",
    "risk-reduced-untied-f4-long": "cadcd8cb54a72aa048220ac5523f8e9fa27756a2a93441087203607f9830c335",
    "risk-reduced-untied-f4-toy": "37e605c5754427b72cc2b93aed2cf7893d72f5f13f22af053035fd10f9c25320",
    "risk-stateless1emb-tied-f8-long": "ce8cbcf543b89bb47d0ddfd88027c622986f43ef445f6648f0fb8dc071198adb",
    "risk-stateless1emb-tied-f8-toy": "cada48147239448599e69d948bb9f98ae03f77217db7bbebca52ab1db6dfbee2",
    "risk-stateless1emb-tied-f4-long": "3723936f8fd985e297612ea6f3534cac5ee81db0dec977ce1269dfad9a8e1cc7",
    "risk-stateless1emb-tied-f4-toy": "c18e33dd3bc2b7182703e190a8967fdcfade60dfd115a98058b4a97aa6026a59",
    "risk-stateless1emb-untied-f8-long": "8f8297d28645ec544dac9024eee624daacf40dcbb850ed81aec6773cfc27e05b",
    "risk-stateless1emb-untied-f8-toy": "c890f13d843628f57fc4ebf25a49375239342ffdb14ae96687efee3b49ddbfc9",
    "risk-stateless1emb-untied-f4-long": "aea285d17c77105f160b1b84db1807069ded3f01337b347ad1b439346c1cd8f1",
    "risk-stateless1emb-untied-f4-toy": "e6d46f098aed99aac83e5743f6d622d9be8c4af53c04773fe6ce8362f299c126",
    "risk-concat2emb-tied-f8-long": "eba6e2ec26e1849b09009895e32ca13e80c28d98c0fde15ed1edf56ec0c081d5",
    "risk-concat2emb-tied-f8-toy": "c51baa49ef9e64c221db1d1ea5a33c8bd8099c605cf5406bfc91bd4848e08f8f",
    "risk-concat2emb-tied-f4-long": "f4f638f678f05ff7c259ad79441c9e7285791a5caa5304c3747a67652c452338",
    "risk-concat2emb-tied-f4-toy": "b3a63b5221af93732c0da218bb89b0352859419236d69feae81d5c9ab286ad17",
    "risk-concat2emb-untied-f8-long": "bd815fc91eb51450c5e381eb74fb363bf6edb79bab0475a6b32fdd6834825446",
    "risk-concat2emb-untied-f8-toy": "c97fa6090d81391316a63f85deb2db61974ca0e5b7e36ae3d8824ef20ed9960f",
    "risk-concat2emb-untied-f4-long": "21c68f0c4d9b5bd8926f4a6eafc1a66efeb1d3024620c73f0acdebf3acf24955",
    "risk-concat2emb-untied-f4-toy": "e18a912c00ee565996f07d767713d35f38d6b205a94f506ad0d64d1e31ac37e2",
    "risk-lstm-tied-f8-long": "3e2afcc1e9f0f14a92c49211981403968fe541c650274a720ac24f43a4262d5e",
    "risk-lstm-tied-f8-toy": "73bfc4de193295f76ec021d648a05637f9c4e7f4c6ea3b99b1a9d84fe28ecbaf",
    "risk-lstm-tied-f4-long": "46a2428228c4bf43419ff4d883254816892d818bedb6a5920df700fd58e93ae4",
    "risk-lstm-tied-f4-toy": "652c921e45cef6d9680da488af340c585eb67b941f07c12a2efc831a8f03ff73",
    "risk-lstm-untied-f8-long": "136a266cef1191b8b08760c9859de40b92c60c9f15789ff8faf4128f3b77c4d8",
    "risk-lstm-untied-f8-toy": "63f343acac5daabad6542605194a99d32294b3e592b87782b87e4a139ce9530e",
    "risk-lstm-untied-f4-long": "59a7c413261157f71b865f4fbe601f28566d4d79e7dc0f9ecfb8e705d655fdcc",
    "risk-lstm-untied-f4-toy": "d432eba35da4d107ed82133f3aa2fd1247b8a53d2fba2675264dafbea60a760c",
}


@pytest.mark.parametrize("key", CASES)
def test_gradients_match_recorded_digest(key):
    assert case_digest(key) == GRAD_DIGESTS[key]


def test_gradient_peak_allocation_is_at_most_three_hidden_grids():
    # the ``long`` training shape of configs/toy_reduced.json's decoder
    cfg = tiny_config("reduced", vocab_size=5, d_e=32, d_h=32, d_enc=32, num_heads=4, tied=True)
    w = init_weights(cfg, seed=0)
    w.enc_stub = init_encoder_stub(8, cfg.d_enc, 1)
    T, U = SHAPES["long"]
    rng = np.random.default_rng(2)
    utt = Utterance(rng.normal(size=(T, 8)), rng.integers(0, cfg.vocab_size, size=U).tolist())
    hidden_grid = T * (U + 1) * cfg.d_h * 8
    utterance_loss_grads(utt, w, cfg)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        utterance_loss_grads(utt, w, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 4.74 grids with one fresh temporary per elementwise step
    assert peak <= 3 * hidden_grid, f"peak {peak / hidden_grid:.2f} hidden grids"


def test_a_cache_serves_one_backward_pass_and_logits_stay_untouched():
    utt, w, cfg = grad_case("reduced", True, np.dtype("f8"), "toy")
    logits, cache = forward_grid(frames_for(utt, w), utt.labels, w, cfg)
    before = logits.copy()
    result = transducer_loss(logits, utt.labels)
    backprop_decoder(result.dlogits, cache, w, cfg)
    np.testing.assert_array_equal(logits, before)
    with pytest.raises(StateError):
        backprop_decoder(result.dlogits, cache, w, cfg)
