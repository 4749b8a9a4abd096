"""Bit pins of ``make_toy_dataset``: every split of every spec below must
hash to the digest recorded from the one-draw-per-pick generator (one
``SeededRng.integers`` call per label pick and per frame count)."""

import hashlib

import numpy as np
import pytest

from rnntdec import ToyTaskSpec, make_toy_dataset

LONG = dict(min_target_len=35, max_target_len=35, frames_per_label_min=4,
            frames_per_label_max=4, dataset_size=12)
V4096 = dict(vocab_size=4096, feature_dim=4096, min_target_len=1, max_target_len=2,
             frames_per_label_min=2, frames_per_label_max=3, dataset_size=12,
             dev_fraction=0.25)

SPECS = {
    "toy": {},
    "long": LONG,
    "v4096": V4096,
    "one-label": dict(min_target_len=1, max_target_len=1),
    "one-frame": dict(frames_per_label_min=1, frames_per_label_max=1),
    "noiseless": dict(noise_std=0.0),
    "V2": dict(vocab_size=2, max_target_len=9),
    "V3": dict(vocab_size=3, frames_per_label_max=6, dataset_size=40),
    "V7": dict(vocab_size=7, feature_dim=7, noise_std=0.5, split_seed=9),
}
SEEDS = (0, 3, 0xDEADBEEF)


def dataset_digest(spec: ToyTaskSpec, seed: int) -> str:
    """sha256 over both splits: per utterance its feature shape, dtype and
    bytes and its labels as little-endian int64."""
    h = hashlib.sha256()
    for split in make_toy_dataset(spec, seed):
        h.update(len(split).to_bytes(8, "little"))
        for utt in split:
            h.update(f"{utt.features.shape}{utt.features.dtype.str}".encode())
            h.update(np.ascontiguousarray(utt.features).tobytes())
            h.update(np.asarray(utt.labels, dtype="<i8").tobytes())
    return h.hexdigest()


# recorded from the one-draw-per-pick generator
DATASET_DIGESTS = {
    "V2-0": "49cf96dff9d71aabbc4558f059f788b31fce32f115b1ec2b719ffe477e63cba1",
    "V2-3": "8213015c05afbf1fcd3ee82e1c21cf5496c149bb66be1be33c4ac39e59b61239",
    "V2-3735928559": "d0e6a3798f9a6c07e8675623f1ea98225721d043cf1ce6a1551cf92f2f687848",
    "V3-0": "7daac7f1f3668c324796af955355446f73a0449184259aa566b3efe2d53dde87",
    "V3-3": "9515946e0b401dcebe775b577b3393da506738fdab6d6e50311d63262f16267d",
    "V3-3735928559": "8bdbbe58cd681b6d7e0fb3643c7537d042382e782c11439db888c99fe5064d41",
    "V7-0": "cb32d7bcac4df21c62a78260ab33fafff5e163adc8c89bfafa7d16a187250aa6",
    "V7-3": "facfb1d1a8141221884fbeb743603f4409511e17e99c9e6abe42fcc3080ec3fb",
    "V7-3735928559": "8a874b8672ae607960be157b6eb13088b2910a949019176d173deefcb53459a7",
    "long-0": "80cd092dc64d2b4709c5af3f3da19d7a8453f6eed93089a5429629fd1faff1be",
    "long-3": "32d2e05a874ad52455f3d7848ed88002dbf2a854f63e4bd0db5e5eeb585db785",
    "long-3735928559": "d08d56e9d18d780f0649c7162d4634787a92c38ddfacae8d83fb64e0029de2b2",
    "noiseless-0": "7b8282e4264ba4380f69f9b7dee4231e1340a8783ef883b976a07fee36457cb5",
    "noiseless-3": "1331f1167a8c8b2fa900dcb8285771ed7579fa41493dadebc1f29b9cc17a70a5",
    "noiseless-3735928559": "f24b8363876167e8a6f78084658cce81958562191aaf1e56b07270e2792e6ef2",
    "one-frame-0": "f5c62d78e055b32d2c8f00c6529eb7d84d642f3ee38709b9a9143b1b0bb7b0bb",
    "one-frame-3": "41263f6c7a797bf7b77271d0ccdb9a02f2ad177b27aee485c70819511b82c47c",
    "one-frame-3735928559": "46b5e635acb5933c6cb1a44fa0a265dfaa9c010267e1aa83823517c7f34343d0",
    "one-label-0": "c092b6bbf2317a391f456bf399665f24b30bec78e7c7cff7f588825f28228bce",
    "one-label-3": "679e1f9ee7556f638e28117c013d976cbaae06c0014d338e839dcef34125d83e",
    "one-label-3735928559": "86b930aeb5ec701d7fc5b0235350b523aab39c354d2926410c1bf7da39ab7ca7",
    "toy-0": "e4712fd7118c7006d13fc0cd28b1a8cb7ee91dbe6c4444c86190c26f2d14bad6",
    "toy-3": "4194cb474381a2f538de6bc36baffe4df25ad47ec98e10f010dc0cbcfa4da0b5",
    "toy-3735928559": "4c6b68449faf31c66376e07efb7d837ee95158a25c3021517b9902c1292348b9",
    "v4096-0": "2142535ebd5a4a6f2715d2eae77ff08a4da6d6467810d89bf4134812f83cbb0f",
    "v4096-3": "6dda2b05ed2ef01fde7f8bdf0175b3910d884aa9a541665a474a794c2299150c",
    "v4096-3735928559": "9484be0bfee26a67a1f52b50364e5ace7c0f7d63055a4b5cf79cf44827cb19b7",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_dataset_matches_recorded_digest(name, seed):
    assert dataset_digest(ToyTaskSpec(**SPECS[name]), seed) == DATASET_DIGESTS[f"{name}-{seed}"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_labels_are_python_ints_without_adjacent_repeats(name):
    spec = ToyTaskSpec(**SPECS[name])
    train_set, dev_set = make_toy_dataset(spec, 5)
    for utt in train_set + dev_set:
        assert all(type(y) is int and 0 <= y < spec.vocab_size for y in utt.labels)
        assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))
        assert utt.features.dtype == np.float64 and utt.features.flags.c_contiguous
