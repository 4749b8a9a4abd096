import errno
import hashlib
import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

import rnntdec.model_io
from rnntdec import convert_to_lookup, init_weights, load, load_lookup, read_archive, save, save_lookup
from rnntdec.cli import main
from rnntdec.errors import (
    ArchiveError,
    CorruptArchiveError,
    UnsupportedFormatError,
    ValidationError,
)
from rnntdec.weights import init_encoder_stub, trainable_tensors

from helpers import tiny_config


ALL_VARIANT_CONFIGS = [
    tiny_config("reduced", tied=True),
    tiny_config("reduced", d_h=6),
    tiny_config("stateless1emb"),
    tiny_config("concat2emb"),
    tiny_config("lstm"),
]


def rewrite_manifest(path, mutate):
    raw = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + mlen])
    mutate(manifest)
    enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    open(path, "wb").write(struct.pack("<Q", len(enc)) + enc + raw[8 + mlen :])


@pytest.mark.parametrize("cfg", ALL_VARIANT_CONFIGS, ids=lambda c: f"{c.variant}-{'t' if c.tied else 'u'}")
def test_round_trip_bit_exact(cfg, tmp_path):
    w = init_weights(cfg, seed=3)
    w.enc_stub = init_encoder_stub(4, cfg.d_enc, 5)
    path = str(tmp_path / "model.rnnt")
    save(w, cfg, path, seed=3)
    loaded, loaded_cfg = load(path)
    assert loaded_cfg == cfg
    for name, arr in trainable_tensors(w).items():
        np.testing.assert_array_equal(arr, trainable_tensors(loaded)[name])
    np.testing.assert_array_equal(w.emb, loaded.emb)
    if cfg.variant == "reduced":
        np.testing.assert_array_equal(w.positions, loaded.positions)
    if cfg.tied:
        assert loaded.out_w.base is not None
        loaded.emb[0, 0] = 42.0
        assert loaded.out_w[0, 0] == 42.0


def test_two_saves_byte_identical(tmp_path):
    cfg = tiny_config(tied=True)
    w = init_weights(cfg, seed=1)
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    save(w, cfg, p1)
    save(w, cfg, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_tied_blob_smaller_by_exact_slot_count(tmp_path):
    tied_cfg = tiny_config(tied=True)
    untied_cfg = replace(tied_cfg, tied=False)
    tied_path, untied_path = str(tmp_path / "t"), str(tmp_path / "u")
    save(init_weights(tied_cfg, seed=1), tied_cfg, tied_path)
    save(init_weights(untied_cfg, seed=1), untied_cfg, untied_path)
    tied_blob = len(read_archive(tied_path).blob)
    untied_blob = len(read_archive(untied_path).blob)
    slot_bytes = 8  # float64 archives
    assert untied_blob - tied_blob == tied_cfg.d_h * tied_cfg.vocab_size * slot_bytes


def test_truncated_blob_is_corruption_error(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-1])
    with pytest.raises(CorruptArchiveError):
        load(path)


def test_version_mismatch(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    rewrite_manifest(path, lambda m: m.update(format_version=99))
    with pytest.raises(UnsupportedFormatError):
        load(path)


def test_unknown_required_capability(tmp_path):
    cfg = tiny_config()
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    rewrite_manifest(path, lambda m: m.update(requires=["sparse-blobs"]))
    with pytest.raises(UnsupportedFormatError):
        load(path)


def test_tied_dim_mismatch_is_validation_error(tmp_path):
    cfg = tiny_config(tied=True)
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    rewrite_manifest(path, lambda m: m["config"].update(d_h=cfg.d_h + 1))
    with pytest.raises(ValidationError):
        load(path)


def test_nonzero_pad_row_is_validation_error(tmp_path):
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    path = str(tmp_path / "m")
    save(w, cfg, path)
    raw = bytearray(open(path, "rb").read())
    (mlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + mlen])
    entry = manifest["tensors"]["emb"]
    # poke the first pad-row float in the blob
    pad_offset = 8 + mlen + entry["offset"] + cfg.pad_id * cfg.d_e * 8
    raw[pad_offset : pad_offset + 8] = struct.pack("<d", 1.0)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValidationError, match="pad"):
        load(path)


def _set_entry(name, **fields):
    def mutate(manifest):
        manifest["tensors"][name].update(fields)
    return mutate


def _drop_offset(manifest):
    del manifest["tensors"]["enc_w"]["offset"]


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_set_entry("proj_w", rows=1, cols=25), ValidationError),
        (_set_entry("positions", rows=1), ValidationError),
        (_set_entry("emb", dtype="<f2"), CorruptArchiveError),
        (_drop_offset, CorruptArchiveError),
        (_set_entry("pred_w", rows="3"), CorruptArchiveError),
        (_set_entry("joint_b", offset=-8), CorruptArchiveError),
        (lambda m: m.pop("tensors"), CorruptArchiveError),
    ],
    ids=["proj_w-shape", "positions-rows", "dtype", "no-offset", "str-rows", "neg-offset", "no-tensors"],
)
def test_malformed_manifest_entry_is_typed_error(mutate, error, tmp_path):
    cfg = tiny_config(tied=True)
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    rewrite_manifest(path, mutate)
    with pytest.raises(error):
        load(path)
    assert main(["decode", path, str(tmp_path / "unused.json")]) == 3


def _overlap(manifest, blob):
    # positions claims emb's first bytes; the blob is unchanged
    manifest["tensors"]["positions"]["offset"] = manifest["tensors"]["emb"]["offset"]
    return blob


def _gap(manifest, blob):
    # 8 stray bytes before out_b, whose offset moves past them
    entry = manifest["tensors"]["out_b"]
    entry["offset"] += 8
    return blob[: entry["offset"] - 8] + bytes(8) + blob[entry["offset"] - 8 :]


def _trailing(manifest, blob):
    return blob + bytes(8)


@pytest.mark.parametrize("mutate", [_overlap, _gap, _trailing], ids=["overlap", "gap", "trailing-bytes"])
def test_blob_not_tiled_exactly_is_corruption_error(mutate, tmp_path):
    cfg = tiny_config(tied=True)
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    raw = open(path, "rb").read()
    (mlen,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + mlen])
    blob = mutate(manifest, raw[8 + mlen :])
    enc = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    open(path, "wb").write(struct.pack("<Q", len(enc)) + enc + blob)
    with pytest.raises(CorruptArchiveError, match="belong to no tensor|overlaps"):
        read_archive(path)
    with pytest.raises(CorruptArchiveError):
        load(path)
    assert main(["decode", path, str(tmp_path / "unused.json")]) == 3


@pytest.mark.parametrize(
    "cfg, field, value",
    [(tiny_config(tied=True), "d_e", 5.0), (tiny_config(history_len=1), "history_len", True)],
    ids=["float-d_e", "bool-history_len"],
)
def test_wrongly_typed_stored_config_is_validation_error(cfg, field, value, tmp_path):
    # each value equals the stored one (5.0 == 5, True == 1), so only the
    # type check can refuse it
    path = str(tmp_path / "m")
    save(init_weights(cfg, seed=0), cfg, path)
    rewrite_manifest(path, lambda m: m["config"].update({field: value}))
    with pytest.raises(ValidationError, match=f"config.{field}: expected"):
        load(path)
    assert main(["decode", path, str(tmp_path / "unused.json")]) == 3


class _FailingWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("kind", ["model", "lookup"])
def test_failed_save_keeps_the_old_archive(kind, tmp_path, monkeypatch):
    cfg = tiny_config(vocab_size=3, history_len=2, num_heads=1)
    w = init_weights(cfg, seed=4)
    path = str(tmp_path / "archive")

    def write():
        if kind == "model":
            save(w, cfg, path)
        else:
            save_lookup(convert_to_lookup(w, cfg), path)

    write()
    before = open(path, "rb").read()
    w.emb[0, 0] += 1.0  # the new archive would differ from the old one
    real_open = open
    monkeypatch.setattr(rnntdec.model_io, "open",
                        lambda p, mode="r": _FailingWriter(real_open(p, mode)), raising=False)
    with pytest.raises(ArchiveError, match="No space left"):
        write()
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["archive"]
    write()
    assert open(path, "rb").read() != before


def test_unknown_optional_fields_survive_resave(tmp_path):
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    path = str(tmp_path / "m")
    save(w, cfg, path, extra={"training_note": "toy run 7"})
    archive = read_archive(path)
    assert archive.extra == {"training_note": "toy run 7"}
    loaded, loaded_cfg = load(path)
    path2 = str(tmp_path / "m2")
    save(loaded, loaded_cfg, path2, extra=archive.extra)
    assert read_archive(path2).extra == {"training_note": "toy run 7"}


@pytest.mark.parametrize("manifest", [
    b'\xff\xfe{}',  # not UTF-8
    b'{"format_version": ' + b"1" * 5000 + b"}",  # past the 4300-digit int limit
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
], ids=["not_utf8", "huge_int", "deep"])
def test_unreadable_manifest_is_corruption_error(manifest, tmp_path):
    path = tmp_path / "m.rnnt"
    path.write_bytes(struct.pack("<Q", len(manifest)) + manifest)
    with pytest.raises(CorruptArchiveError, match="manifest is not valid JSON"):
        load(str(path))


def test_reserved_extra_key_rejected(tmp_path):
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    with pytest.raises(ArchiveError):
        save(w, cfg, str(tmp_path / "m"), extra={"tensors": {}})


def test_missing_file_is_archive_error(tmp_path):
    with pytest.raises(ArchiveError):
        load(str(tmp_path / "nope"))


def test_float32_round_trip(tmp_path):
    cfg = tiny_config(tied=True)
    w = init_weights(cfg, seed=2, dtype=np.float32)
    path = str(tmp_path / "m32")
    save(w, cfg, path)
    archive = read_archive(path)
    assert archive.manifest["tensors"]["emb"]["dtype"] == "<f4"
    loaded, _ = load(path)
    assert loaded.emb.dtype == np.float32
    np.testing.assert_array_equal(loaded.emb, w.emb)


def test_lookup_archive_round_trip(tmp_path):
    cfg = tiny_config(vocab_size=3, history_len=2, num_heads=1)
    w = init_weights(cfg, seed=4)
    table = convert_to_lookup(w, cfg)
    path = str(tmp_path / "table")
    save_lookup(table, path)
    loaded, loaded_cfg = load_lookup(path)
    assert loaded_cfg == cfg and loaded.config == cfg
    np.testing.assert_array_equal(loaded.table, table.table)
    with pytest.raises(UnsupportedFormatError):
        load(path)  # model loader refuses a lookup archive


def test_non_finite_lookup_table_is_validation_error(tmp_path):
    cfg = tiny_config(vocab_size=3, history_len=2, num_heads=1)
    table = convert_to_lookup(init_weights(cfg, seed=4), cfg)
    for bad in (np.nan, np.inf):
        table.table[5, 1] = bad
        path = str(tmp_path / "table")
        save_lookup(table, path)
        with pytest.raises(ValidationError, match="non-finite"):
            load_lookup(path)


# save() of models whose every tensor holds exactly representable values,
# recorded before the tensor table replaced the per-variant save/load code:
# key -> (sha256 of the archive, "name@offset:rowsxcols" in blob order).
GOLDEN_ARCHIVES = {
    "reduced-untied-f8-nostub": (
        "c05f337d9657368c6483c5f515e1601aa2b11edb8b9d2df37360907e019f03af",
        "emb@0:5x5 positions@200:4x5 proj_w@360:5x5 proj_b@560:1x5 ln_gamma@600:1x5 ln_beta@640:1x5 enc_w@680:4x5 pred_w@840:5x5 joint_b@1040:1x5 out_w@1080:4x5 blank_w@1240:1x5 out_b@1280:1x5",
    ),
    "reduced-untied-f8-stub": (
        "0a719c8408db10e3fd83d914f8c3421e7cec3d9375b4ac9eefc5843316bec1ff",
        "emb@0:5x5 positions@200:4x5 proj_w@360:5x5 proj_b@560:1x5 ln_gamma@600:1x5 ln_beta@640:1x5 enc_w@680:4x5 pred_w@840:5x5 joint_b@1040:1x5 out_w@1080:4x5 blank_w@1240:1x5 out_b@1280:1x5 enc_stub_w@1320:3x4 enc_stub_b@1416:1x4",
    ),
    "reduced-untied-f4-nostub": (
        "4973c03c8805a5526a38028ee63db0a737f6b6469d1eaa403fedf8718ba7e7f0",
        "emb@0:5x5 positions@100:4x5 proj_w@180:5x5 proj_b@280:1x5 ln_gamma@300:1x5 ln_beta@320:1x5 enc_w@340:4x5 pred_w@420:5x5 joint_b@520:1x5 out_w@540:4x5 blank_w@620:1x5 out_b@640:1x5",
    ),
    "reduced-untied-f4-stub": (
        "fd136bb0e5df2aa39a63867a6e90824342b57f11b43e66d5d19d0ef62e77740a",
        "emb@0:5x5 positions@100:4x5 proj_w@180:5x5 proj_b@280:1x5 ln_gamma@300:1x5 ln_beta@320:1x5 enc_w@340:4x5 pred_w@420:5x5 joint_b@520:1x5 out_w@540:4x5 blank_w@620:1x5 out_b@640:1x5 enc_stub_w@660:3x4 enc_stub_b@708:1x4",
    ),
    "reduced-tied-f8-nostub": (
        "6e1ce5c9d78d9a5cb55f64927ca9d209cf606587a844535d26098c142be99690",
        "emb@0:5x5 positions@200:4x5 proj_w@360:5x5 proj_b@560:1x5 ln_gamma@600:1x5 ln_beta@640:1x5 enc_w@680:4x5 pred_w@840:5x5 joint_b@1040:1x5 blank_w@1080:1x5 out_b@1120:1x5",
    ),
    "reduced-tied-f8-stub": (
        "41f89034bafea35e8dad29e488dfd9e7c7a95d8785180063d9fc3e8c21348a14",
        "emb@0:5x5 positions@200:4x5 proj_w@360:5x5 proj_b@560:1x5 ln_gamma@600:1x5 ln_beta@640:1x5 enc_w@680:4x5 pred_w@840:5x5 joint_b@1040:1x5 blank_w@1080:1x5 out_b@1120:1x5 enc_stub_w@1160:3x4 enc_stub_b@1256:1x4",
    ),
    "reduced-tied-f4-nostub": (
        "38ffb28ba078426876c7ff921a5d072bed979791ebf021bb0a2a43bb605874c8",
        "emb@0:5x5 positions@100:4x5 proj_w@180:5x5 proj_b@280:1x5 ln_gamma@300:1x5 ln_beta@320:1x5 enc_w@340:4x5 pred_w@420:5x5 joint_b@520:1x5 blank_w@540:1x5 out_b@560:1x5",
    ),
    "reduced-tied-f4-stub": (
        "c3d039cb2e8ea7f6921e774e23d2d6131e728636601f77e86807656a803cf3ed",
        "emb@0:5x5 positions@100:4x5 proj_w@180:5x5 proj_b@280:1x5 ln_gamma@300:1x5 ln_beta@320:1x5 enc_w@340:4x5 pred_w@420:5x5 joint_b@520:1x5 blank_w@540:1x5 out_b@560:1x5 enc_stub_w@580:3x4 enc_stub_b@628:1x4",
    ),
    "stateless1emb-untied-f8-nostub": (
        "20f93d2965139cdf6da9af48d8d825377a740f50a50d6d3b6d17dcc6b58f00d8",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:5x5 joint_b@560:1x5 out_w@600:4x5 blank_w@760:1x5 out_b@800:1x5",
    ),
    "stateless1emb-untied-f8-stub": (
        "629b9549d8d81848d6b91e957c02d60a57b110cebef4a57db8e527d7a50ce0fa",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:5x5 joint_b@560:1x5 out_w@600:4x5 blank_w@760:1x5 out_b@800:1x5 enc_stub_w@840:3x4 enc_stub_b@936:1x4",
    ),
    "stateless1emb-untied-f4-nostub": (
        "59fa9800fc98e69d4e16ab16badb00ebe0e1c3cee428b0fb0a2313c972e14437",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:5x5 joint_b@280:1x5 out_w@300:4x5 blank_w@380:1x5 out_b@400:1x5",
    ),
    "stateless1emb-untied-f4-stub": (
        "3a8a90dc065219a442831630e61ebef12fc6350f9e28f5ffb9c48f67ad343404",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:5x5 joint_b@280:1x5 out_w@300:4x5 blank_w@380:1x5 out_b@400:1x5 enc_stub_w@420:3x4 enc_stub_b@468:1x4",
    ),
    "stateless1emb-tied-f8-nostub": (
        "aed1c55dcd70ecb0bb47befc510b048640297ef0668ee122923059d52b0f40ef",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:5x5 joint_b@560:1x5 blank_w@600:1x5 out_b@640:1x5",
    ),
    "stateless1emb-tied-f8-stub": (
        "025d09ea884732626f0e217f887eb6d745288729e801731fa6948e4fd3b32407",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:5x5 joint_b@560:1x5 blank_w@600:1x5 out_b@640:1x5 enc_stub_w@680:3x4 enc_stub_b@776:1x4",
    ),
    "stateless1emb-tied-f4-nostub": (
        "73075b9a9e4e74afe5f8e47e4ebc0061e836b25d8f2bd56fda26f23f30520bbf",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:5x5 joint_b@280:1x5 blank_w@300:1x5 out_b@320:1x5",
    ),
    "stateless1emb-tied-f4-stub": (
        "08b099c3b07cefe8cfd012133533a51b1a733e54892c9a534894f0d759bd2503",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:5x5 joint_b@280:1x5 blank_w@300:1x5 out_b@320:1x5 enc_stub_w@340:3x4 enc_stub_b@388:1x4",
    ),
    "concat2emb-untied-f8-nostub": (
        "d1935342b890f99ff2b31bc911eb1b3991fa0dbccb0e7d6066d45a094a7d7441",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:10x5 joint_b@760:1x5 out_w@800:4x5 blank_w@960:1x5 out_b@1000:1x5",
    ),
    "concat2emb-untied-f8-stub": (
        "e2e8be2c73809f482279bd0c9c714a31770fd78c4e2dde165045c90a9947be4d",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:10x5 joint_b@760:1x5 out_w@800:4x5 blank_w@960:1x5 out_b@1000:1x5 enc_stub_w@1040:3x4 enc_stub_b@1136:1x4",
    ),
    "concat2emb-untied-f4-nostub": (
        "f6411e52a0beadafc8247cd5e8e54da1aeb242a6a71a06ddec058e56b9b677d3",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:10x5 joint_b@380:1x5 out_w@400:4x5 blank_w@480:1x5 out_b@500:1x5",
    ),
    "concat2emb-untied-f4-stub": (
        "4a09a7172d530dd53e479e5de2232afc98732de3ae4e9e80354919c07cf8054b",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:10x5 joint_b@380:1x5 out_w@400:4x5 blank_w@480:1x5 out_b@500:1x5 enc_stub_w@520:3x4 enc_stub_b@568:1x4",
    ),
    "concat2emb-tied-f8-nostub": (
        "4bf8effee9345a56dfc1dd5744886e68c9b339907a2607f923914104ab9f748b",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:10x5 joint_b@760:1x5 blank_w@800:1x5 out_b@840:1x5",
    ),
    "concat2emb-tied-f8-stub": (
        "9d067aa35bedfe23ac5a4c564bf246c711bb175acf2df84ffaa1393d68bf7f71",
        "emb@0:5x5 enc_w@200:4x5 pred_w@360:10x5 joint_b@760:1x5 blank_w@800:1x5 out_b@840:1x5 enc_stub_w@880:3x4 enc_stub_b@976:1x4",
    ),
    "concat2emb-tied-f4-nostub": (
        "cf2671be3f64a2cee750a71783d1ac4b91044e46a713c1502291494d46d45d91",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:10x5 joint_b@380:1x5 blank_w@400:1x5 out_b@420:1x5",
    ),
    "concat2emb-tied-f4-stub": (
        "38cb85ef6acfbc06e13879ea1f7ac2877de3d8fad20db0fd5ddf1ff216c5896b",
        "emb@0:5x5 enc_w@100:4x5 pred_w@180:10x5 joint_b@380:1x5 blank_w@400:1x5 out_b@420:1x5 enc_stub_w@440:3x4 enc_stub_b@488:1x4",
    ),
    "lstm-untied-f8-nostub": (
        "89b430d7f61759f90a6c90a35756212da9b1215150da9cb1e1d45a7928953493",
        "emb@0:5x5 lstm0_w_x@200:5x24 lstm0_w_h@1160:5x24 lstm0_bias@2120:1x24 lstm0_w_p@2312:6x5 lstm1_w_x@2552:5x24 lstm1_w_h@3512:5x24 lstm1_bias@4472:1x24 lstm1_w_p@4664:6x5 enc_w@4904:4x5 pred_w@5064:5x5 joint_b@5264:1x5 out_w@5304:4x5 blank_w@5464:1x5 out_b@5504:1x5",
    ),
    "lstm-untied-f8-stub": (
        "c1dc354c78bd7f316b8f5e07fa4cb1c93b2503e1928cb895e6fc09de2ea92639",
        "emb@0:5x5 lstm0_w_x@200:5x24 lstm0_w_h@1160:5x24 lstm0_bias@2120:1x24 lstm0_w_p@2312:6x5 lstm1_w_x@2552:5x24 lstm1_w_h@3512:5x24 lstm1_bias@4472:1x24 lstm1_w_p@4664:6x5 enc_w@4904:4x5 pred_w@5064:5x5 joint_b@5264:1x5 out_w@5304:4x5 blank_w@5464:1x5 out_b@5504:1x5 enc_stub_w@5544:3x4 enc_stub_b@5640:1x4",
    ),
    "lstm-untied-f4-nostub": (
        "78c50d7a72d14b1d2c1bacf790f04f9cdaf806e695ab68ea52a18033f51d65dc",
        "emb@0:5x5 lstm0_w_x@100:5x24 lstm0_w_h@580:5x24 lstm0_bias@1060:1x24 lstm0_w_p@1156:6x5 lstm1_w_x@1276:5x24 lstm1_w_h@1756:5x24 lstm1_bias@2236:1x24 lstm1_w_p@2332:6x5 enc_w@2452:4x5 pred_w@2532:5x5 joint_b@2632:1x5 out_w@2652:4x5 blank_w@2732:1x5 out_b@2752:1x5",
    ),
    "lstm-untied-f4-stub": (
        "6e948c9d695f1da0624bb68359872a3976c590247efb66321144ddf8995b5f0d",
        "emb@0:5x5 lstm0_w_x@100:5x24 lstm0_w_h@580:5x24 lstm0_bias@1060:1x24 lstm0_w_p@1156:6x5 lstm1_w_x@1276:5x24 lstm1_w_h@1756:5x24 lstm1_bias@2236:1x24 lstm1_w_p@2332:6x5 enc_w@2452:4x5 pred_w@2532:5x5 joint_b@2632:1x5 out_w@2652:4x5 blank_w@2732:1x5 out_b@2752:1x5 enc_stub_w@2772:3x4 enc_stub_b@2820:1x4",
    ),
    "lstm-tied-f8-nostub": (
        "0b51c9f63b5964488cee7c08f1a1cb2331956fde3f2c16b0e3fb74378e585310",
        "emb@0:5x5 lstm0_w_x@200:5x24 lstm0_w_h@1160:5x24 lstm0_bias@2120:1x24 lstm0_w_p@2312:6x5 lstm1_w_x@2552:5x24 lstm1_w_h@3512:5x24 lstm1_bias@4472:1x24 lstm1_w_p@4664:6x5 enc_w@4904:4x5 pred_w@5064:5x5 joint_b@5264:1x5 blank_w@5304:1x5 out_b@5344:1x5",
    ),
    "lstm-tied-f8-stub": (
        "86fcf367e5adbbd66855bebf4900d9f2da2cd35951fdbd6693b6a2224db9d515",
        "emb@0:5x5 lstm0_w_x@200:5x24 lstm0_w_h@1160:5x24 lstm0_bias@2120:1x24 lstm0_w_p@2312:6x5 lstm1_w_x@2552:5x24 lstm1_w_h@3512:5x24 lstm1_bias@4472:1x24 lstm1_w_p@4664:6x5 enc_w@4904:4x5 pred_w@5064:5x5 joint_b@5264:1x5 blank_w@5304:1x5 out_b@5344:1x5 enc_stub_w@5384:3x4 enc_stub_b@5480:1x4",
    ),
    "lstm-tied-f4-nostub": (
        "71fdfca7421cae3594228ed6fdd66dfc708e743c577d2851b61b3689502d7143",
        "emb@0:5x5 lstm0_w_x@100:5x24 lstm0_w_h@580:5x24 lstm0_bias@1060:1x24 lstm0_w_p@1156:6x5 lstm1_w_x@1276:5x24 lstm1_w_h@1756:5x24 lstm1_bias@2236:1x24 lstm1_w_p@2332:6x5 enc_w@2452:4x5 pred_w@2532:5x5 joint_b@2632:1x5 blank_w@2652:1x5 out_b@2672:1x5",
    ),
    "lstm-tied-f4-stub": (
        "898ecae54383d35e878a73079ad1e36e98097821de5d5de3c5e879e4230362b8",
        "emb@0:5x5 lstm0_w_x@100:5x24 lstm0_w_h@580:5x24 lstm0_bias@1060:1x24 lstm0_w_p@1156:6x5 lstm1_w_x@1276:5x24 lstm1_w_h@1756:5x24 lstm1_bias@2236:1x24 lstm1_w_p@2332:6x5 enc_w@2452:4x5 pred_w@2532:5x5 joint_b@2632:1x5 blank_w@2652:1x5 out_b@2672:1x5 enc_stub_w@2692:3x4 enc_stub_b@2740:1x4",
    ),
}


def _golden_model(variant, tied, dtype, stub):
    cfg = tiny_config(variant, tied=tied)
    w = init_weights(cfg, seed=0, dtype=dtype)
    if stub:
        w.enc_stub = init_encoder_stub(3, cfg.d_enc, 0, dtype=dtype)
    arrays = [v for k, v in vars(w).items() if isinstance(v, np.ndarray) and not (k == "out_w" and tied)]
    for layer in w.lstm:
        arrays += list(vars(layer).values())
    if w.enc_stub is not None:
        arrays += list(vars(w.enc_stub).values())
    for k, a in enumerate(arrays):
        a[...] = (((np.arange(a.size) + k) % 7 - 3) / 8).reshape(a.shape)
    w.emb[cfg.pad_id] = 0.0
    return w, cfg


@pytest.mark.parametrize("key", sorted(GOLDEN_ARCHIVES))
def test_golden_archive(key, tmp_path):
    variant, tied, dtype, stub = key.split("-")
    w, cfg = _golden_model(variant, tied == "tied", np.dtype("<" + dtype), stub == "stub")
    path = str(tmp_path / "m")
    save(w, cfg, path, seed=7)
    digest, layout = GOLDEN_ARCHIVES[key]
    entries = sorted(read_archive(path).manifest["tensors"].items(), key=lambda kv: kv[1]["offset"])
    assert " ".join(f"{n}@{e['offset']}:{e['rows']}x{e['cols']}" for n, e in entries) == layout
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest
    loaded, _ = load(path)
    path2 = str(tmp_path / "m2")
    save(loaded, cfg, path2, seed=7)
    assert open(path2, "rb").read() == open(path, "rb").read()
