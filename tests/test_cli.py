import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from rnntdec import cli, errors
from rnntdec import greedy_decode, init_weights, load, load_lookup, read_archive, save, toy_encode
from rnntdec.cli import _load_input_frames, main
from rnntdec.weights import init_encoder_stub

from helpers import all_blank_model, tiny_config


TOY_CONFIG = {
    "decoder": {
        "variant": "reduced", "vocab_size": 3, "d_e": 8, "d_h": 8, "d_enc": 8,
        "history_len": 2, "num_heads": 2, "tied": True, "max_symbols_per_frame": 4,
    },
    "task": {
        "vocab_size": 3, "min_target_len": 1, "max_target_len": 2,
        "frames_per_label_min": 2, "frames_per_label_max": 3,
        "feature_dim": 4, "noise_std": 0.05, "dataset_size": 20, "dev_fraction": 0.25,
    },
    "train": {"lr": 0.05, "momentum": 0.9, "batch_size": 4, "epochs": 2, "seed": 0},
    "embr": {"beam_width": 2, "steps": 2, "lr": 0.005, "batch_size": 2, "seed": 0},
}

TOY_REDUCED = Path(__file__).resolve().parents[1] / "configs" / "toy_reduced.json"

TABLE1_CONFIG = {
    "bench": {
        "runs": 10,
        "warmup": 2,
        "decoders": ["lstm", "stateless1emb", "concat2emb", "reduced_large", "reduced_small"],
    }
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# file contents that no JSON reading takes: bytes that are not UTF-8, an
# integer past Python's 4300-digit conversion limit, and arrays nested past
# the recursion limit
UNREADABLE_JSON = {
    "not_utf8": b'\xff\xfe{"frames": []}',
    "huge_int": b'{"frames": [[' + b"1" * 5000 + b"]]}",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def assert_one_schema_line(err, path):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[schema]: ") and path in lines[0]


SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"


def test_exit_code_table_matches_the_cli():
    doc = SCHEMA_DOC.read_text().split("## Exit codes", 1)[1]
    rows = dict(re.findall(r"^\| (\d+)\s+\| (.+?)\s*\|$", doc, re.M))
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert {int(c) for c in rows} == codes
    assert "other" in rows[str(cli.EXIT_ERROR)]
    # each mapped error type names its row, e.g. DivergenceError the divergence row
    for exc_type, code in cli._EXIT_CODES:
        assert exc_type.__name__.removesuffix("Error").lower() in rows[str(code)].lower()
    listed = set(re.findall(r"`(\w+)`", doc.split("category one of", 1)[1].split("\n\n")[0]))

    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}

    assert listed == {c.category for c in subclasses(errors.RnntError)}


class TestParams:
    def test_table1_ordering_and_savings(self, tmp_path, capsys):
        cfg = write(tmp_path, "t1.json", TABLE1_CONFIG)
        assert main(["params", cfg]) == 0
        out = capsys.readouterr().out
        assert "1,310,720" in out  # d_h * |V| for the small tied preset
        order = re.search(r"size ordering: (.+)", out).group(1)
        names = re.findall(r"(\w+) \(", order)
        assert names == ["lstm", "reduced_large", "concat2emb", "stateless1emb", "reduced_small"]

    def test_json_output_self_consistent(self, tmp_path, capsys):
        cfg = write(tmp_path, "t1.json", TABLE1_CONFIG)
        assert main(["params", cfg, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for entry in doc["decoders"]:
            assert entry["total"] == sum(entry["breakdown"].values())

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", {"decoder": {"variant": "reduced", "vocab_size": 4,
                                                       "d_e": 4, "d_h": 4, "d_x": 1}})
        assert main(["params", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[schema]")
        assert "decoder.d_x" in err

    def test_wrong_field_type_rejected_with_path(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", {"decoder": {"variant": "reduced", "vocab_size": 4,
                                                       "d_e": 4.0, "d_h": 4}})
        assert main(["params", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[schema]")
        assert "decoder.d_e: expected int, got float" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", {"decoderz": {}})
        assert main(["params", cfg]) == 2

    @pytest.mark.parametrize("doc", [
        {"decoder": {"preset": ["lstm"]}},
        {"bench": {"decoders": [{"preset": {}}]}},
        {"bench": {"decoders": [{"preset": "lstm", "name": float("nan")}]}},
    ])
    def test_non_string_preset_or_name_exits_schema(self, tmp_path, capsys, doc):
        assert main(["params", write(tmp_path, "bad.json", doc)]) == 2
        assert capsys.readouterr().err.startswith("error[schema]: ")

    @pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
    def test_unreadable_config_exits_schema(self, tmp_path, capsys, case):
        cfg = write_bytes(tmp_path, "bad.json", UNREADABLE_JSON[case])
        assert main(["params", cfg]) == 2
        assert_one_schema_line(capsys.readouterr().err, cfg)


class TestTrainEmbrRanges:
    """Out-of-range train and embr values fail with a schema error before any
    work starts, rather than a raw traceback or an EMBR run of empty steps."""

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", 0),
        ("train", "epochs", 0),
        ("train", "grad_clip", -1.0),
        ("embr", "batch_size", 0),
        ("embr", "beam_width", 0),
        ("embr", "steps", -1),
        ("embr", "grad_clip", -1.0),
    ])
    def test_out_of_range_exits_schema(self, tmp_path, capsys, section, key, value):
        doc = {**TOY_CONFIG, section: {**TOY_CONFIG[section], key: value}}
        cfg = write(tmp_path, "bad.json", doc)
        model = str(tmp_path / "m.rnnt")
        dec = tiny_config(vocab_size=3, d_e=8, d_h=8, d_enc=8)
        save(all_blank_model(dec), dec, model)
        for argv in (["train", cfg, str(tmp_path / "t.rnnt")],
                     ["embr", cfg, model, str(tmp_path / "e.rnnt")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error[schema]: ") and f"{key} must be >=" in err
        assert not (tmp_path / "t.rnnt").exists() and not (tmp_path / "e.rnnt").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section, key", [
        ("task", "noise_std"),  # NaN used to train with no noise and exit 0
        ("train", "lr"),  # NaN used to exit 5, "diverged"
        ("embr", "posterior_scale"),  # NaN used to exit 1, error[domain]
    ])
    def test_non_finite_float_exits_schema(self, tmp_path, capsys, section, key, value):
        doc = {**TOY_CONFIG, section: {**TOY_CONFIG[section], key: value}}
        cfg = write(tmp_path, "bad.json", doc)  # json writes NaN / Infinity / -Infinity
        model = str(tmp_path / "m.rnnt")
        dec = tiny_config(vocab_size=3, d_e=8, d_h=8, d_enc=8)
        save(all_blank_model(dec), dec, model)
        for argv in (["train", cfg, str(tmp_path / "t.rnnt")],
                     ["embr", cfg, model, str(tmp_path / "e.rnnt")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error[schema]: {section}.{key}: must be finite")
        assert not (tmp_path / "t.rnnt").exists() and not (tmp_path / "e.rnnt").exists()


class TestPipeline:
    def test_train_decode_embr_lookup_round(self, tmp_path, capsys):
        cfg = write(tmp_path, "toy.json", TOY_CONFIG)
        model = str(tmp_path / "toy.rnnt")
        assert main(["train", cfg, model]) == 0
        out = capsys.readouterr().out
        assert "final dev token error rate" in out
        metrics = (tmp_path / "toy.rnnt.metrics.jsonl").read_text().strip().split("\n")
        assert len(metrics) == 2

        # deterministic given seeds: retraining produces a byte-identical archive
        model2 = str(tmp_path / "toy2.rnnt")
        assert main(["train", cfg, model2]) == 0
        capsys.readouterr()
        assert open(model, "rb").read() == open(model2, "rb").read()

        frames_doc = {"features": np.zeros((3, 4)).tolist()}
        inp = write(tmp_path, "input.json", frames_doc)
        assert main(["decode", model, inp, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "labels" in doc and "log_prob" in doc

        assert main(["decode", model, inp, "--beam", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nbest"]) >= 1
        assert doc["nbest"][0]["log_prob"] <= 0.0

        out_model = str(tmp_path / "toy_embr.rnnt")
        assert main(["embr", cfg, model, out_model]) == 0
        out = capsys.readouterr().out
        assert "dev risk after" in out

        table = str(tmp_path / "toy.lookup")
        assert main(["convert-lookup", model, table]) == 0
        out = capsys.readouterr().out
        assert "entries: 16 x 8" in out  # (3+1)^2 contexts, d_e columns

    def test_lookup_carries_the_model_config(self, tmp_path, capsys):
        cfg = tiny_config(vocab_size=4, history_len=2, tied=True)
        model, table = str(tmp_path / "m.rnnt"), str(tmp_path / "m.lookup")
        save(init_weights(cfg, seed=2), cfg, model)
        assert main(["convert-lookup", model, table]) == 0
        loaded, loaded_cfg = load_lookup(table)
        assert loaded.config == cfg and loaded_cfg == cfg

    def test_embr_keeps_extra_manifest_fields(self, tmp_path, capsys):
        dec = tiny_config(vocab_size=3, d_e=8, d_h=8, d_enc=8)
        w = init_weights(dec, seed=0)
        w.enc_stub = init_encoder_stub(4, dec.d_enc, seed=1)
        model, out_model = str(tmp_path / "m.rnnt"), str(tmp_path / "e.rnnt")
        save(w, dec, model, extra={"note": "kept", "origin": {"run": 7}})
        assert main(["embr", write(tmp_path, "toy.json", TOY_CONFIG), model, out_model]) == 0
        assert read_archive(out_model).extra == {"note": "kept", "origin": {"run": 7}}

    def test_decode_all_blank_prints_empty_transcript(self, tmp_path, capsys):
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        w = all_blank_model(cfg)
        model = str(tmp_path / "blank.rnnt")
        save(w, cfg, model)
        inp = write(tmp_path, "in.json", {"frames": np.zeros((2, 4)).tolist()})
        assert main(["decode", model, inp]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "labels:"

    def test_decode_rejects_ambiguous_input(self, tmp_path, capsys):
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        model = str(tmp_path / "m.rnnt")
        save(all_blank_model(cfg), cfg, model)
        inp = write(tmp_path, "in.json", {"frames": [[0] * 4], "features": [[0] * 4]})
        assert main(["decode", model, inp]) == 2

    def test_lookup_budget_capacity_exit(self, tmp_path, capsys):
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        model = str(tmp_path / "m.rnnt")
        save(all_blank_model(cfg), cfg, model)
        assert main(["convert-lookup", model, str(tmp_path / "t"), "--budget", "10"]) == 4
        assert capsys.readouterr().err.startswith("error[capacity]")

    def test_corrupt_model_is_io_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.rnnt"
        path.write_bytes(b"\x00" * 4)
        inp = write(tmp_path, "in.json", {"frames": [[0.0]]})
        assert main(["decode", str(path), str(inp)]) == 3
        assert capsys.readouterr().err.startswith("error[corrupt]")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = dict(TOY_CONFIG)
        doc["train"] = {"lr": 1e100, "momentum": 0.9, "batch_size": 4, "epochs": 1,
                       "seed": 0, "grad_clip": 0.0}
        cfg = write(tmp_path, "diverge.json", doc)
        assert main(["train", cfg, str(tmp_path / "m.rnnt")]) == 5
        assert capsys.readouterr().err.startswith("error[divergence]")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("grad_clip", [1.0, 0.0])
    def test_train_divergence_in_last_update_exit_code(self, tmp_path, capsys, grad_clip):
        # one step per epoch: the batch losses stay finite, and only the
        # epoch's dev decode meets the non-finite network
        doc = json.loads(TOY_REDUCED.read_text())
        doc["train"] = dict(doc["train"], lr=1e300, epochs=1, batch_size=200, grad_clip=grad_clip)
        out = tmp_path / "m.rnnt"
        assert main(["train", write(tmp_path, "diverge.json", doc), str(out)]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[divergence]: diverged"), err
        assert "epoch 0" in err[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_embr_divergence_exit_code(self, tmp_path, capsys):
        model = str(tmp_path / "m.rnnt")
        assert main(["train", write(tmp_path, "toy.json", TOY_CONFIG), model]) == 0
        # steps=1: the divergence happens in the last update, after the last risk
        for steps in (3, 1):
            doc = dict(TOY_CONFIG, embr=dict(TOY_CONFIG["embr"], lr=1e300, grad_clip=0.0,
                                             steps=steps))
            capsys.readouterr()
            out = tmp_path / f"e{steps}.rnnt"
            assert main(["embr", write(tmp_path, "diverge.json", doc), model, str(out)]) == 5
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error[divergence]"), (steps, err)
            assert not out.exists()


class TestDecodeInputDtype:
    """Decode inputs take the model's dtype, so f4 models stay in f4."""

    @staticmethod
    def model_and_inputs(tmp_path, dtype):
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        w = init_weights(cfg, seed=1, dtype=dtype)
        w.enc_stub = init_encoder_stub(3, cfg.d_enc, seed=1, dtype=dtype)
        model = str(tmp_path / "m.rnnt")
        save(w, cfg, model)
        rng = np.random.default_rng(0)
        frames = rng.normal(size=(6, 4)).tolist()
        features = rng.normal(size=(6, 3)).tolist()
        return model, frames, features

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frames_and_features_follow_model_dtype(self, tmp_path, dtype):
        model, frames, features = self.model_and_inputs(tmp_path, dtype)
        weights, _ = load(model)
        for key, rows in (("frames", frames), ("features", features)):
            inp = write(tmp_path, f"{key}.json", {key: rows})
            assert _load_input_frames(inp, weights).dtype == dtype

    def test_f8_decode_output_unchanged(self, tmp_path, capsys):
        model, frames, features = self.model_and_inputs(tmp_path, np.float64)
        weights, cfg = load(model)
        expected = [
            greedy_decode(np.asarray(frames, dtype=np.float64), weights, cfg),
            greedy_decode(toy_encode(np.asarray(features, dtype=np.float64),
                                     weights.enc_stub), weights, cfg),
        ]
        for key, rows, want in zip(("frames", "features"), (frames, features), expected):
            inp = write(tmp_path, f"{key}.json", {key: rows})
            assert main(["decode", model, inp, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == {"labels": want.labels, "log_prob": want.log_prob}


class TestDecodeInputValidation:
    """Decode input that is not a finite 2-D numeric array of the right width
    exits 2 with one error[schema] line naming the input file."""

    # each case maps the expected row width to a defective array
    BAD_ROWS = {
        "ragged": lambda n: [[0.0] * n, [0.0] * (n - 1)],
        "string": lambda n: [["a"] + [0.0] * (n - 1)],
        "nan": lambda n: [[float("nan")] + [0.0] * (n - 1)],
        "inf": lambda n: [[float("inf")] + [0.0] * (n - 1)],
        "neg_inf": lambda n: [[0.0] * (n - 1) + [float("-inf")]],
        "bool": lambda n: [[True] * n],
        "null": lambda n: [[None] * n],
        "wrong_width": lambda n: [[0.0] * (n + 1)],
        "one_dim": lambda n: [0.0] * n,
    }

    @staticmethod
    def model(tmp_path, dtype=np.float64):
        cfg = tiny_config(vocab_size=3, d_e=4, d_h=4, d_enc=4)
        w = init_weights(cfg, seed=1, dtype=dtype)
        w.enc_stub = init_encoder_stub(3, cfg.d_enc, seed=1, dtype=dtype)
        path = str(tmp_path / "m.rnnt")
        save(w, cfg, path)
        return path

    @staticmethod
    def assert_schema_exit(argv, inp, key, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[schema]: ")
        assert inp in lines[0] and f"'{key}'" in lines[0]

    @pytest.mark.parametrize("beam", [[], ["--beam", "2"]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_input_exits_schema(self, tmp_path, capsys, case, dtype, beam):
        model = self.model(tmp_path, dtype)
        for key, width in (("frames", 4), ("features", 3)):
            inp = write(tmp_path, "in.json", {key: self.BAD_ROWS[case](width)})
            self.assert_schema_exit(["decode", model, inp, "--json", *beam], inp, key, capsys)

    @pytest.mark.parametrize("beam", [[], ["--beam", "2"]])
    @pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
    def test_unreadable_input_exits_schema(self, tmp_path, capsys, case, beam):
        model = self.model(tmp_path)
        inp = write_bytes(tmp_path, "in.json", UNREADABLE_JSON[case])
        assert main(["decode", model, inp, *beam]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_schema_line(err, inp)

    def test_value_beyond_f4_range_is_rejected_for_f4_models(self, tmp_path, capsys):
        model = self.model(tmp_path, np.float32)
        inp = write(tmp_path, "in.json", {"frames": [[1e300, 0.0, 0.0, 0.0]]})
        self.assert_schema_exit(["decode", model, inp], inp, "frames", capsys)

    # finite inputs whose products overflow the model's dtype: frames that
    # alternate sign near the dtype's limit, and features signed like the
    # stub's first column (-, -, +), so that they overflow the stub's product
    OVERFLOWS = {
        "f8_frames": (np.float64, {"frames": [[1.7e308, -1.7e308, 1.7e308, -1.7e308]] * 3}),
        "f4_frames": (np.float32, {"frames": [[3e38, -3e38, 3e38, -3e38]] * 3}),
        "f8_features": (np.float64, {"features": [[-1.7e308, -1.7e308, 1.7e308]] * 3}),
    }

    @pytest.mark.parametrize("beam", [[], ["--beam", "2"]])
    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_input_that_overflows_exits_schema(self, tmp_path, capsys, case, beam):
        dtype, doc = self.OVERFLOWS[case]
        model = self.model(tmp_path, dtype)
        inp = write(tmp_path, "in.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["decode", model, inp, *beam]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_schema_line(err, inp)

    @pytest.mark.parametrize("beam", [[], ["--beam", "2"]])
    def test_empty_utterance_decodes(self, tmp_path, capsys, beam):
        model = self.model(tmp_path)
        for key in ("frames", "features"):
            inp = write(tmp_path, "in.json", {key: []})
            assert main(["decode", model, inp, "--json", *beam]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc in ({"labels": [], "log_prob": 0.0},
                           {"nbest": [{"labels": [], "log_prob": 0.0}]})


class TestBench:
    def test_tiny_bench_json_schema(self, tmp_path, capsys):
        doc = {
            "bench": {
                "runs": 20, "warmup": 2, "dtype": "f8", "seed": 0,
                "decoders": [
                    {"name": "small", "variant": "reduced", "vocab_size": 8, "d_e": 8,
                     "d_h": 8, "d_enc": 8, "history_len": 2, "num_heads": 2, "tied": True},
                    {"name": "recurrent", "variant": "lstm", "vocab_size": 8, "d_e": 8,
                     "d_h": 8, "d_enc": 8, "history_len": 1, "lstm_layers": 1,
                     "lstm_units": 16, "lstm_proj": 8},
                ],
            }
        }
        cfg = write(tmp_path, "bench.json", doc)
        assert main(["bench", cfg, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["decoder_name"] for r in out["records"]] == ["small", "recurrent"]
        for record in out["records"]:
            assert set(record) == {"core_label", "decoder_name", "runs", "mean_ms", "std_ms"}
            assert record["runs"] == 20
        assert out["comparisons"][0]["decoder_name"] == "recurrent"

    def test_bench_requires_decoders(self, tmp_path, capsys):
        cfg = write(tmp_path, "bench.json", {"bench": {"runs": 5, "decoders": []}})
        assert main(["bench", cfg]) == 2
