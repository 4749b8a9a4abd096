from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rnntdec import DecoderConfig, SeededRng, init_weights, param_count, preset, step_flops, tied_savings
from rnntdec.config import PRESET_NAMES
from rnntdec.errors import ConfigError
from rnntdec.runconfig import load_run_config

from helpers import tiny_config


class TestConfigValidation:
    def test_tied_requires_matching_dims(self):
        with pytest.raises(ConfigError):
            tiny_config(tied=True, d_e=5, d_h=6)

    def test_stateless_history_is_one(self):
        with pytest.raises(ConfigError):
            tiny_config("stateless1emb", history_len=2)

    def test_concat_history_is_two(self):
        with pytest.raises(ConfigError):
            DecoderConfig(variant="concat2emb", vocab_size=4, d_e=5, d_h=5, history_len=3)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError):
            tiny_config(vocab_size=1)

    def test_lstm_needs_dims(self):
        with pytest.raises(ConfigError):
            DecoderConfig(variant="lstm", vocab_size=4, d_e=5, d_h=5)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            tiny_config("transformer")

    def test_pn_out_dims(self):
        assert tiny_config("reduced", d_e=7, d_h=7).pn_out_dim == 7
        assert tiny_config("stateless1emb", d_e=7, d_h=7).pn_out_dim == 7
        assert tiny_config("concat2emb", d_e=7, d_h=7).pn_out_dim == 14
        assert tiny_config("lstm", lstm_proj=9).pn_out_dim == 9

    def test_blank_is_last_index(self):
        cfg = tiny_config()
        assert cfg.blank_id == cfg.vocab_size


class TestParamCount:
    def test_tying_saves_exactly_dh_times_vocab(self):
        for variant in ("reduced", "stateless1emb", "concat2emb"):
            tied = tiny_config(variant, tied=True, d_e=6, d_h=6)
            untied = replace(tied, tied=False)
            saved = param_count(untied)["total"] - param_count(tied)["total"]
            assert saved == tied.d_h * tied.vocab_size == tied_savings(tied)

    def test_breakdown_sums_to_total(self):
        for name in PRESET_NAMES:
            counts = param_count(preset(name))
            assert sum(v for k, v in counts.items() if k != "total") == counts["total"]

    def test_pad_row_excluded(self):
        cfg = tiny_config()
        assert param_count(cfg)["embedding"] == cfg.vocab_size * cfg.d_e

    def test_benchmark_scale_totals(self):
        # target budgets for the five benchmark decoders: 23M, 6.0M, 6.4M,
        # 9.2M, 1.9M; totals land within 15% under the d_enc=512 assumption
        budgets = {
            "lstm": 23e6,
            "stateless1emb": 6.0e6,
            "concat2emb": 6.4e6,
            "reduced_large": 9.2e6,
            "reduced_small": 1.9e6,
        }
        for name, expected in budgets.items():
            total = param_count(preset(name))["total"]
            assert abs(total - expected) / expected < 0.15, (name, total)

    def test_size_ordering(self):
        totals = {name: param_count(preset(name))["total"] for name in PRESET_NAMES}
        order = sorted(totals, key=totals.get, reverse=True)
        assert order == ["lstm", "reduced_large", "concat2emb", "stateless1emb", "reduced_small"]

    def test_reduced_small_savings_value(self):
        cfg = preset("reduced_small")
        assert tied_savings(cfg) == 320 * 4096 == 1_310_720


class TestInitWeights:
    def test_deterministic(self):
        cfg = tiny_config()
        a = init_weights(cfg, seed=5)
        b = init_weights(cfg, seed=5)
        np.testing.assert_array_equal(a.emb, b.emb)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.out_w, b.out_w)

    def test_pad_row_zero(self):
        cfg = tiny_config()
        w = init_weights(cfg, seed=1)
        assert not w.emb[cfg.pad_id].any()

    def test_position_std(self):
        cfg = preset("reduced_small")
        w = init_weights(cfg, seed=3)
        target = 1.0 / np.sqrt(cfg.d_e)
        assert abs(w.positions.std() - target) / target < 0.2

    def test_tied_alias_single_storage(self):
        cfg = tiny_config(tied=True)
        w = init_weights(cfg, seed=2)
        assert w.out_w.base is w.emb
        w.emb[1, 3] = 123.0
        assert w.out_w[1, 3] == 123.0

    def test_float32_mode(self):
        w = init_weights(tiny_config(), seed=1, dtype=np.float32)
        assert w.emb.dtype == np.float32
        assert w.enc_w.dtype == np.float32

    @pytest.mark.parametrize("variant", ["reduced", "stateless1emb", "concat2emb", "lstm"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_draws_follow_one_stream_in_fixed_order(self, variant, tied, dtype):
        # the order of the Gaussian draws fixes every seed's weights: out_w
        # comes last, after blank_w; zero and one tensors draw nothing
        cfg = tiny_config(variant, tied=tied)
        w = init_weights(cfg, seed=11, dtype=dtype)
        rng = SeededRng(11)

        def gauss(shape, fan_in):
            return rng.normal(shape, std=1.0 / np.sqrt(fan_in), dtype=dtype)

        emb = gauss((cfg.vocab_ext, cfg.d_e), cfg.d_e)
        emb[cfg.pad_id] = 0.0
        expected = {"emb": emb}
        if variant == "reduced":
            expected["positions"] = gauss((cfg.num_heads, cfg.history_len, cfg.d_e), cfg.d_e)
            expected["proj_w"] = gauss((cfg.d_e, cfg.d_e), cfg.d_e)
            expected["proj_b"] = expected["ln_beta"] = np.zeros(cfg.d_e, dtype=dtype)
            expected["ln_gamma"] = np.ones(cfg.d_e, dtype=dtype)
        for i in range(cfg.lstm_layers):
            in_dim = cfg.d_e if i == 0 else cfg.lstm_proj
            layer = w.lstm[i]
            np.testing.assert_array_equal(layer.w_x, gauss((in_dim, 4 * cfg.lstm_units), in_dim))
            np.testing.assert_array_equal(layer.w_h, gauss((cfg.lstm_proj, 4 * cfg.lstm_units), cfg.lstm_proj))
            np.testing.assert_array_equal(layer.bias, np.zeros(4 * cfg.lstm_units, dtype=dtype))
            np.testing.assert_array_equal(layer.w_p, gauss((cfg.lstm_units, cfg.lstm_proj), cfg.lstm_units))
        expected["enc_w"] = gauss((cfg.d_enc, cfg.d_h), cfg.d_enc)
        expected["pred_w"] = gauss((cfg.pn_out_dim, cfg.d_h), cfg.pn_out_dim)
        expected["joint_b"] = np.zeros(cfg.d_h, dtype=dtype)
        expected["blank_w"] = gauss(cfg.d_h, cfg.d_h)
        expected["out_b"] = np.zeros(cfg.vocab_ext, dtype=dtype)
        expected["out_w"] = emb[: cfg.vocab_size] if tied else gauss((cfg.vocab_size, cfg.d_h), cfg.d_h)
        for name, arr in expected.items():
            assert getattr(w, name).dtype == dtype
            np.testing.assert_array_equal(getattr(w, name), arr, err_msg=name)
        assert len(w.lstm) == cfg.lstm_layers and w.enc_stub is None


class TestStepFlops:
    def test_benchmark_ratio_exceeds_five(self):
        ratio = step_flops(preset("lstm")) / step_flops(preset("reduced_small"))
        assert ratio >= 5.0

    def test_reduced_scales_mildly_with_history(self):
        short = step_flops(tiny_config(history_len=2, d_e=64, d_h=64))
        long = step_flops(tiny_config(history_len=8, d_e=64, d_h=64))
        assert long < short * 1.5

    # each preset's count as the per-variant formula gave it before the count
    # was derived from the tensor table
    @pytest.mark.parametrize("name, flops", [
        ("lstm", 45638017), ("stateless1emb", 6726017), ("concat2emb", 7545217),
        ("reduced_large", 18405377), ("reduced_small", 3385217),
    ])
    def test_preset_counts_pinned(self, name, flops):
        assert step_flops(preset(name)) == flops


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


class TestShippedConfigs:
    def test_configs_are_shipped(self):
        assert {p.name for p in SHIPPED_CONFIGS} >= {"toy_reduced.json", "table1_bench.json"}

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_loads_through_the_run_config_schema(self, path):
        cfg = load_run_config(str(path))
        assert any(getattr(cfg, s) is not None for s in ("decoder", "task", "train", "embr", "bench"))
