"""Config validation rules and serialization."""

import pytest

from hyperclass.config import ClassifierConfig, LabelEmbedConfig, SynthSpec
from hyperclass.errors import ConfigError

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("config", [LabelEmbedConfig, ClassifierConfig, SynthSpec])
def test_negative_seed_rejected(config):
    config(seed=0).validate()
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        config(seed=-1).validate()


class TestLabelEmbedConfig:
    def test_defaults_valid(self):
        LabelEmbedConfig().validate()

    @pytest.mark.parametrize("field,value", [("dim", 0), ("epochs", 0), ("negatives", 0), ("lr", 0.0), ("lr", -1.0)])
    def test_nonpositive_rejected(self, field, value):
        cfg = LabelEmbedConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("lr", [INF, NAN])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="positive and finite"):
            LabelEmbedConfig(lr=lr).validate()

    def test_to_dict_round_trip(self):
        cfg = LabelEmbedConfig(dim=7, seed=3)
        assert LabelEmbedConfig(**cfg.to_dict()) == cfg


class TestClassifierConfig:
    def test_defaults_valid(self):
        ClassifierConfig().validate()

    def test_unknown_loss(self):
        with pytest.raises(ConfigError, match="loss"):
            ClassifierConfig(loss="hinge").validate()

    @pytest.mark.parametrize("field,value", [("d_tok", 0), ("epochs", 0), ("batch_size", 0), ("lr", 0.0)])
    def test_nonpositive_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ClassifierConfig(**{field: value}).validate()

    @pytest.mark.parametrize("lr", [INF, NAN])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="positive and finite"):
            ClassifierConfig(lr=lr).validate()

    def test_to_dict_round_trip(self):
        cfg = ClassifierConfig(loss="ce", epochs=5)
        assert ClassifierConfig(**cfg.to_dict()) == cfg


class TestSynthSpec:
    def test_defaults_valid(self):
        SynthSpec().validate()

    def test_fractions_cannot_exceed_budget(self):
        with pytest.raises(ConfigError, match="<= 1"):
            SynthSpec(family_fraction=0.7, leaf_fraction=0.4).validate()

    def test_splits_must_leave_test_data(self):
        with pytest.raises(ConfigError, match="test split"):
            SynthSpec(train_fraction=0.9, dev_fraction=0.1).validate()

    @pytest.mark.parametrize(
        "field", ["tokens_per_sample", "noise_vocab", "samples_per_class", "family_pool_size", "leaf_pool_size"]
    )
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(ConfigError):
            SynthSpec(**{field: 0}).validate()

    @pytest.mark.parametrize(
        "fields",
        [
            {"family_fraction": -0.5},
            {"leaf_fraction": -0.3},
            {"family_fraction": NAN},
            {"leaf_fraction": INF},
            {"train_fraction": -0.1, "dev_fraction": 0.5},
            {"dev_fraction": -0.2},
            {"train_fraction": NAN},
            {"dev_fraction": 1.5, "train_fraction": 0.0},
        ],
    )
    def test_fraction_outside_unit_interval_rejected(self, fields):
        with pytest.raises(ConfigError, match=rf"{next(iter(fields))} must be finite and in \[0, 1\]"):
            SynthSpec(**fields).validate()

    def test_unit_interval_edges_accepted(self):
        SynthSpec(family_fraction=1.0, leaf_fraction=0.0).validate()
        SynthSpec(family_fraction=0.0, leaf_fraction=1.0).validate()
        SynthSpec(train_fraction=0.0, dev_fraction=0.5).validate()
