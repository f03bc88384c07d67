"""Dataclass configs for both training stages and the synthetic data generator.

A field is a setting some caller changes. Values the method fixes are
constants of the module that uses them: stage one's burn-in and init
radius in `hierarchy`, the Adam constants in `optim` and the parameter
init scale in `encoder`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import ConfigError

# Stage-two loss: distance-weighted or plain cross entropy.
LOSSES = ("wce", "ce")


def _check_lr(lr: float) -> None:
    # `not 0 < lr < inf` is also true for nan, which fails every comparison.
    if not 0 < lr < float("inf"):
        raise ConfigError(f"learning rate must be positive and finite, got {lr!r}")


def _check_seed(seed: int) -> None:
    # np.random.default_rng takes only non-negative integers.
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class LabelEmbedConfig:
    """Stage 1: hyperbolic label embedding training."""

    dim: int = 100
    epochs: int = 300
    negatives: int = 10
    lr: float = 0.01
    seed: int = 42

    def validate(self) -> None:
        if min(self.dim, self.epochs, self.negatives) < 1:
            raise ConfigError("label embedding config requires positive dim/epochs/negatives")
        _check_lr(self.lr)
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClassifierConfig:
    """Stage 2: Euclidean encoder + head trained with (weighted) cross entropy."""

    d_tok: int = 64
    d_e: int = 128
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    loss: str = "wce"  # one of LOSSES
    seed: int = 42

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss mode {self.loss!r}")
        if min(self.d_tok, self.d_e, self.epochs, self.batch_size) < 1:
            raise ConfigError("classifier config requires positive dims/epochs/batch")
        _check_lr(self.lr)
        _check_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SynthSpec:
    """Synthetic hierarchical dataset: per sample, a fixed token budget is
    split between the leaf's parent-family pool (shared among siblings), the
    leaf-specific pool, and a global noise pool."""

    tokens_per_sample: int = 12
    family_fraction: float = 0.4
    leaf_fraction: float = 0.2
    noise_vocab: int = 200
    samples_per_class: int = 200
    family_pool_size: int = 6
    # Large leaf pools make sibling leaves genuinely confusable: with only
    # ~2 leaf tokens per sample drawn from a 120-word pool, leaf evidence is
    # sparse and a plain CE model leans on the shared family tokens.
    leaf_pool_size: int = 120
    train_fraction: float = 0.70
    dev_fraction: float = 0.15
    seed: int = 42

    def validate(self) -> None:
        for name in ("family_fraction", "leaf_fraction", "train_fraction", "dev_fraction"):
            value = getattr(self, name)
            # `not 0 <= value <= 1` is also true for nan and the infinities.
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be finite and in [0, 1], got {value!r}")
        if self.family_fraction + self.leaf_fraction > 1.0:
            raise ConfigError("family_fraction + leaf_fraction must be <= 1")
        counts = (
            self.tokens_per_sample,
            self.noise_vocab,
            self.samples_per_class,
            self.family_pool_size,
            self.leaf_pool_size,
        )
        if min(counts) < 1:
            raise ConfigError("all synthetic counts must be positive")
        if not 0 < self.train_fraction + self.dev_fraction < 1:
            raise ConfigError("train/dev fractions must leave room for a test split")
        _check_seed(self.seed)
