"""The run config: every knob of the pipeline, declared once."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .thresholds import POLICIES


# (fields, test, rule): the fields checked each on its own, in this order
_RANGES = (
    (("n_scenes", "n_entity_classes", "batch_size", "hidden_dim", "gsl_hidden_dim",
      "per_class_per_scene_cap", "dash_interval", "valid_recompute_interval"),
     lambda v: v >= 1, "must be >= 1"),
    (("n_fg_classes", "entities_min"), lambda v: v >= 2, "must be >= 2"),
    (("zipf_exponent", "class_separation", "noise_sigma", "bg_noise_sigma", "sibling_scale",
      "pretrain_epochs", "beta", "max_iterations", "gen_seed", "mask_seed", "split_seed",
      "focal_gamma"),
     lambda v: v >= 0, "must be non-negative"),
    (("pretrain_learning_rate", "selftrain_learning_rate"), lambda v: v > 0, "must be positive"),
    (("annotated_fraction", "bg_downsample", "policy_quantile"), lambda v: 0 < v <= 1,
     "must lie in (0, 1]"),
    (("true_bg_fraction",), lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    (("alpha_inc", "alpha_dec", "policy_mix"), lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    (("train_fraction", "val_fraction", "test_fraction"), lambda v: v > 0, "must be positive"),
    (("metric_ks",), lambda ks: len(ks) > 0 and min(ks) >= 1, "must list at least one K, each >= 1"),
)


@dataclass(frozen=True)
class RunConfig:
    """The one run config; ``synthgen.generate``, ``classifier.pretrain`` and
    ``selftrain.run`` take it.  Defaults are the desk benchmark, and every
    field is checked on construction (``validate``), the one place that
    states a setting's range: a library function taking a field trusts it."""

    # generator
    n_scenes: int = 2000
    entities_min: int = 12
    entities_max: int = 20
    n_fg_classes: int = 10
    zipf_exponent: float = 1.5
    feature_dim: int = 16  # pair feature dimension; entities carry half each
    class_separation: float = 4.0
    noise_sigma: float = 0.7
    bg_noise_sigma: float = 2.0
    annotated_fraction: float = 0.045
    true_bg_fraction: float = 0.15
    sibling_groups: int = 2
    sibling_scale: float = 0.35
    sibling_pairs: str = ""  # explicit "anchor:partner" rank pairs, overrides sibling_groups
    n_entity_classes: int = 16
    gen_seed: int = 20240817
    # masking and splitting
    mask_seed: int = 5
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    split_seed: int = 11
    # pretraining
    pretrain_learning_rate: float = 0.5
    pretrain_epochs: int = 30
    batch_size: int = 20  # scenes per batch, in pretraining and self-training
    reweight: str = "none"  # none | inverse-frequency
    oversample: bool = False
    bg_downsample: float = 0.05  # kept share of observed-bg pairs per batch
    arch: str = "linear"
    hidden_dim: int = 16
    pretrain_seed: int = 3
    # self-training
    beta: float = 1.0  # pseudo-label loss weight
    alpha_inc: float = 0.4
    alpha_dec: float = 0.4
    per_class_per_scene_cap: int = 3
    max_iterations: int = 1500
    policy: str = "catm"
    use_gsl: bool = False
    selftrain_learning_rate: float = 0.5
    selftrain_seed: int = 4
    initial_tau: float = 0.0
    uniform_momentum: bool = False  # ablation: lambda = 0.5 for every class
    strict_eligible_mean: bool = False
    policy_quantile: float = 0.01
    policy_mix: float = 0.5
    dash_growth: float = 1.1
    dash_interval: int = 100
    valid_recompute_interval: int = 100
    focal_gamma: float = 2.0
    gsl_hidden_dim: int = 16
    # evaluation and paths
    metric_ks: tuple[int, ...] = (2, 5, 10)
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    log_dir: str = "logs"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise a ``ConfigError`` that names the first unusable field."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, not {value!r}")
        for names, usable, rule in _RANGES:
            for name in names:
                if not usable(getattr(self, name)):
                    raise ConfigError(f"{name} {rule}")
        if self.feature_dim < 2 or self.feature_dim % 2 != 0:
            raise ConfigError("feature_dim must be an even integer >= 2")
        if abs(self.train_fraction + self.val_fraction + self.test_fraction - 1.0) > 1e-9:
            raise ConfigError("train_fraction, val_fraction and test_fraction must sum to 1")
        if self.entities_max < self.entities_min:
            raise ConfigError("entities_max must be >= entities_min")
        if self.sibling_groups < 0 or self.sibling_groups > (self.n_fg_classes - 1) // 2:
            raise ConfigError("sibling_groups must fit disjoint head/tail pairs")
        self.parsed_sibling_pairs()
        for name, choices in (("reweight", ("none", "inverse-frequency")),
                              ("arch", ("linear", "mlp")), ("policy", POLICIES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, not {getattr(self, name)!r}")
        if self.policy == "dash-adaptive" and self.dash_growth <= 1.0:
            raise ConfigError("dash_growth must exceed 1")
        if self.policy == "catm" and not 0.0 <= self.initial_tau <= 1.0:
            raise ConfigError("initial_tau must lie in [0, 1]")

    def parsed_sibling_pairs(self) -> list[tuple[int, int]]:
        """Sibling (anchor, partner) class ranks.

        ``sibling_pairs`` like "1:5,2:4" wins over the default pairing of the
        g-th head with the g-th-from-last class; every class may appear once.
        """
        if self.sibling_pairs:
            pairs = []
            for chunk in self.sibling_pairs.replace(" ", "").split(","):
                if not chunk:
                    continue
                try:
                    anchor, partner = (int(x) for x in chunk.split(":"))
                except ValueError as exc:
                    raise ConfigError(f"sibling_pairs: bad pair {chunk!r}") from exc
                pairs.append((anchor, partner))
        else:
            pairs = [
                (g + 1, self.n_fg_classes - g) for g in range(self.sibling_groups)
            ]
        seen: set[int] = set()
        for anchor, partner in pairs:
            for rank in (anchor, partner):
                if not 1 <= rank <= self.n_fg_classes:
                    raise ConfigError(f"sibling_pairs: rank {rank} outside 1..{self.n_fg_classes}")
                if rank in seen:
                    raise ConfigError(f"sibling_pairs: rank {rank} in more than one pair")
                seen.add(rank)
        return pairs

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["metric_ks"] = ",".join(str(k) for k in self.metric_ks)
        return out
