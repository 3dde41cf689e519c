"""Named random streams, hyperparameter validation, config parsing."""

import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltgcd.config import (
    SETTING_RULES,
    Hyperparams,
    SplitSpec,
    build_params,
    file_key,
    parse_config_text,
    read_config_file,
    round_half_up,
)
from ltgcd.errors import ValidationError
from ltgcd.rng import derive_stream


class TestDeriveStream:
    def test_same_seed_same_purpose_identical(self):
        a = derive_stream(42, "split").random(100)
        b = derive_stream(42, "split").random(100)
        assert np.array_equal(a, b)

    def test_distinct_purposes_differ(self):
        a = derive_stream(42, "split").random(100)
        b = derive_stream(42, "init").random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = derive_stream(42, "split").random(100)
        b = derive_stream(43, "split").random(100)
        assert not np.array_equal(a, b)

    def test_reproducible_over_long_sequences(self):
        a = derive_stream(7, "batch").random(10_000)
        b = derive_stream(7, "batch").random(10_000)
        assert np.array_equal(a, b)

    def test_large_seed_accepted(self):
        gen = derive_stream(2**64 - 1, "split")
        assert gen.random() >= 0.0


class TestRoundHalfUp:
    @pytest.mark.parametrize("x,expected", [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (100.0, 100)])
    def test_values(self, x, expected):
        assert round_half_up(x) == expected


def non_finite_cases(cls):
    """``(kwargs, message)`` setting one float field of ``cls`` to inf, -inf
    or nan, for every such field."""
    return [({f.name: value}, f"{file_key(f.name)} must be finite, got {value}")
            for f in fields(cls) if type(f.default) is float
            for value in (math.inf, -math.inf, math.nan)]


class TestHyperparams:
    def test_defaults_valid(self):
        hp = Hyperparams()
        assert hp.tau > 0 and hp.mu == 0.99

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(tau=0.0), "tau"),
        (dict(tau=-1.0), "tau"),
        (dict(tau_p=0.0), "tau_p"),
        (dict(lambda_=-0.1), "lambda"),
        (dict(alpha=-1.0), "alpha"),
        (dict(beta=-2.0), "beta"),
        (dict(mu=1.5), "mu"),
        (dict(mu=-0.01), "mu"),
        (dict(lr0=0.0), "lr0"),
        (dict(momentum=1.0), "momentum"),
        (dict(momentum=-0.2), "momentum"),
        (dict(weight_decay=-1e-4), "weight_decay"),
        (dict(epochs=-1), "epochs"),
        (dict(batch_size=0), "batch_size"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
        (dict(noise_sigma=-0.1), "noise_sigma"),
        (dict(drop_prob=1.0), "drop_prob"),
        (dict(drop_prob=-0.2), "drop_prob"),
        *non_finite_cases(Hyperparams),
    ])
    def test_rejects_out_of_range(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            Hyperparams(**kwargs)

    @given(mu=st.floats(min_value=0.0, max_value=1.0))
    def test_mu_whole_range_accepted(self, mu):
        assert Hyperparams(mu=mu).mu == mu

    @given(momentum=st.floats(allow_nan=False, allow_infinity=False))
    def test_momentum_validation_is_total(self, momentum):
        if 0.0 <= momentum < 1.0:
            assert Hyperparams(momentum=momentum).momentum == momentum
        else:
            with pytest.raises(ValidationError):
                Hyperparams(momentum=momentum)


class TestSplitSpec:
    def test_defaults_valid(self):
        spec = SplitSpec()
        assert spec.samples_per_unknown == 40

    def test_rounding_half_up_for_unknown_count(self):
        spec = SplitSpec(samples_per_known=5, rho=2.0)
        assert spec.samples_per_unknown == 3  # 2.5 rounds up

    def test_unlabeled_share_of_a_known_class_rounds_half_up(self):
        assert SplitSpec().n_labeled_per_known == 100
        # 5 * 0.5 = 2.5 unlabeled rounds up to 3, leaving 2 labeled
        assert SplitSpec(samples_per_known=5, labeled_fraction=0.5).n_labeled_per_known == 2

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=1, num_known=0),
        dict(num_known=20),                 # num_known == num_classes
        dict(num_known=25),
        dict(rho=0.0),
        dict(rho=-5.0),
        dict(labeled_fraction=0.0),
        dict(labeled_fraction=1.0),
        dict(dim=0),
        dict(samples_per_known=0),
        dict(samples_per_known=1, rho=10.0),  # rounds to zero unknowns
        dict(samples_per_known=3, labeled_fraction=0.1),  # rounds to zero labeled
        *(kwargs for kwargs, _ in non_finite_cases(SplitSpec)),
        dict(rho=5e-320),                     # 2**63 or more unknowns
        dict(samples_per_known=10**400),      # too large for a float
    ])
    def test_rejects_invalid(self, kwargs):
        # the message names the first key of the case
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            SplitSpec(**kwargs)


class TestConfigParsing:
    def test_round_trip_all_keys(self):
        text = """
        # comment line
        tau = 0.2
        tau_p = 0.05
        lambda = 0.5
        alpha = 1.0
        beta = 2.0
        mu = 0.9
        lr0 = 0.01
        momentum = 0.8
        weight_decay = 0.001
        epochs = 10
        batch_size = 32
        seed = 7
        noise_sigma = 0.05
        drop_prob = 0.2
        num_classes = 8
        num_known = 4
        samples_per_known = 50
        rho = 2.0
        labeled_fraction = 0.4
        dim = 12
        """
        hp, split = build_params(parse_config_text(text))
        assert hp.tau == 0.2 and hp.lambda_ == 0.5 and hp.epochs == 10
        assert hp.noise_sigma == 0.05 and hp.drop_prob == 0.2
        assert split.num_classes == 8 and split.rho == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="epochs"):
            parse_config_text("epochs = ten")

    # every field defaults to a value of its annotated type
    @pytest.mark.parametrize("name", [f.name for cls in (Hyperparams, SplitSpec)
                                      for f in fields(cls) if type(f.default) is int])
    def test_integer_keys_reject_fractions(self, name):
        with pytest.raises(ValidationError, match=f"value for '{name}' must be an integer"):
            parse_config_text(f"{name} = 1.5")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError, match="key = value"):
            parse_config_text("tau 0.1")

    def test_blank_and_comment_lines_ignored(self):
        values = parse_config_text("\n; note\n# note\n\ntau = 0.3\n")
        assert values == {"tau": 0.3}

    def test_partial_config_uses_defaults(self):
        hp, split = build_params(parse_config_text("beta = 5.0"))
        assert hp.beta == 5.0
        assert hp.lr0 == Hyperparams().lr0
        assert split == SplitSpec()

    def test_desk_config_lists_every_field(self):
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
        listed = set(read_config_file(desk))
        expected = {f.name for cls in (Hyperparams, SplitSpec) for f in fields(cls)}
        assert listed == expected

    def test_every_numeric_setting_has_a_rule(self):
        # sep shapes a generated split and workers a sweep; neither is a config key
        settings = {f.name for cls in (Hyperparams, SplitSpec) for f in fields(cls)}
        assert set(SETTING_RULES) == settings | {"sep", "workers"}
