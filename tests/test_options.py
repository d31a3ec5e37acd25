"""The option rule: every field of PrepareOptions, TrainConfig and
EvalOptions is checked against its default's type when the dataclass is
built, and a fault is a ConfigurationError naming the config key."""

import numpy as np
import pytest

from nirrec.errors import ConfigurationError
from nirrec.evaluate import EvalOptions
from nirrec.ingest import PrepareOptions
from nirrec.model import TrainConfig
from nirrec.options import KINDS, config_key


@pytest.mark.parametrize("cls, values, key", [
    (EvalOptions, {"repeats": True}, "repeats"),
    (TrainConfig, {"propagate_taxonomy": "no"}, "propagate_taxonomy"),
    (TrainConfig, {"lr": True}, "lr"),
    (TrainConfig, {"lr": "0.1"}, "lr"),
    (TrainConfig, {"lambda_": "0.5"}, "lambda"),
    (PrepareOptions, {"vectors_path": 3}, "vectors_path"),
    (PrepareOptions, {"boundary_days": "7"}, "boundary_days"),
    (PrepareOptions, {"attr_mode": "dense"}, "attr_mode"),
])
def test_a_bad_value_names_its_config_key(cls, values, key):
    with pytest.raises(ConfigurationError, match=rf"^{key} must "):
        cls(**values)


def test_values_that_stand_for_their_default_type():
    """An int or a NumPy scalar stands for a float, a NumPy integer for an
    int, and a list of integers for a tuple, stored as a tuple of ints."""
    cfg = TrainConfig(lr=1, gamma=np.float64(0.5), d=np.int64(8), eval_ks=[np.int64(5), 20])
    assert cfg.eval_ks == (5, 20) and all(type(k) is int for k in cfg.eval_ks)
    assert PrepareOptions(levels=[4, 3, 2]).levels == (4, 3, 2)
    assert PrepareOptions(vectors_path="v.vec").vectors_path == "v.vec"


def test_parsers_and_keys():
    assert config_key("lambda_") == "lambda"
    assert KINDS[tuple].parse("1, 5,") == (1, 5)
    assert KINDS[bool].parse(" Yes ") is True and KINDS[bool].parse("off") is False
    with pytest.raises(ConfigurationError, match="expected a boolean"):
        KINDS[bool].parse("maybe")
    assert KINDS[type(None)].parse("v.vec") == "v.vec"
