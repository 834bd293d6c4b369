"""Shared random-instance builders for routing tests."""

import numpy as np
import pytest
from hypothesis import settings

from capsem.routing import (CapsuleBatch, RoutingConfig, RoutingParams,
                            param_shapes)

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_config(rng, mode="fixed", tie=False, small=False, n_iters=None):
    if small:
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(3)]
    else:
        n_in = int(rng.integers(2, 9))
        n_out = int(rng.integers(2, 5))
        dims = [int(rng.integers(1, 5)) for _ in range(3)]
    d_cov, d_in, d_out = dims
    iters = int(rng.integers(1, 4)) if n_iters is None else n_iters
    kwargs = dict(d_cov=d_cov, d_in=d_in, d_out=d_out, n_iters=iters,
                  tie_betas=tie, var_floor=1e-8, denom_eps=1e-12)
    if mode == "fixed":
        return RoutingConfig(n_out=n_out, n_in=n_in, **kwargs)
    if mode == "variable_input":
        return RoutingConfig(n_out=n_out, n_in=None, **kwargs)
    if mode == "variable_output":
        return RoutingConfig(n_out="variable", n_in=None, **kwargs)
    raise ValueError(mode)


def random_params(rng, config, scale=0.5):
    return RoutingParams.from_items(
        (name, rng.normal(0.0, scale, size=shape))
        for name, shape in param_shapes(config).items())


def random_caps(rng, config, batch=2, n=None, score_span=3.0):
    if n is None:
        n = config.n_in if config.n_in is not None else int(rng.integers(2, 9))
    scores = rng.uniform(-score_span, score_span, size=(batch, n))
    poses = rng.normal(size=(batch, n, config.d_cov, config.d_in))
    return CapsuleBatch(scores, poses)


def random_out_bias(rng, config, n_out=3, scale=0.5):
    return rng.normal(0.0, scale, size=(n_out, config.d_cov, config.d_out))


def random_instance(rng, mode="fixed", tie=False, small=False, batch=2,
                    n_iters=None):
    """One complete (config, params, caps, out_bias) routing instance."""
    config = random_config(rng, mode=mode, tie=tie, small=small,
                           n_iters=n_iters)
    params = random_params(rng, config)
    caps = random_caps(rng, config, batch=batch)
    out_bias = None
    if mode == "variable_output":
        out_bias = random_out_bias(rng, config, n_out=int(rng.integers(2, 5)))
    return config, params, caps, out_bias


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
