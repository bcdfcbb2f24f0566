import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from umfdet import data, instruct, model

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def toy_corpus():
    return data.synth_toy_corpus(60, 0.9, seed=0)


@pytest.fixture(scope="session")
def template():
    return instruct.default_template()


@pytest.fixture(scope="session")
def toy_vocab(toy_corpus, template):
    return instruct.build_vocab(toy_corpus, template)


@pytest.fixture(scope="session")
def tiny_config(toy_vocab):
    return model.ModelConfig(h=16, h_v=64, n_heads=2, n_enc=1, n_moe=1, n_dec=1,
                             vocab_size=len(toy_vocab), max_len=128,
                             max_vis_tokens=16, gen_max_tokens=48)


@pytest.fixture()
def tiny_model(tiny_config):
    return model.init_model(tiny_config, np.random.default_rng(7))
