import http.server
import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from umfdet import data, instruct, model
from umfdet.cot import MockGenClient

from helpers import serve_loopback

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


@pytest.fixture()
def gen_server():
    """A generation endpoint on loopback, served from a thread of this
    process. It answers its first request 503 and every later one
    {"text": MockGenClient().generate(prompt)}. Yields (url, seen), seen
    holding (Content-Type, Authorization, JSON body) for each request."""
    seen, lock = [], threading.Lock()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            with lock:
                seen.append((self.headers["Content-Type"], self.headers["Authorization"], body))
                first = len(seen) == 1
            reply = b"" if first else json.dumps(
                {"text": MockGenClient().generate(body["prompt"])}).encode()
            self.send_response(503 if first else 200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, format, *args):  # no per-request lines on stderr
            pass

    with serve_loopback(Handler) as url:
        yield f"{url}/v1/generate", seen
