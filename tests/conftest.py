import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from moexp import EnumConfig, Model, build_graph, canonical_order, enumerate_subgraphs, forward, forward_hidden

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def chain_graph():
    """Path 0-1-2-3; only node 0 carries signal. Target of interest is 2."""
    return build_graph([[1.0], [0.0], [0.0], [0.0]], [(0, 1), (1, 2), (2, 3)], labels=[1, 0, 0, 0])


@pytest.fixture
def chain_model():
    """Scalar two-layer stack whose class-0 probability is sigma(h)."""
    return Model(layers=(np.array([[1.0]]), np.array([[1.0, 0.0]])), activation="sigmoid")


@pytest.fixture
def triangle_graph():
    return build_graph([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [(0, 1), (0, 2), (1, 2)], labels=[0, 1, 0])


@pytest.fixture
def triangle_model():
    return Model(layers=(np.eye(2), np.eye(2)), activation="relu")


def sem_chain(t):
    """The scalar-feature chain used by the nested-sum expansion checks."""
    return build_graph([[1.0], [0.0], [0.0], [float(t)]], [(0, 1), (1, 2), (2, 3)])


def sem_model():
    """Scalar sigmoid stack with the activation kept on the last layer."""
    return Model(layers=(np.array([[1.0]]), np.array([[1.0]])), activation="sigmoid", final_activation=True)


# The package's stages take a target's ball; tests that start from a graph
# and a node build the ball as the entry points do.


def enumerate_at(graph, target, config=EnumConfig()):
    """``enumerate_subgraphs`` on the target's ball of ``config.diameter`` hops."""
    return enumerate_subgraphs(canonical_order(graph, target, config.diameter), config)


def forward_at(model, graph, v):
    """``forward`` on v's ball of the model's depth."""
    return forward(model, canonical_order(graph, v, model.depth))


def hidden_at(model, graph, v):
    """``forward_hidden`` on v's ball of the model's depth."""
    return forward_hidden(model, canonical_order(graph, v, model.depth))
