import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sigmagraph.zoo import corpus, standard_partitions


@pytest.fixture(scope="session")
def corpus_groups():
    return corpus()


@pytest.fixture(scope="session")
def partitions():
    return standard_partitions()


@pytest.fixture
def cayley_walks(monkeypatch):
    """The degree of each group enumerated while the test runs, one entry
    per Cayley walk (``group._cayley_walk``, the one route to an order)."""
    import sigmagraph.group
    walks = []
    real = sigmagraph.group._cayley_walk

    def counted(degree, generators, bound):
        walks.append(degree)
        return real(degree, generators, bound)

    monkeypatch.setattr(sigmagraph.group, "_cayley_walk", counted)
    return walks
