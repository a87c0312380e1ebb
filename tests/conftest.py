import pytest

import spextremal as sp


def pytest_addoption(parser):
    parser.addoption("--runlong", action="store_true", default=False,
                     help="run the long exhaustive checks (n = 8, 9; class counts to 12)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runlong"):
        return
    skip = pytest.mark.skip(reason="needs --runlong")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def instances_to_7():
    """Every canonical 2-connected instance with 2..7 edges, all ranks."""
    out = []
    for n in range(2, 8):
        for k in range(1, n):
            for tree in sp.enumerate_rooted(n, k):
                out.append(sp.build(tree))
    return out


@pytest.fixture(scope="session")
def instances_to_6(instances_to_7):
    return [inst for inst in instances_to_7 if len(inst.graph.edges) <= 6]
