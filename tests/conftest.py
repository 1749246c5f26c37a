from __future__ import annotations

import sys

import pytest

from csetrw import instance
from csetrw.instance import make_instance, validate_instance
from csetrw.mesh import gen_mesh
from csetrw.schema import delta2_schema, graph_schema


@pytest.fixture(autouse=True)
def validate_built_instances(monkeypatch):
    """Fail on any invalid instance a library construction builds.

    The library builds its outputs through `instance._trusted` and does
    not check them. Every module that looks that name up gets a version
    that runs `validate_instance` on what it returns.
    """
    trusted = instance._trusted

    def checked(schema, card, columns):
        x = trusted(schema, card, columns)
        violations = validate_instance(x)
        if violations:
            pytest.fail(f"a library construction built an invalid instance: {violations}")
        return x

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "csetrw" and getattr(module, "_trusted", None) is trusted:
            monkeypatch.setattr(module, "_trusted", checked)


@pytest.fixture(scope="session")
def graph():
    return graph_schema()


@pytest.fixture(scope="session")
def d2():
    return delta2_schema()


@pytest.fixture()
def small_graph(graph):
    """Three vertices, three edges: 1 -> 2 and a parallel pair 2 -> 3."""
    return make_instance(graph, {"V": 3, "E": 3}, {"src": [1, 2, 2], "tgt": [2, 3, 3]})


@pytest.fixture()
def two_triangles():
    """The unit mesh cell: two triangles sharing a diagonal edge."""
    return gen_mesh(1, 1)


@pytest.fixture()
def triangle(d2):
    """A single filled triangle spanning vertices 1 -> 2 -> 3."""
    return make_instance(
        d2,
        {"V": 3, "E": 3, "T": 1},
        {"src": [1, 1, 2], "tgt": [3, 2, 3], "d0": [1], "d1": [2], "d2": [3]},
    )
