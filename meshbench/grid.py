"""Seeded triangulated grids as JSON documents, and the answers the
benchmark expects, worked out on grid coordinates.

Nothing here imports csetrw: expected outputs come from the grid layout
alone, so the checks do not trust the code they test.

A rows x cols grid has vertices (r, c) for 0 <= r <= rows, 0 <= c <= cols.
Edges are labelled ("h", r, c): (r, c) -> (r, c+1), ("v", r, c):
(r, c) -> (r+1, c), and per cell (r, c) one diagonal, either
("d", r, c): top-left -> bottom-right or ("a", r, c): top-right ->
bottom-left. A triangle a -> b -> c is the edge-label triple (d0, d1, d2)
with d1: a -> b, d2: b -> c and d0: a -> c, as in the delta2 schema.
"""

from __future__ import annotations

import random

MAIN, ANTI = "d", "a"

# The delta2 schema as a document; inputs reference it by name, the way CLI
# users pass `--schema d2.json`.
D2_SCHEMA = {
    "objects": ["V", "E", "T"],
    "generators": [
        {"name": "src", "dom": "E", "cod": "V"},
        {"name": "tgt", "dom": "E", "cod": "V"},
        {"name": "d0", "dom": "T", "cod": "E"},
        {"name": "d1", "dom": "T", "cod": "E"},
        {"name": "d2", "dom": "T", "cod": "E"},
    ],
    "equations": [
        [{"source": "T", "components": ["d0", "src"]}, {"source": "T", "components": ["d1", "src"]}],
        [{"source": "T", "components": ["d0", "tgt"]}, {"source": "T", "components": ["d2", "tgt"]}],
        [{"source": "T", "components": ["d1", "tgt"]}, {"source": "T", "components": ["d2", "src"]}],
    ],
}

# One cell, numbered like csetrw's quad_pattern(): corners TL, TR, BL, BR;
# boundary edges top, right, left, bottom; the diagonal last.
CELL_VERTICES = [(0, 0), (0, 1), (1, 0), (1, 1)]
CELL_BOUNDARY = [("h", 0, 0), ("v", 0, 1), ("v", 0, 0), ("h", 1, 0)]


def edge_ends(label: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
    kind, r, c = label
    if kind == "h":
        return (r, c), (r, c + 1)
    if kind == "v":
        return (r, c), (r + 1, c)
    if kind == MAIN:
        return (r, c), (r + 1, c + 1)
    return (r, c + 1), (r + 1, c)


def cell_triangles(r: int, c: int, diag: str) -> list[tuple]:
    if diag == MAIN:
        return [
            ((MAIN, r, c), ("h", r, c), ("v", r, c + 1)),  # TL -> TR -> BR
            ((MAIN, r, c), ("v", r, c), ("h", r + 1, c)),  # TL -> BL -> BR
        ]
    return [
        (("v", r, c), ("h", r, c), (ANTI, r, c)),  # TL -> TR -> BL
        (("v", r, c + 1), (ANTI, r, c), ("h", r + 1, c)),  # TR -> BL -> BR
    ]


def corners(tri: tuple) -> tuple:
    """The vertex triple (a, b, c) of a triangle."""
    a, b = edge_ends(tri[1])
    return a, b, edge_ends(tri[2])[1]


def shift(label: tuple, r: int, c: int) -> tuple:
    """A cell-local label moved to cell (r, c)."""
    if len(label) == 2:
        return (label[0] + r, label[1] + c)
    if isinstance(label[0], tuple):
        return tuple(shift(e, r, c) for e in label)
    return (label[0], label[1] + r, label[2] + c)


def instance_doc(vertices: list, edges: list, triangles: list) -> dict:
    """An instance document whose part i of each object is list entry i-1."""
    vid = {v: i + 1 for i, v in enumerate(vertices)}
    eid = {e: i + 1 for i, e in enumerate(edges)}
    ends = [edge_ends(e) for e in edges]
    return {
        "schema": "d2",
        "card": {"V": len(vertices), "E": len(edges), "T": len(triangles)},
        "columns": {
            "src": [vid[a] for a, _ in ends],
            "tgt": [vid[b] for _, b in ends],
            "d0": [eid[t[0]] for t in triangles],
            "d1": [eid[t[1]] for t in triangles],
            "d2": [eid[t[2]] for t in triangles],
        },
    }


def cell_edges(diag: str) -> list:
    return CELL_BOUNDARY + [(diag, 0, 0)]


def cell_doc(diag: str) -> dict:
    return instance_doc(CELL_VERTICES, cell_edges(diag), cell_triangles(0, 0, diag))


def flip_rule_doc() -> dict:
    """The quadrilateral edge flip: L = main-diagonal cell, I = its boundary,
    R = anti-diagonal cell."""
    keep = {"V": [1, 2, 3, 4], "E": [1, 2, 3, 4], "T": []}
    return {
        "kind": "dpo",
        "L": cell_doc(MAIN),
        "I": instance_doc(CELL_VERTICES, CELL_BOUNDARY, []),
        "R": cell_doc(ANTI),
        "l": {"comp": keep},
        "r": {"comp": keep},
    }


def vertices_doc(n: int) -> dict:
    return {"schema": "d2", "card": {"V": n, "E": 0, "T": 0}, "columns": {}}


def clone_rule_doc() -> dict:
    """SqPO: L = one vertex, I = two vertices identified by l, R = I."""
    return {
        "kind": "sqpo",
        "L": vertices_doc(1),
        "I": vertices_doc(2),
        "R": vertices_doc(2),
        "l": {"comp": {"V": [1, 1]}},
        "r": {"comp": {"V": [1, 2]}},
    }


def delete_rule_doc() -> dict:
    """SPO: L = one vertex, I = R = empty."""
    return {
        "kind": "spo",
        "L": vertices_doc(1),
        "I": vertices_doc(0),
        "R": vertices_doc(0),
        "l": {"comp": {"V": []}},
        "r": {"comp": {"V": []}},
    }


class Grid:
    """A triangulated grid with fixed part numbering.

    `vertices`, `edges` and `triangles` list the labels in part order:
    horizontal edges, then vertical, then diagonals, as csetrw's gen_mesh.
    """

    def __init__(self, rows: int, cols: int, diag: dict[tuple[int, int], str]):
        self.rows, self.cols, self.diag = rows, cols, diag
        self.vertices = [(r, c) for r in range(rows + 1) for c in range(cols + 1)]
        self.edges = (
            [("h", r, c) for r in range(rows + 1) for c in range(cols)]
            + [("v", r, c) for r in range(rows) for c in range(cols + 1)]
            + [(diag[r, c], r, c) for r in range(rows) for c in range(cols)]
        )
        self.triangles = [
            t for r in range(rows) for c in range(cols) for t in cell_triangles(r, c, diag[r, c])
        ]

    def ids(self) -> dict[str, dict]:
        """Part id of every label, per object."""
        return {
            obj: {label: i + 1 for i, label in enumerate(labels)}
            for obj, labels in (("V", self.vertices), ("E", self.edges), ("T", self.triangles))
        }

    def doc(self) -> dict:
        return instance_doc(self.vertices, self.edges, self.triangles)

    def flipped(self, cells) -> "Grid":
        diag = dict(self.diag)
        for cell in cells:
            diag[cell] = ANTI
        return Grid(self.rows, self.cols, diag)

    def d0_pairs(self) -> list[tuple[int, int]]:
        """Ordered pairs of triangle ids sharing their d0 edge, self-pairs included."""
        by_d0: dict[tuple, list[int]] = {}
        for i, t in enumerate(self.triangles, start=1):
            by_d0.setdefault(t[0], []).append(i)
        return sorted((s, t) for group in by_d0.values() for s in group for t in group)

    def shape(self) -> tuple[set, set]:
        """Edges as coordinate pairs and triangles as coordinate triples."""
        return {edge_ends(e) for e in self.edges}, {corners(t) for t in self.triangles}


def seeded_grid(rows: int, cols: int, seed: int, stream: str) -> Grid:
    """Each cell's diagonal drawn from the seed; `stream` separates the
    draws of different inputs made from one seed."""
    rng = random.Random(f"{stream}:{seed}")
    return Grid(rows, cols, {(r, c): rng.choice((MAIN, ANTI)) for r in range(rows) for c in range(cols)})
