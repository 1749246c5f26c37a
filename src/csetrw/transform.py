"""Natural transformations between instances on a shared schema."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotMonicError
from .instance import CSetInstance


@dataclass
class Transformation:
    """Per-object part maps dom -> cod, a missing object empty; natural when squares commute."""

    dom: CSetInstance
    cod: CSetInstance
    comp: dict[str, list[int]]

    def __post_init__(self):
        for obj in self.comp:
            if obj not in self.dom.card:
                raise ValueError(f"component for {obj!r}, which is not in the schema")
        self.comp = {o: list(self.comp.get(o, ())) for o in self.dom.schema.objects}
        _check_components(self)

    @cached_property
    def classifier_map(self) -> Transformation:
        """T(self), built on first use and kept, like `CSetInstance.classifier`."""
        from .colimits import classifier_map

        return classifier_map(self.dom.classifier, self.cod.classifier, self)

    @cached_property
    def append_program(self) -> tuple[dict, dict] | None:
        """`colimits._append_program(self)`, the pushout along self compiled; None unless monic, kept like T(self)."""
        from .colimits import _append_program

        return _append_program(self)

    @cached_property
    def classifier_fibres(self) -> dict[str, dict[int, list[int]]]:
        """Per object, the ascending T(dom)-parts over each T(cod)-part under T(self), kept like it."""
        fibres: dict[str, dict[int, list[int]]] = {obj: {} for obj in self.dom.schema.objects}
        for obj, col in self.classifier_map.comp.items():
            for t, image in enumerate(col, start=1):
                fibres[obj].setdefault(image, []).append(t)
        return fibres

    def apply(self, obj: str, part: int) -> int:
        return self.comp[obj][part - 1]

    def compose(self, other: Transformation) -> Transformation:
        """Diagrammatic composite: self then other."""
        if other.dom != self.cod:
            raise ValueError("composition endpoints do not match")
        comp = {
            obj: [other.comp[obj][v - 1] for v in self.comp[obj]]
            for obj in self.dom.schema.objects
        }
        return _adopt(self.dom, other.cod, comp)

    def is_monic(self) -> bool:
        return all(len(set(col)) == len(col) for col in self.comp.values())

    def image(self, obj: str) -> set[int]:
        return set(self.comp[obj])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Transformation):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.comp == other.comp

    def __repr__(self):
        return f"Transformation({self.dom!r} -> {self.cod!r})"


def _adopt(dom: CSetInstance, cod: CSetInstance, comp: dict[str, list[int]]) -> Transformation:
    """A transformation on `comp` as it is, unchecked: for maps built from natural maps."""
    t = object.__new__(Transformation)
    t.dom, t.cod, t.comp = dom, cod, comp
    return t


def identity(x: CSetInstance) -> Transformation:
    return _adopt(x, x, {obj: list(x.parts(obj)) for obj in x.schema.objects})


def factor_through(f: Transformation, m: Transformation) -> Transformation:
    """The h with h;m = f, for monic m.

    Raises NotMonicError if m is not monic and ValueError if the image
    of f leaves the image of m. h is natural whenever f and m are.
    """
    if f.cod != m.cod:
        raise ValueError("factoring requires a shared codomain")
    comp: dict[str, list[int]] = {}
    for obj in m.dom.schema.objects:
        back = [0] * m.cod.card[obj]
        for new, old in enumerate(m.comp[obj], start=1):
            back[old - 1] = new
        if len(back) - back.count(0) != len(m.comp[obj]):
            raise NotMonicError(f"component for {obj!r} of the factored-through map is not injective")
        col = [back[v - 1] for v in f.comp[obj]]
        if 0 in col:
            part = col.index(0) + 1
            raise ValueError(f"part {part} of {obj!r} maps outside the image it is factored through")
        comp[obj] = col
    return _adopt(f.dom, m.dom, comp)


@dataclass(frozen=True)
class NaturalityViolation:
    generator: str
    part: int
    expected: int
    actual: int

    def __str__(self):
        return (
            f"square for {self.generator!r} fails at part {self.part}: "
            f"expected {self.expected}, got {self.actual}"
        )


def _check_components(t: Transformation) -> None:
    """The constructor's check: ValueError unless each domain part goes to a codomain part."""
    dom_card, cod_card = t.dom.card, t.cod.card
    for obj, col in t.comp.items():
        if len(col) != dom_card[obj]:
            raise ValueError(f"component for {obj!r} has wrong length")
        if col and (min(col) < 1 or max(col) > cod_card[obj]):
            part = next(p for p, v in enumerate(col, start=1) if not 1 <= v <= cod_card[obj])
            raise ValueError(f"component for {obj!r} sends {part} outside 1..{cod_card[obj]}")


def is_natural(t: Transformation) -> list[NaturalityViolation]:
    """Naturality violations, empty iff a homomorphism; ValueError for a bad component."""
    if t.dom.schema != t.cod.schema:
        raise ValueError("domain and codomain instances live on different schemas")
    _check_components(t)
    out: list[NaturalityViolation] = []
    comp, dom_column, cod_column = t.comp, t.dom.column, t.cod.column
    for gen in t.dom.schema.generators:
        if not comp[gen.dom]:
            continue
        # both sides of the squares as columns over the domain's parts; only a generator with a failing square is walked
        at, col = comp[gen.cod], cod_column[gen.name]
        expected, actual = [at[v - 1] for v in dom_column[gen.name]], [col[v - 1] for v in comp[gen.dom]]
        if expected != actual:
            out += (NaturalityViolation(gen.name, p, e, a) for p, (e, a) in enumerate(zip(expected, actual), 1) if e != a)
    return out
