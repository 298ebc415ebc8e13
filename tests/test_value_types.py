"""The frozen value types keep the whole dataclass contract although their
``__init__`` writes the fields in one ``__dict__`` update: frozen, equality,
hash and repr by field, the generated signature, ``dataclasses.replace``
through ``__post_init__``, pickling and the CLI schema read from the fields."""

import dataclasses
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError
from fractions import Fraction

import pytest

from hamfano import cli, dh, fano6, fixed_data, graphs, localization, reports, toric
from hamfano.dh import PiecewisePolynomial
from hamfano.fano6 import Chain
from hamfano.fixed_data import FixedComponent, FixedPointData, GradientEdge
from hamfano.graphs import LabelledGraph
from hamfano.localization import Polynomial
from hamfano.reports import Report, StructuralError, Violation, value_type
from hamfano.toric import (
    DelPezzoEntry,
    Edge,
    Facet,
    LatticePolytope,
    ScanItem,
    catalog_entry,
    karshon_graph,
)

_CP2 = catalog_entry("CP2").polytope
_LOW = FixedComponent("lo", "point", 0, (1, 2))
_HIGH = FixedComponent("hi", "point", "1/2", (-1, -2))
_UP = GradientEdge("lo", "hi", 1)

# every value type, with a value for each of its fields in field order
SAMPLES = {
    FixedComponent: dict(
        id="s", kind="surface", H=Fraction(3, 2), weights=(1,), genus=0,
        normal_degrees=(-1,), area=2, b2=None, fibre_intersection=1, fibre_class=True,
    ),
    GradientEdge: dict(bottom="lo", top="hi", weight=2, interior_points=((1, -1),)),
    FixedPointData: dict(
        half_dim=2, components=(_LOW, _HIGH), edges=(_UP,), relative_fano=True, fano=False
    ),
    Violation: dict(code="c", message="m", subject="s", status="inconclusive"),
    Edge: dict(i=0, j=1, direction=(1, 0), length=3),
    Facet: dict(normal=(0, 1), c=1, vertex_ids=(0, 1)),
    LatticePolytope: dict(vertices=((-1, -1), (-1, 2), (2, -1))),
    ScanItem: dict(xi=(1, 2), data=None, report=Report(notes=["n"]), error="e"),
    DelPezzoEntry: dict(name="CP2", polytope=_CP2, b2=1, degree=9),
    LabelledGraph: dict(vertices=(_HIGH, _LOW), edges=(_UP,), v_min="lo", v_max="hi"),
    Polynomial: dict(coefficients=(Fraction(1), Fraction(-2))),
    PiecewisePolynomial: dict(
        breakpoints=(Fraction(0), Fraction(1)), pieces=(Polynomial((Fraction(1),)),)
    ),
    Chain: dict(points=("a", "b"), edge_weights=(2,)),
}
# one field of each sample, changed to another valid value
CHANGED = {
    FixedComponent: dict(H=Fraction(5, 2)),
    GradientEdge: dict(weight=3),
    FixedPointData: dict(fano=True),
    Violation: dict(code="d"),
    Edge: dict(length=4),
    Facet: dict(c=2),
    LatticePolytope: dict(vertices=((-1, -1), (-1, 1), (1, -1), (1, 1))),
    ScanItem: dict(error="f"),
    DelPezzoEntry: dict(degree=8),
    LabelledGraph: dict(v_min=None),
    Polynomial: dict(coefficients=(Fraction(7),)),
    PiecewisePolynomial: dict(breakpoints=(Fraction(0), Fraction(2))),
    Chain: dict(points=("a", "c")),
}
TYPES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _sample(cls):
    return cls(**SAMPLES[cls])


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def test_every_value_type_has_a_sample():
    frozen = {
        cls
        for module in (cli, dh, fano6, fixed_data, graphs, localization, reports, toric)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    }
    assert frozen == set(SAMPLES) and len(SAMPLES) == 13
    assert all(set(kw) == {f.name for f in dataclasses.fields(cls)} for cls, kw in SAMPLES.items())


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_value_types_are_frozen(cls):
    obj = _sample(cls)
    for f in dataclasses.fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
    with pytest.raises(FrozenInstanceError):
        obj.stranger = 1
    assert _values(obj) == _values(_sample(cls))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_eq_hash_and_repr_go_field_by_field(cls):
    a, b = _sample(cls), _sample(cls)
    assert a == b and not a != b
    assert _hash_or_error(a) == _hash_or_error(_values(a))
    fields = ", ".join(f"{f.name}={getattr(a, f.name)!r}" for f in dataclasses.fields(cls))
    assert repr(a) == f"{cls.__qualname__}({fields})"
    assert a != _values(a)
    c = dataclasses.replace(a, **CHANGED[cls])
    assert a != c and not a == c and _values(a) != _values(c)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_init_keeps_the_generated_signature(cls):
    assert "__init__" in vars(cls)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    reference = dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default)
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )

    def params(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(reference)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_construction_is_positional_or_by_keyword(cls):
    kwargs = SAMPLES[cls]
    args = list(kwargs.values())
    assert _values(cls(*args)) == _values(cls(**kwargs))
    names = list(kwargs)
    for split in range(len(args) + 1):
        mixed = cls(*args[:split], **{n: kwargs[n] for n in names[split:]})
        assert _values(mixed) == _values(cls(**kwargs))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_wrong_arguments_raise_type_error(cls):
    kwargs = SAMPLES[cls]
    args = list(kwargs.values())
    required = [f.name for f in dataclasses.fields(cls) if f.default is MISSING]
    for name in required:
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{name}'"):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError, match="unexpected keyword argument 'stranger'"):
        cls(**kwargs, stranger=1)
    first = next(iter(kwargs))
    with pytest.raises(TypeError, match=f"got multiple values for argument '{first}'"):
        cls(*args, **{first: kwargs[first]})
    with pytest.raises(TypeError, match="positional argument"):
        cls(*args, None)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_construction_and_replace_run_post_init_once(cls, monkeypatch):
    obj = _sample(cls)
    if "__post_init__" not in vars(cls):
        assert not hasattr(cls, "__post_init__")
        assert dataclasses.replace(obj) == obj
        return
    calls = []
    inner = cls.__post_init__

    def counted(self):
        calls.append(self)
        inner(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    assert _values(dataclasses.replace(obj)) == _values(obj)
    assert _values(_sample(cls)) == _values(obj)
    assert len(calls) == 2


def test_replace_canonicalises_and_checks_through_post_init():
    c = dataclasses.replace(_LOW, H="1/2")
    assert c.H == Fraction(1, 2) and type(c.H) is Fraction
    assert type(dataclasses.replace(_LOW, H="4").H) is int
    assert dataclasses.replace(_LOW, weights=[1, 2]).weights == (1, 2)
    with pytest.raises(StructuralError, match="weights must be nonzero integers"):
        dataclasses.replace(_LOW, weights=(0, 1))
    with pytest.raises(StructuralError, match="weight must be a positive integer"):
        dataclasses.replace(_UP, weight=0)
    data = FixedPointData(**SAMPLES[FixedPointData])
    assert dataclasses.replace(data, components=[_HIGH, _LOW]).ordered() == (_LOW, _HIGH)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_round_trips(cls):
    obj = _sample(cls)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls
    assert back == obj
    assert _hash_or_error(back) == _hash_or_error(obj)


def test_derived_attributes_survive_pickling():
    graph = karshon_graph(_CP2, (1, 2))
    data = FixedPointData(**SAMPLES[FixedPointData])
    for obj in (graph, data):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj
    assert pickle.loads(pickle.dumps(data)).component("hi") == _HIGH
    assert pickle.loads(pickle.dumps(graph)).vertex(graph.v_max) == graph.vertex(graph.v_max)
    back = pickle.loads(pickle.dumps(_CP2))
    assert (back.dim, back.facets, back.edges, back.delzant, back.reflexive) == (
        _CP2.dim, _CP2.facets, _CP2.edges, _CP2.delzant, _CP2.reflexive
    )
    assert back.vertex_edges(0) == _CP2.vertex_edges(0)


def test_a_polytope_is_a_value():
    assert catalog_entry("CP2") == catalog_entry("CP2")
    assert hash(catalog_entry("CP2")) == hash(catalog_entry("CP2"))
    assert catalog_entry("CP2") != catalog_entry("CP1xCP1")
    entry = catalog_entry("Bl3CP2")
    assert pickle.loads(pickle.dumps(entry)) == entry
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    p, q = LatticePolytope(square), LatticePolytope(tuple(reversed(square)))
    assert p == q and hash(p) == hash(q) and p.vertices == tuple(sorted(square))
    with pytest.raises(FrozenInstanceError):
        p.vertices = ((0, 0), (1, 0), (0, 1))
    with pytest.raises(FrozenInstanceError):
        p.delzant = False
    # the gradient edges a polytope keeps do not enter its value
    karshon_graph(p, (1, 2))
    assert p._gradient_edges and not q._gradient_edges
    assert p == q and hash(p) == hash(q)


def test_the_cli_schema_reads_the_fields_unchanged():
    assert cli._COMPONENT == {
        "id": MISSING,
        "kind": MISSING,
        "H": MISSING,
        "weights": MISSING,
        "genus": None,
        "normal_degrees": None,
        "area": None,
        "b2": None,
        "fibre_intersection": None,
        "fibre_class": False,
    }
    assert cli._EDGE == {
        "bottom": MISSING,
        "top": MISSING,
        "weight": MISSING,
        "interior_points": (),
    }
    assert cli._DATA == {
        "half_dim": MISSING,
        "components": MISSING,
        "edges": (),
        "relative_fano": False,
        "fano": False,
    }


def test_value_type_refuses_a_default_factory():
    with pytest.raises(TypeError, match="plain defaults"):

        @value_type
        class Bag:
            items: list = dataclasses.field(default_factory=list)
