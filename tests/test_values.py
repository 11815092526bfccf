"""The value types: plain classes that behave as the dataclasses they
replaced did, and a package import that loads neither ``dataclasses`` nor
``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cuboid_complex
from cuboid_complex.assembly import GlobalSpace
from cuboid_complex.elements import (BubbleBasis, ComponentGroup,
                                     DofFunctional, FamilyId, ShapeSpaceSpec)
from cuboid_complex.mesh import CuboidMesh, build_box_mesh, uniform_unit_mesh
from cuboid_complex.operators import PolyField
from cuboid_complex.polytensor import CellBox, Degree3, EntityRef, box
from cuboid_complex.verify import ExactnessReport

F = Fraction

# (a fresh instance, its repr as the dataclass printed it)
FROZEN = [
    (lambda: Degree3(1, 2, 3), "Degree3(kx=1, ky=2, kz=3)"),
    (lambda: box(0, 1, 0, F(1, 2), 0, 3),
     "CellBox(lo=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
     "hi=(Fraction(1, 1), Fraction(1, 2), Fraction(3, 1)))"),
    (lambda: EntityRef("edge", box(0, 1, 0, 0, 0, 0)),
     "EntityRef(kind='edge', extent=CellBox(lo=(Fraction(0, 1), "
     "Fraction(0, 1), Fraction(0, 1)), hi=(Fraction(1, 1), Fraction(0, 1), "
     "Fraction(0, 1))))"),
    (lambda: FamilyId("u", 3), "FamilyId(name='u', k=3)"),
    (lambda: ComponentGroup("diag", ("xx", "yy", "zz"), ("xx", "yy")),
     "ComponentGroup(name='diag', components=('xx', 'yy', 'zz'), "
     "independent=('xx', 'yy'))"),
    (lambda: DofFunctional(("vertex", (0, 0, 0)),
                           EntityRef("vertex", box(0, 0, 0, 0, 0, 0)), "s",
                           (0, 0, 0), (0, 0, 0), "point"),
     "DofFunctional(entity_label=('vertex', (0, 0, 0)), "
     "entity=EntityRef(kind='vertex', extent=CellBox(lo=(Fraction(0, 1), "
     "Fraction(0, 1), Fraction(0, 1)), hi=(Fraction(0, 1), Fraction(0, 1), "
     "Fraction(0, 1)))), component='s', deriv=(0, 0, 0), weight=(0, 0, 0), "
     "kind='point', bubble_index=-1)"),
    (lambda: BubbleBasis(3, ()), "BubbleBasis(k=3, triples=())"),
    (lambda: build_box_mesh([0, F(1, 2), 1], [0, 1], [0, 2]),
     "CuboidMesh(breaks_x=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), "
     "breaks_y=(Fraction(0, 1), Fraction(1, 1)), "
     "breaks_z=(Fraction(0, 1), Fraction(2, 1)))"),
]
# frozen, but one field is a dict, so hashing fails as the dataclass's did
SPEC = (lambda: ShapeSpaceSpec("scalar", False, False, {"s": Degree3(3, 3, 3)},
                               (ComponentGroup("s", ("s",), ("s",)),)),
        "ShapeSpaceSpec(kind='scalar', symmetric=False, traceless=False, "
        "degrees={'s': Degree3(kx=3, ky=3, kz=3)}, "
        "groups=(ComponentGroup(name='s', components=('s',), "
        "independent=('s',)),))")
MUTABLE = [
    (lambda: PolyField("scalar", {}, box(0, 1, 0, 1, 0, 1)),
     "PolyField(kind='scalar', comps={}, cell=CellBox(lo=(Fraction(0, 1), "
     "Fraction(0, 1), Fraction(0, 1)), hi=(Fraction(1, 1), Fraction(1, 1), "
     "Fraction(1, 1))), symmetric=False)"),
    (lambda: GlobalSpace(FamilyId("x", 2), uniform_unit_mesh(1, 1, 1), 2,
                         [[0, 1]], []),
     "GlobalSpace(fam=FamilyId(name='x', k=2), mesh=CuboidMesh("
     "breaks_x=(Fraction(0, 1), Fraction(1, 1)), breaks_y=(Fraction(0, 1), "
     "Fraction(1, 1)), breaks_z=(Fraction(0, 1), Fraction(1, 1))), "
     "dimension=2, cell_maps=[[0, 1]], ref_dofs=[])"),
    (lambda: ExactnessReport("gradgrad", 3, (1, 1, 1), [1, 2, 3, 4],
                             [0, 1, 2], None, True, 1, True, 0, 1.5,
                             "rational"),
     "ExactnessReport(complex_name='gradgrad', k=3, mesh_shape=(1, 1, 1), "
     "dims=[1, 2, 3, 4], ranks=[0, 1, 2], ranks_float=None, "
     "composition_zero=True, kernel_dim_expected=1, exact=True, "
     "cohomology_dim=0, elapsed_ms=1.5, arithmetic_mode='rational', "
     "seed=None)"),
]
ALL = FROZEN + [SPEC] + MUTABLE
NAMESPACE = {cls.__name__: cls for cls in (
    BubbleBasis, CellBox, ComponentGroup, CuboidMesh, Degree3, DofFunctional,
    EntityRef, ExactnessReport, FamilyId, GlobalSpace, PolyField,
    ShapeSpaceSpec)} | {"Fraction": Fraction}


def _ids(cases):
    return [text.split("(", 1)[0] for _, text in cases]


def _fields(text: str) -> dict:
    """The fields a repr spells, in order: the repr read as a ``dict`` call."""
    return eval("dict" + text[text.index("("):], NAMESPACE)


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_repr_and_keyword_constructor(make, text):
    """The repr is the dataclass's, and read back as keyword calls it
    rebuilds an equal value: every constructor keeps its field names."""
    value = make()
    assert repr(value) == text
    assert eval(text, NAMESPACE) == value


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_equality_is_by_fields_within_one_class(make, text):
    value, twin = make(), make()
    assert value is not twin and value == twin and not value != twin
    fields = tuple(_fields(text).values())
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    for other, _ in ALL:
        if other is not make:
            assert value != other()


@pytest.mark.parametrize("make, text", ALL, ids=_ids(ALL))
def test_copies_and_pickles_are_equal(make, text):
    value = make()
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


@pytest.mark.parametrize("make, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_values_hash_and_refuse_assignment(make, text):
    value = make()
    assert hash(value) == hash(make())
    name = next(iter(_fields(text)))
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_shape_space_spec_is_frozen_but_holds_a_dict():
    spec = SPEC[0]()
    with pytest.raises(AttributeError):
        spec.kind = "vector"
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(spec)


@pytest.mark.parametrize("make, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_values_are_unhashable(make, text):
    value = make()
    with pytest.raises(TypeError, match="unhashable type"):
        hash(value)
    name = next(iter(_fields(text)))
    setattr(value, name, None)
    assert getattr(value, name) is None and value != make()


def test_mesh_shape_is_set_by_the_constructor():
    mesh = CuboidMesh((F(0), F(1), F(2)), (F(0), F(1)), (F(0), F(1), F(3), F(4)))
    assert mesh.shape == (2, 1, 3)
    with pytest.raises(AttributeError):
        mesh.shape = (1, 1, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: CellBox((F(1), F(0), F(0)), (F(0), F(1), F(1))),
     "box extent reversed on axis x"),
    (lambda: EntityRef("face", box(0, 1, 0, 0, 0, 0)),
     "entity tagged 'face' but extent says 'edge'"),
])
def test_constructors_validate(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_package_import_loads_neither_dataclasses_nor_inspect():
    """Each CLI call and benchmark worker is a fresh process, so what the
    import loads is paid every time."""
    src = str(Path(cuboid_complex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, cuboid_complex, cuboid_complex.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
