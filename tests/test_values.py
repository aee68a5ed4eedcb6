"""The contract of the package's immutable value classes.

Each class takes its fields by position or by keyword, makes the same
object on its trusted path, compares, hashes and prints by its fields in
order, refuses assignment, and survives copy, deepcopy and a pickle round
trip.  The repr strings are pinned as the classes print them, so that a change of
implementation shows in no output.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import kummerlat
from kummerlat.classification import ClassificationReport, ClassificationRow, RowReport
from kummerlat.isometries import IsometryInvariants, LatticeIsometry, compute_invariants
from kummerlat.lattices import (
    FiniteQuadraticForm,
    Lattice,
    Sublattice,
    cartan_a,
    direct_sum,
    make_standard,
)
from kummerlat.lefschetz import (
    CatalogEntryReport,
    CatalogReport,
    LaurentPoly,
    LefschetzResult,
    TorusAutomorphism,
)
from kummerlat.matrix import Matrix, _Frozen, block_diag, identity
from kummerlat.pool import PoolEntry, cyclic_rotation


def _a2(name="A2"):
    return Lattice(cartan_a(2), name)


def _iso(name="U + A2"):
    lattice = direct_sum(make_standard("U"), _a2(), name=name)
    return LatticeIsometry(lattice, block_diag(identity(2), cyclic_rotation(2)), 3)


def _row():
    return ClassificationRow(1, 1, _a2(), _a2())


def _invariants_fields(r):
    return dict(invariant=r.invariant, coinvariant=r.coinvariant, m=r.m, a=r.a,
                disc_s=r.disc_s, index=r.index)


def _entry(value=81):
    return CatalogEntryReport(1, "+id", 81, value, True)


_ISO_REPR = ("LatticeIsometry(lattice=Lattice(U + A2, det=-3), "
             "matrix=Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]]), order=3)")
_ROW_REPR = "ClassificationRow(m=1, a=1, s=Lattice(A2, det=3), t=Lattice(A2, det=3))"
_ENTRY_REPR = "CatalogEntryReport(kind=1, variant='+id', expected=81, value=81, corollary_ok=True)"

# class, a function giving fresh keyword arguments, a second value for some
# fields (each still a valid object), and the repr of the first object
CASES = [
    (Lattice, lambda: dict(gram=cartan_a(2), name="A2"),
     dict(gram=Matrix([[2, 1], [1, 2]]), name="A2'"),
     "Lattice(A2, det=3)"),
    (FiniteQuadraticForm,
     lambda: dict(orders=(5,), q_values=(Fraction(2, 5),), b_matrix=((Fraction(2, 5),),)),
     dict(orders=(10,)),
     "FiniteQuadraticForm(orders=(5,), q_values=(Fraction(2, 5),), b_matrix=((Fraction(2, 5),),))"),
    (Sublattice, lambda: dict(ambient=_a2(), basis=Matrix([[1], [0]])),
     dict(ambient=_a2("A2'"), basis=Matrix([[0], [1]])),
     "Sublattice(ambient=Lattice(A2, det=3), basis=Matrix([[1], [0]]))"),
    (LatticeIsometry,
     lambda: dict(lattice=_iso().lattice, matrix=_iso().matrix, order=3),
     dict(lattice=_iso("other").lattice, matrix=_iso().matrix ** 2),
     _ISO_REPR),
    (IsometryInvariants,
     lambda: _invariants_fields(compute_invariants(_iso())),
     dict(coinvariant=Sublattice(_iso().lattice, Matrix([[1], [0], [0], [0]])), m=2, a=1,
          disc_s=5, index=2),
     "IsometryInvariants(invariant=Sublattice(ambient=Lattice(U + A2, det=-3), "
     "basis=Matrix([[1, 0], [0, 1], [0, 0], [0, 0]])), coinvariant=Sublattice(ambient="
     "Lattice(U + A2, det=-3), basis=Matrix([[0, 0], [0, 0], [1, 0], [0, 1]])), m=1, a=0, "
     "disc_s=3, index=1)"),
    (ClassificationRow, lambda: dict(m=1, a=1, s=_a2(), t=_a2()),
     dict(m=2, a=3, s=_a2("S"), t=_a2("T")),
     _ROW_REPR),
    (RowReport,
     lambda: dict(row=_row(), checks={"rank": True}, values={"rank": 2},
                  necessary_conditions_only=True),
     dict(row=ClassificationRow(2, 1, _a2(), _a2()), checks={"rank": False}, values={"rank": 3},
          necessary_conditions_only=False),
     f"RowReport(row={_ROW_REPR}, checks={{'rank': True}}, values={{'rank': 2}}, "
     "necessary_conditions_only=True)"),
    (ClassificationReport,
     lambda: dict(row_reports=(), pairs=((1, 1),), pairs_ok=True, table_pairs_ok=True,
                  complement_ok=False),
     dict(pairs=(), pairs_ok=False, table_pairs_ok=False, complement_ok=True),
     "ClassificationReport(row_reports=(), pairs=((1, 1),), pairs_ok=True, "
     "table_pairs_ok=True, complement_ok=False)"),
    (TorusAutomorphism, lambda: dict(matrix=identity(4), translation=(0, 1, 0, 2), torsion=3),
     dict(matrix=-identity(4), translation=(0, 0, 0, 0), torsion=5),
     "TorusAutomorphism(matrix=Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], "
     "[0, 0, 0, 1]]), translation=(0, 1, 0, 2), torsion=3)"),
    (LefschetzResult, lambda: dict(polynomial=LaurentPoly({0: 1, 2: -3}), value=-2),
     dict(polynomial=LaurentPoly({0: 1}), value=5),
     "LefschetzResult(polynomial=(1)*q^0 + (-3)*q^2, value=-2)"),
    (CatalogEntryReport,
     lambda: dict(kind=1, variant="+id", expected=81, value=81, corollary_ok=True),
     dict(kind=2, variant="-id", expected=80, value=80, corollary_ok=False),
     _ENTRY_REPR),
    (CatalogReport, lambda: dict(entries=(_entry(),)), dict(entries=(_entry(80),)),
     f"CatalogReport(entries=({_ENTRY_REPR},))"),
    (PoolEntry, lambda: dict(name="U + A2", isometry=_iso()), dict(name="other"),
     f"PoolEntry(name='U + A2', isometry={_ISO_REPR})"),
]

UNHASHABLE = {RowReport}  # its dict fields make it unhashable

ids = [case[0].__name__ for case in CASES]


def _value_classes() -> set[type]:
    """Every subclass of ``_Frozen`` that a module of the package defines."""
    for info in pkgutil.iter_modules(kummerlat.__path__):
        importlib.import_module(f"kummerlat.{info.name}")
    found, todo = set(), [_Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("kummerlat."):
                found.add(sub)
    return found


def test_every_value_class_is_covered():
    # a new value class cannot skip the contract below
    assert len(CASES) == len(set(ids))
    assert {case[0] for case in CASES} == _value_classes()


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_equality_is_by_fields_and_class(cls, kwargs, others, text):
    obj = cls(**kwargs())
    assert obj == cls(**kwargs()) and not obj != cls(**kwargs())
    for field, value in others.items():
        other = cls(**{**kwargs(), field: value})
        assert obj != other and other != obj, field
    twin = type(cls.__name__, (cls,), {})(**kwargs())
    assert obj != twin and twin != obj
    assert obj != tuple(kwargs().values())


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_fields_by_position_or_keyword(cls, kwargs, others, text):
    by_name = cls(**kwargs())
    by_position = cls(*kwargs().values())
    assert by_position == by_name and repr(by_position) == repr(by_name) == text
    fields = kwargs()
    first = next(iter(fields))
    wrong = [
        lambda: cls(**{name: fields[name] for name in fields if name != first}),  # missing
        lambda: cls(**fields, unknown=1),
        lambda: cls(fields[first], **fields),  # the first field twice
        lambda: cls(*fields.values(), None),  # one value too many
    ]
    for build in wrong:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\W"):
            build()


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_trusted_path_makes_the_constructed_object(cls, kwargs, others, text):
    obj = cls(**kwargs())
    trusted = cls._trusted(*(getattr(obj, name) for name in cls.__slots__))
    assert type(trusted) is cls and trusted == cls(**kwargs()) and repr(trusted) == text
    assert all(getattr(trusted, name) is getattr(obj, name) for name in cls.__slots__)
    clone = pickle.loads(pickle.dumps(trusted))
    assert type(clone) is cls and clone == obj and repr(clone) == text


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_equal_objects_hash_equally(cls, kwargs, others, text):
    obj = cls(**kwargs())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(**kwargs()))
        assert len({obj, cls(**kwargs())}) == 1


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_repr(cls, kwargs, others, text):
    assert repr(cls(**kwargs())) == text


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_fields_are_read_only(cls, kwargs, others, text):
    obj = cls(**kwargs())
    for field in kwargs():
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    # the escape hatch that tests use to build deliberately broken objects
    for field, value in others.items():
        object.__setattr__(obj, field, value)
        assert getattr(obj, field) is value
    assert obj == cls(**{**kwargs(), **others})


@pytest.mark.parametrize("cls, kwargs, others, text", CASES, ids=ids)
def test_copy_and_pickle(cls, kwargs, others, text):
    obj = cls(**kwargs())
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj and repr(clone) == text


def test_lattice_compares_gram_and_name_only():
    lat = _a2()
    assert lat.det == 3
    other_det = Lattice._trusted(cartan_a(2), "A2", 7)
    assert other_det == lat and hash(other_det) == hash(lat)
    assert Lattice(cartan_a(2)) != lat and Lattice(cartan_a(2)).name is None
    assert copy.deepcopy(lat).det == pickle.loads(pickle.dumps(lat)).det == 3
    with pytest.raises(TypeError):
        Lattice(cartan_a(2), "A2", 3)  # det is derived, never passed


def test_row_report_defaults_to_necessary_conditions_only():
    assert RowReport(_row(), {}, {}).necessary_conditions_only is True
