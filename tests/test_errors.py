"""Error-path behavior across modules."""

from fractions import Fraction

import pytest

from contactsym.contact import SpBasis, VField
from contactsym.diffop import DiffOp
from contactsym.errors import (
    CriticalWeightError,
    SpanError,
    StructuralError,
    TableMismatchError,
    UnknownVariableError,
)
from contactsym.linalg import Echelon
from contactsym.operators import ModuleOp, classify_same_weight, same_weight_predicted_count
from contactsym.poly import Poly
from contactsym.rationals import parse_rational
from contactsym.spectra import require_noncritical
from contactsym.symbols import RModule
from contactsym.vartable import VarTable, table


def test_vartable_validation():
    with pytest.raises(StructuralError):
        VarTable(0, ())
    with pytest.raises(StructuralError):
        VarTable(1, ("Y", "xi"))  # non-canonical block order
    with pytest.raises(StructuralError):
        VarTable(1, ("phi",))


def test_parse_rational_rejects_noise():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    for bad in ("0.5", "1/0", "a/b", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_poly_convert_requires_target_variables():
    small = table(1, ())
    big = table(1, ("xi",))
    poly = Poly.variable(big, "xi_t")
    with pytest.raises(UnknownVariableError):
        poly.convert(small)
    # base-only content converts fine in both directions
    base_poly = Poly.variable(big, "p1")
    assert base_poly.convert(small) == Poly.variable(small, "p1")


def test_diffop_coefficient_table_guard():
    tab = table(1, ("xi",))
    other = table(1, ())
    with pytest.raises(TableMismatchError):
        DiffOp(tab, {(0,) * tab.size: Poly.one(other)})
    with pytest.raises(TableMismatchError):
        DiffOp.identity(tab).apply(Poly.one(other))


def test_module_op_compose_table_guard():
    mod = RModule(1, 1, Fraction(0))
    on_n1 = ModuleOp(mod, mod, DiffOp.identity(mod.table))
    on_n2 = ModuleOp(mod, mod, DiffOp.identity(RModule(2, 1, Fraction(0)).table))
    with pytest.raises(TableMismatchError):
        on_n1.compose(on_n2)
    with pytest.raises(TableMismatchError):
        on_n2.compose(on_n1)


def test_critical_weight_index():
    with pytest.raises(CriticalWeightError) as err:
        require_noncritical(Fraction(-1, 4), 2, 1)
    assert err.value.p == 1
    # regular weights pass silently
    require_noncritical(Fraction(1, 3), 2, 1)


def test_span_solver_rejects_outside_targets():
    span = Echelon([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}])
    assert span.reduce({0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}) == {}
    assert span.reduce({0: Fraction(1)}) != {}
    line = Echelon([{0: Fraction(1), 1: Fraction(2)}])
    assert line.add_row({0: Fraction(2), 1: Fraction(4)}) is None

    basis = SpBasis(1)
    tab = basis.table
    field = basis.field("p1").scale(2) + basis.field("q1").scale(3)
    coords = basis.coordinates(field)
    assert coords[basis.index["p1"]] == 2 and coords[basis.index["q1"]] == 3
    assert sum(1 for c in coords if c) == 2
    zero = Poly.zero(tab)
    p1 = Poly.variable(tab, "p1")
    with pytest.raises(SpanError):  # p1 d/dp1 is no contact field
        basis.coordinates(VField(tab, [p1, zero, zero]))
    with pytest.raises(SpanError):  # a cubic component has no column at all
        basis.coordinates(VField(tab, [p1 * p1 * p1, zero, zero]))
    dependent = SpBasis(1)
    dependent.generators.append(dependent.generators[0])
    with pytest.raises(SpanError):
        dependent.coordinates(field)


def test_classifier_empty_index_set():
    dim, ops = classify_same_weight(1, 0, 3, Fraction(1, 3), 2)
    assert dim == same_weight_predicted_count(0, 3, 2) == 0
    assert ops == []
