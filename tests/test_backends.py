"""Backend dispatch: one record per model kind, looked up in models.py.

Every kind-dependent operation goes through models.backend, so a model
or potential of the wrong kind is an InvalidInput naming the operation
and the model, never an AttributeError from deep inside an algorithm.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import ma_lab
from ma_lab import capacity, energy, ma, models, solver
from ma_lab.errors import InvalidInput
from ma_lab.models import ToricGrid
from ma_lab.profiles import RelativeProfile, zero_offset

KIND_NAMES = {"RADIAL_P2", "PRODUCT_P1P1", "TORIC_P1P1"}
KIND_STRINGS = {"RadialP2", "ProductP1P1", "ToricP1P1"}


def _names_a_kind(node):
    if isinstance(node, ast.Name):
        return node.id in KIND_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in KIND_NAMES
    if isinstance(node, ast.Constant):
        return node.value in KIND_STRINGS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(e) for e in node.elts)
    return False


def kind_comparisons(source):
    """Number of comparisons with a model kind among their operands."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Compare)
               and any(_names_a_kind(op) for op in [node.left, *node.comparators]))


def test_kind_comparison_counter():
    assert kind_comparisons("if model.kind == RADIAL_P2: pass") == 1
    assert kind_comparisons("x = kind in (models.TORIC_P1P1, 'toric')") == 1
    assert kind_comparisons("ok = m.kind != 'ProductP1P1'") == 1
    assert kind_comparisons("require(model, RADIAL_P2, 'op')") == 0
    assert kind_comparisons("ok = d['kind'] != 'OneD'") == 0


def test_only_models_compares_model_kinds():
    src = Path(ma_lab.__file__).parent
    counts = {p.name: kind_comparisons(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert len(counts) >= 9
    over = {name: n for name, n in counts.items() if name != "models.py" and n > 1}
    assert not over, f"modules comparing model kinds outside models.py: {over}"


@pytest.fixture(scope="module")
def pots():
    radial, product, toric = models.radial_p2(), models.product_p1p1(), models.toric_p1p1(16)
    base = radial.reference_potential
    phi = RelativeProfile(base, np.full(base.grid.size, -1.0))
    b1, b2 = product.reference_potential
    uv = (zero_offset(b1).shifted(-0.5), zero_offset(b2).shifted(-0.5))
    return {"radial": radial, "product": product, "toric": toric,
            "phi": phi, "uv": uv, "grid": ToricGrid(*toric.reference_potential)}


WRONG = {
    "capacity-product": lambda d: capacity.capacity(d["product"], capacity.whole_space()),
    "capacity-toric": lambda d: capacity.capacity(
        d["toric"], capacity.phi_sublevel(d["phi"], 2.0)),
    "exit_slope-product": lambda d: capacity.exit_slope(d["product"], 0.0),
    "exit_slope-toric": lambda d: capacity.exit_slope(d["toric"], 0.0),
    "capacity_curve-product": lambda d: capacity.capacity_curve(
        d["product"], d["uv"], [2.0, 4.0]),
    "decay_constant-product": lambda d: capacity.decay_constant(d["product"], d["uv"]),
    "scaling_competitor_bound-product": lambda d: capacity.scaling_competitor_bound(
        d["product"], d["uv"], 2.0, 4.0),
    "sublevel_masses-product": lambda d: capacity.sublevel_masses(
        ma.ma_measure(d["product"], d["uv"]), d["uv"], [2.0]),
    "ep_limit-toric": lambda d: energy.ep_limit(d["toric"], d["grid"], 1.0),
    "energy_report-toric": lambda d: energy.energy_report(d["toric"], d["grid"]),
    "ep_integral-toric": lambda d: energy.ep_integral(d["toric"], d["grid"], 1.0),
    "sobolev_distance-toric": lambda d: energy.sobolev_distance(
        d["toric"], d["grid"], d["grid"]),
    "ma_measure-toric-profile": lambda d: ma.ma_measure(d["toric"], d["phi"]),
    "ma_measure-radial-pair": lambda d: ma.ma_measure(d["radial"], d["uv"]),
    "mixed_measure-product-profile": lambda d: ma.mixed_measure(
        d["product"], d["phi"], None),
    "gradient_current_mass-toric": lambda d: ma.gradient_current_mass(d["toric"], d["grid"]),
    "ep_limit-product-profile": lambda d: energy.ep_limit(d["product"], d["phi"], 1.0),
    "solve_radial-toric": lambda d: solver.solve_radial(
        d["toric"], ma.ma_measure(d["toric"], None)),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_wrong_model_or_potential_is_invalid_input(pots, case):
    with pytest.raises(InvalidInput):
        WRONG[case](pots)


def test_missing_operation_names_operation_and_model(pots):
    with pytest.raises(InvalidInput, match="ep_limit is not implemented on the ToricP1P1"):
        energy.ep_limit(pots["toric"], pots["grid"], 1.0)
    with pytest.raises(InvalidInput, match="exit_slope is not implemented on the ProductP1P1"):
        capacity.exit_slope(pots["product"], 0.0)
    with pytest.raises(InvalidInput, match="RelativeProfile is no ToricP1P1 potential"):
        ma.ma_measure(pots["toric"], pots["phi"])


def test_every_kind_has_a_backend(pots):
    for name in ("radial", "product", "toric"):
        model = pots[name]
        b = models.backend(model)
        assert b.measure is not None and b.mixed is not None
        zero = models.potential(model, None)
        assert isinstance(zero, b.potential_type)
        assert ma.ma_measure(model, zero).total_mass == pytest.approx(model.volume)


def test_factor_views(pots):
    radial, product = pots["radial"], pots["product"]
    assert models.factors(radial, pots["phi"], "op") == (pots["phi"],)
    assert models.factors(product, pots["uv"], "op") == pots["uv"]
    assert models.backend(radial).join((pots["phi"],)) is pots["phi"]
    assert models.backend(product).join(pots["uv"]) == pots["uv"]
    with pytest.raises(InvalidInput, match="op is not implemented on the ToricP1P1"):
        models.factors(pots["toric"], pots["grid"], "op")


def test_radial_cutoff_keeps_shallow_potentials(pots):
    # a potential no deeper than k is its own cutoff, as a product factor was
    phi = pots["phi"]
    depth, cut = energy._truncations(phi, pots["radial"])
    assert depth == 1.0
    assert cut(2.0) is phi
    assert np.array_equal(cut(0.5).offset, np.full(phi.offset.size, -0.5))
