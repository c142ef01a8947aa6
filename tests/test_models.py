"""Model backends: reference measures, anchors, descriptor parsing."""

import numpy as np
import pytest

from ma_lab import ma, models
from ma_lab.errors import InvalidInput, MaLabError
from ma_lab.models import (ToricGrid, model_from_descriptor, product_p1p1,
                           radial_p2, toric_p1p1)
from profile_reference import extended_slopes, full_profile


def test_radial_reference_cdf_law(radial):
    # sublevel mass of the reference measure is sigma(t)^2 (the measure
    # of {|z| <= r} under the Fubini-Study form on the plane is
    # (r^2/(1+r^2))^2, and t = 2 log|z| here)
    m = ma.ma_measure(radial, None)
    g = radial.reference_potential.grid
    from scipy.special import expit

    sig = expit(g)
    assert np.abs(m.cdf_seq[1:] - sig ** 2).max() < 5e-3
    i0 = int(np.searchsorted(g, 0.0))
    assert abs(m.cdf_seq[1:][i0] - 0.25) < 5e-3
    assert m.total_mass == pytest.approx(1.0, abs=1e-12)
    assert not m.atoms


def test_radial_dirac_anchor(radial):
    base = radial.reference_potential
    from ma_lab.profiles import RelativeProfile

    dirac = RelativeProfile(base, base.grid / 2 - base.values)
    m = ma.ma_measure(radial, dirac)
    assert m.atom_mass(ma.FIXED_POINT) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(m.density).max() < 1e-12


def test_radial_self_test_raises_package_error(radial, monkeypatch):
    # a package exception, not an assert that python -O would strip
    real = ma.ma_measure

    def off_by_mass(model, phi):
        m = real(model, phi)
        return ma.MaMeasure(m.kind, m.grid, m.density, m.atoms, 0.5, m.cdf_seq)

    monkeypatch.setattr(ma, "ma_measure", off_by_mass)
    with pytest.raises(MaLabError):
        models._radial_self_test(radial)


def test_product_volume(product):
    assert product.volume == 2.0
    m = ma.ma_measure(product, None)
    assert m.total_mass == pytest.approx(2.0, abs=1e-12)


def test_toric_reference_mass(toric32):
    m = ma.ma_measure(toric32, None)
    assert m.total_mass == pytest.approx(2.0, abs=1e-6)
    assert m.density.shape == (33, 33)


def test_toric_resolution_floor():
    with pytest.raises(InvalidInput):
        toric_p1p1(8)


def test_toric_grid_shape_check():
    m = toric_p1p1(16)
    t1, t2, base = m.reference_potential
    with pytest.raises(InvalidInput):
        ToricGrid(t1, t2, base[:-1, :])
    with pytest.raises(InvalidInput):
        ToricGrid(t1, t2, np.full_like(base, np.nan))


def test_toric_grid_combine():
    # the mixed measure's midpoint of a and a + 1 is a + 1/2, which has a's
    # cells, so polarization gives back a's own measure
    m = toric_p1p1(16)
    t1, t2, base = m.reference_potential
    a = ToricGrid(t1, t2, base)
    b = ToricGrid(t1, t2, base + 1.0)
    want = ma.ma_measure(m, a).density
    assert np.abs(ma.mixed_measure(m, a, b).density - want).max() < 1e-12


def test_toric_grid_owns_frozen_values():
    t1, t2, base = toric_p1p1(16).reference_potential
    vals = np.array(base)
    grid = ToricGrid(t1, t2, vals)
    vals[:] = 0.0
    assert np.array_equal(grid.values, base)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 1.0


def test_descriptor_strings():
    assert model_from_descriptor("radial-p2") is radial_p2()
    assert model_from_descriptor("product-p1p1") is product_p1p1()
    assert model_from_descriptor("toric-p1p1").resolution == 64
    assert model_from_descriptor("toric-p1p1:32").resolution == 32


def test_descriptor_dicts():
    assert model_from_descriptor({"kind": "RadialP2"}) is radial_p2()
    got = model_from_descriptor({"kind": "toric-p1p1", "resolution": 16})
    assert got.resolution == 16
    with pytest.raises(InvalidInput):
        model_from_descriptor({"kind": "spherical"})
    with pytest.raises(InvalidInput):
        model_from_descriptor("no-such-model")


def test_fractional_toric_resolution_is_invalid():
    # an integral float or a string int() reads is a resolution; a fraction,
    # a non-finite float or any other string is not
    assert model_from_descriptor({"kind": "toric-p1p1", "resolution": 32.0}).resolution == 32
    assert model_from_descriptor({"kind": "toric-p1p1", "resolution": "32"}).resolution == 32
    assert model_from_descriptor("toric-p1p1:32").resolution == 32
    bad = [{"kind": "toric-p1p1", "resolution": res}
           for res in (32.7, 16.5, float("nan"), float("inf"), "abc", "32.0")]
    for desc in bad + ["toric-p1p1:abc", "toric-p1p1:32.0"]:
        with pytest.raises(InvalidInput, match="toric resolution must be an integer"):
            model_from_descriptor(desc)


def test_resolution_on_a_non_toric_kind_is_invalid():
    # only the toric kind takes a resolution; any other kind rejects one,
    # well-formed or not, naming itself
    for desc, kind in (("radial-p2:32", "radial-p2"), ("radial-p2:abc", "radial-p2"),
                       ({"kind": "product-p1p1", "resolution": "abc"}, "product-p1p1")):
        with pytest.raises(InvalidInput, match=f"model kind '{kind}' takes no resolution"):
            model_from_descriptor(desc)
    assert model_from_descriptor("toric-p1p1:32").resolution == 32


def test_reparameterization_invariance(radial):
    # masses are invariant under t -> 2t + 1 because only slopes of the
    # full potential relative to the cap enter the measure law
    from ma_lab.profiles import Profile, RelativeProfile

    base = radial.reference_potential
    g2 = 2.0 * base.grid + 1.0
    base2 = Profile(g2, base.values, 0.0, 0.25, 0.25)
    full = 0.5 * models.psi_fs(base.grid - 2.0) + 0.5 * models.psi_fs(base.grid + 1.0)
    off = full - base.values

    def ns(b, cap):
        return np.clip(extended_slopes(full_profile(RelativeProfile(b, off))) / cap,
                       0.0, 1.0)

    m1 = ma.measure_1d_pair(base.grid, ns(base, 0.5), ns(base, 0.5))
    m2 = ma.measure_1d_pair(g2, ns(base2, 0.25), ns(base2, 0.25))
    assert np.abs(m1.cdf_seq - m2.cdf_seq).max() < 1e-12


def test_cached_model_arrays_are_read_only(radial, product):
    from ma_lab.profiles import default_grid

    toric = toric_p1p1(16)
    assert radial.reference_potential.grid is default_grid()
    arrays = [default_grid(), radial.reference_potential.values,
              *(f.values for f in product.reference_potential),
              *toric.reference_potential]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_reference_measure_and_zero_potential_are_shared_and_read_only(radial, product):
    from ma_lab import ma
    from ma_lab.models import potential

    def arrays(x):
        # every ndarray reachable from a potential or a measure
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, (tuple, list)):
            for y in x:
                yield from arrays(y)
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                yield from arrays(getattr(x, name))

    for model in (radial, product, toric_p1p1(16)):
        m, zero = ma.ma_measure(model, None), potential(model, None)
        assert ma.ma_measure(model, None) is m and m is model.reference_measure
        assert potential(model, None) is zero and zero is model.zero
        found = list(arrays(m)) + list(arrays(zero))
        assert len(found) >= 4
        for a in found:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0
