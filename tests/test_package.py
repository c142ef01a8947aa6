"""The public API: every name listed in ma_lab.__all__ exists, once."""

import ma_lab


def test_all_names_resolve_once():
    names = ma_lab.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    missing = [n for n in names if not hasattr(ma_lab, n)]
    assert not missing, f"__all__ names missing from the package: {missing}"
    assert "sublevel_abscissae" in names
