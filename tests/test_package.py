"""The package's public surface."""

import liquidsim


def test_all_names_resolve():
    missing = [n for n in liquidsim.__all__ if not hasattr(liquidsim, n)]
    assert not missing
    assert len(set(liquidsim.__all__)) == len(liquidsim.__all__)
    for gone in ("regenerate", "encode", "decode"):
        assert gone not in liquidsim.__all__
