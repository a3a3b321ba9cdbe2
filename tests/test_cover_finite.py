"""A sampled cover refuses non-finite geometry.

NaN or infinite coordinates and Jacobian entries raise ``CoverError``
naming the region (or region pair) and the point, the first such entry
in the order supplied, before the identity, determinant and chain-rule
checks, and without a numpy warning.
"""

import warnings

import numpy as np
import pytest

from sheafgauge import CoverError, SampledCover

BAD = [np.nan, np.inf, -np.inf]
POINTS = [0, 1, 2]


def build(coords=None, jacobians=None):
    coords = {(r, p): [0.1 * p] for r in "uv" for p in POINTS} | (coords or {})
    jac = {(a, b, p): [[1.0]] for a in "uv" for b in "uv" for p in POINTS}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return SampledCover(POINTS, {"u": POINTS, "v": POINTS}, coords, jac | (jacobians or {}))


def test_finite_geometry_is_accepted():
    assert build().jacobian("u", "v", 1).tolist() == [[1.0]]


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_coordinate_names_region_and_point(bad):
    with pytest.raises(CoverError, match=r"^coords of region 'v' at 2 must be finite$"):
        build(coords={("v", 2): [bad]})


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_jacobian_names_pair_and_point(bad):
    with pytest.raises(CoverError, match=r"^jacobian \(u, v\) at 1 must be finite$"):
        build(jacobians={("u", "v", 1): [[bad]]})


@pytest.mark.parametrize("bad", BAD)
def test_non_finite_diagonal_entry_is_caught_before_the_identity_check(bad):
    with pytest.raises(CoverError, match=r"^jacobian \(v, v\) at 0 must be finite$"):
        build(jacobians={("v", "v", 0): [[bad]], ("u", "u", 2): [[3.0]]})


def test_first_bad_entry_in_supplied_order_wins():
    coords = {("v", 1): [np.nan], ("u", 0): [np.inf]}
    coords |= {(r, p): [0.0] for r in "uv" for p in POINTS if (r, p) not in coords}
    with pytest.raises(CoverError, match="region 'v' at 1"):
        SampledCover(POINTS, {"u": POINTS, "v": POINTS}, coords)
    jac = {("v", "u", 2): [[np.nan]], ("u", "v", 0): [[np.inf]]}
    with pytest.raises(CoverError, match=r"\(v, u\) at 2"):
        SampledCover(POINTS, {"u": POINTS, "v": POINTS},
                     {(r, p): [0.0] for r in "uv" for p in POINTS}, jac)
