"""One hexagon's geometry: the face-center record of hexagons given by side
lengths and partial ratios (hexcurv._kernels.center), its contracts, and
the checks of the hexagon command's input."""

import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcurv._kernels import BAD_ARC, BAD_EDGE, BAD_RANGE, OK, SPACE, TIME
from hexcurv._kernels.center import DOMAINS, _cross, _mdot, face_centers, hexagon_arcs
from hexcurv.cli import build_parser, cmd_hexagon
from hexcurv.errors import DegenerateHexagon, IncompatibleSplits, InconsistentRatio
from hexcurv.identities import sign_coherence_ok, space_like_residual, time_like_residual

from helpers import embedding_residuals, random_hexagons

L2 = math.acosh(2.0)

# frozen oracle for lengths (1.0, 1.5, 2.0), computed with 50-digit
# arithmetic from the cosine law and rounded to double
ORACLE_THETAS = (
    1.2657827918884454,
    1.7463798749885944,
    0.8093862938169260,
)


def _record(lengths, ratios=(1.0, 1.0, 1.0)):
    arcs = hexagon_arcs([lengths], [ratios])
    return arcs, face_centers(arcs)


def _hexagon_command(*args):
    return cmd_hexagon(build_parser().parse_args(["hexagon", *args]))


def test_regular_fixed_point():
    arcs, _ = _record((L2, L2, L2))
    assert np.all(np.abs(arcs.theta - L2) < 1e-12)


def test_oracle_triple():
    arcs, _ = _record((1.0, 1.5, 2.0))
    for got, want in zip(arcs.theta[0].tolist(), ORACLE_THETAS):
        assert got == pytest.approx(want, abs=1e-14)


def test_degenerate_length_rejected():
    for lengths in ("1e-9,1.5,2.0", "-1.0,1.0,1.0", "1.0,10.5,1.0"):
        with pytest.raises(DegenerateHexagon):
            _hexagon_command(f"--lengths={lengths}")


def test_lengths_from_angles_roundtrip():
    # right-angled hexagons are self-dual: the cosine law read with sides
    # and arcs exchanged gives the sides back
    rng = random.Random(0)
    lengths = np.array([[rng.uniform(0.2, 4.0) for _ in range(3)] for _ in range(300)])
    ones = np.ones_like(lengths)
    back = hexagon_arcs(hexagon_arcs(lengths, ones).theta, ones).theta
    # arc a of the dual hexagon is the side opposite the dual's corner a + 1
    assert np.all(np.abs(back[:, [1, 2, 0]] - lengths) < 1e-10)


def test_lengths_from_angles_self_dual():
    arcs, _ = _record((L2, L2, L2))
    assert np.all(np.abs(arcs.theta - L2) < 1e-14)


def test_split_edge_symmetric():
    _, rec = _record((L2, L2, L2))
    assert rec.d[0, 0, 1] == pytest.approx(L2 / 2.0, abs=1e-15)
    assert rec.d[0, 1, 0] == pytest.approx(L2 / 2.0, abs=1e-15)


def test_split_edge_ratio_contract():
    _, rec = _record((1.0, 1.0, 1.0), (math.e, 1.0, 1.0 / math.e))
    d_ab, d_ba = rec.d[0, 0, 1], rec.d[0, 1, 0]
    assert math.sinh(d_ab) / math.sinh(d_ba) == pytest.approx(math.e, abs=1e-10)
    assert d_ab + d_ba == pytest.approx(1.0, abs=1e-15)


def test_split_edge_inconsistent_band():
    # |rho sinh l| >= |1 + rho cosh l| for these values: the center of
    # side 0 is hyper-ideal, so the face has a center but no domain
    assert abs(-0.5 * math.sinh(2.0)) >= abs(1.0 - 0.5 * math.cosh(2.0))
    _, rec = _record((2.0, 2.0, 2.0), (-0.5, -2.0, 1.0))
    assert rec.status[0] == 0 and rec.domain[0] < 0
    with pytest.raises(InconsistentRatio):
        _hexagon_command("--lengths", "2,2,2", "--ratios=-0.5,-2,1")


def test_embed_gram_and_polar():
    rng = random.Random(1)
    lengths = np.array([[rng.uniform(0.2, 4.0) for _ in range(3)] for _ in range(500)])
    rec = face_centers(hexagon_arcs(lengths, np.ones_like(lengths)))
    gram, polar = embedding_residuals(rec, lengths)
    assert gram < 1e-11 and polar < 1e-11
    assert np.all(np.abs(_mdot(rec.p, rec.p) - 1.0) < 1e-10)
    assert np.all(_mdot(rec.p, rec.v) < 0.0)


def test_regular_symmetric_geometry():
    arcs, rec = _record((L2, L2, L2))
    assert DOMAINS[rec.domain[0]][1] == "D13"
    assert rec.branch[0] == TIME
    assert np.all(rec.h > 0) and np.all(rec.q > 0)
    assert np.ptp(rec.h) < 1e-12 and np.ptp(rec.q) < 1e-12
    # edge centers are midpoints: equal distance products to both ends
    c = rec.edge_centers[0, 0]
    assert _mdot(rec.v[0, 0], c) == pytest.approx(_mdot(rec.v[0, 1], c), abs=1e-12)
    half = arcs.theta[0] / 2.0
    for s, t in ((1, 2), (2, 0), (0, 1)):
        assert rec.dual[0, s, t] == pytest.approx(half[3 - s - t], abs=1e-9)
        assert rec.dual[0, t, s] == pytest.approx(half[3 - s - t], abs=1e-9)


def test_edge_center_contract():
    rng = random.Random(2)
    for _ in range(200):
        l, rho = rng.uniform(0.3, 3.0), rng.uniform(0.2, 5.0)
        _, rec = _record((l, 1.0, 1.0), (rho, 1.0, 1.0 / rho))
        v, c = rec.v[0], rec.edge_centers[0, 0]
        sab, sba = math.sinh(rec.d[0, 0, 1]), math.sinh(rec.d[0, 1, 0])
        assert abs(_mdot(c, c) + 1.0) < 1e-10
        assert c[2] > 0
        assert abs(_mdot(v[0], c) + sab) < 1e-11 * max(1.0, abs(sab))
        assert abs(_mdot(v[1], c) + sba) < 1e-11 * max(1.0, abs(sba))


def test_face_center_plane_permutation_invariance():
    rec = face_centers(hexagon_arcs(*random_hexagons(np.random.default_rng(3), 600)))
    keep = rec.domain >= 0
    assert keep.sum() >= 100
    p, ec, c = rec.p[keep], rec.edge_centers[keep], rec.center[keep]
    # the center must sit on the third perpendicular's plane too
    n3 = _cross(p[:, 0], ec[:, 1])
    norm = np.linalg.norm
    assert np.all(np.abs(_mdot(c, n3)) / (norm(c, axis=1) * norm(n3, axis=1)) < 1e-10)
    # intersecting a different plane pair recovers the same line
    alt = _cross(_cross(p[:, 2], ec[:, 0]), n3)
    ca = alt / norm(alt, axis=1)[:, None]
    cb = c / norm(c, axis=1)[:, None]
    assert np.all(np.minimum(norm(ca - cb, axis=1), norm(ca + cb, axis=1)) < 1e-10)


def test_overflowing_sides_fail_without_a_warning():
    """A face whose sinh l or cosh theta overflows is BAD_RANGE, and its
    record is finite filler, like every failed face's."""
    sides = [[400.0] * 3, [400.0, 1.0, 1.0], [800.0] * 3, [1.0, 1.5, 2.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arcs = hexagon_arcs(sides, np.ones((4, 3)))
        rec = face_centers(arcs)
    assert rec.status.tolist() == [BAD_RANGE] * 3 + [OK]
    assert all(np.isfinite(x).all() for x in rec)
    assert np.allclose(arcs.theta[3], ORACLE_THETAS, rtol=0, atol=1e-15)


def test_side_lengths_fail_by_the_kernel_rules():
    """Side lengths fail as factors do, through the kernel's one side pass:
    a face takes the code of its first failing side, BAD_RANGE where cosh l
    is NaN or above CH_MAX, BAD_EDGE where it rounds to 1, then BAD_ARC
    where an arc rounds to 0; both records stay finite, without a warning."""
    values = [1e-300, 1e-160, 1e-100, 1e-20, 1e-9, 2e-8, 1e-7, 0.5, 10.0, 300.0, 340.0,
              346.0, 347.0, 350.0, 354.0, 356.0, 400.0, 800.0, math.inf, math.nan]
    pairs = list(itertools.product(values, values))
    lengths = np.array([(a, b, 1.0) for a, b in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arcs = hexagon_arcs(lengths, np.ones_like(lengths))
        rec = face_centers(arcs)
        # a negative length, outside the contract, reads as its magnitude
        assert hexagon_arcs([[-1000.0, 1.0, 1.0]], np.ones((1, 3))).status.tolist() == [BAD_RANGE]
    fields = [arcs.status, arcs.bad, arcs.theta, arcs.ch, arcs.sh, arcs.chth, *arcs.edge, *rec]
    assert all(np.isfinite(x).all() for x in fields)
    status = arcs.status.tolist()
    counts = {code: status.count(code) for code in (BAD_RANGE, BAD_EDGE, BAD_ARC, OK)}
    assert counts == {BAD_RANGE: 150, BAD_EDGE: 150, BAD_ARC: 36, OK: 64}
    for (a, b), code, bad in zip(pairs, status, arcs.bad.tolist()):
        first = next((k for k, l in enumerate((a, b)) if not 1e-9 < l <= 354.0), None)
        if first is not None:  # cosh l rounds to 1 exactly where l <= 1e-9 here
            assert (code, bad) == ((BAD_EDGE if (a, b)[first] <= 1e-9 else BAD_RANGE), first)
        elif 300.0 <= min(a, b):  # the arc at corner 1, between the long sides 0 and 1
            assert (code, bad) == (BAD_ARC, 1)
        else:
            assert (code, bad) == (OK, -1)
    assert (rec.status[arcs.status != OK] == arcs.status[arcs.status != OK]).all()


def test_incompatible_splits_rejected():
    with pytest.raises(IncompatibleSplits):
        _hexagon_command("--lengths", "1.0,1.2,1.4", "--ratios", "2.0,1.5,0.3")


def test_identity_suites_and_classification():
    rec = face_centers(hexagon_arcs(*random_hexagons(np.random.default_rng(4), 2500)))
    has = rec.domain >= 0
    time, space = has & (rec.branch == TIME), has & (rec.branch == SPACE)
    assert sign_coherence_ok(rec)[has].all()
    assert np.all(time_like_residual(rec)[time] < 1e-8)
    assert np.all(space_like_residual(rec)[space] < 1e-8)
    assert time.sum() >= 200 and space.sum() >= 20
    domains = set(rec.domain[time].tolist())
    assert 12 in domains and len(domains) >= 5  # D13


def test_compatibility_residual_on_valid_splits():
    rec = face_centers(hexagon_arcs(*random_hexagons(np.random.default_rng(5), 400)))
    d = np.sinh(rec.d[rec.domain >= 0])
    first = d[:, 0, 1] * d[:, 1, 2] * d[:, 2, 0]
    second = d[:, 1, 0] * d[:, 2, 1] * d[:, 0, 2]
    assert np.all(np.abs(first - second) < 1e-9)


_ratio = st.builds(lambda x, sign: sign * math.exp(x), st.floats(-4.0, 4.0),
                   st.sampled_from((1.0, -1.0)))
_face = st.tuples(st.floats(0.2, 4.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0),
                  _ratio, _ratio)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(_face, min_size=10, max_size=30))
def test_record_properties(faces):
    # lengths in [0.2, 4], ratios with a cyclic product of 1
    lengths = np.array([f[:3] for f in faces])
    ratios = np.array([(r1, r2, 1.0 / (r1 * r2)) for *_, r1, r2 in faces])
    arcs = hexagon_arcs(lengths, ratios)
    rec = face_centers(arcs)
    for name, field in zip(rec._fields, rec):
        assert not np.isnan(field).any(), name
    gram, polar = embedding_residuals(rec, lengths)
    assert gram < 1e-11 and polar < 1e-11
    has = rec.domain >= 0
    time, space = has & (rec.branch == TIME), has & (rec.branch == SPACE)
    assert np.all(time_like_residual(rec)[time] < 1e-8)
    assert np.all(space_like_residual(rec)[space] < 1e-8)
    assert np.all(time | space | ~has)
    # dual partials of every arc sum to its length
    arcs_sum = rec.dual[:, [1, 2, 0], [2, 0, 1]] + rec.dual[:, [2, 0, 1], [1, 2, 0]]
    assert np.all(np.abs(arcs_sum - arcs.theta)[has] <= 1e-7)
