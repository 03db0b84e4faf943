"""The batched kernel and its face-center record against the scalar
reference ``scalar_ref``, the record's matrix against the cosine-law
Jacobian, and that Jacobian against a 40-digit differentiation of the
cosine law.

Batched and scalar code run the same sequence of floating-point operations
per face, so they differ only where that sequence calls an elementary
function:
numpy's exp, expm1 and cosh differ from libm's by up to 1 ulp, and
arccosh by up to 2 ulp (numpy 2.4 against glibc 2.36 on x86-64, 2e5
random draws; sqrt matched exactly).  From there the difference
propagates, and every later operation on differing inputs may round
differently by up to 1 ulp.

The tolerance of each output y is the first-order bound of that process,
computed by reverse-mode differentiation of the scalar evaluation:

    tol(y) = 2 eps sum_z u_z |z| |dy/dz|

over the recorded results z: u_z = 1 for exp, expm1 and cosh, 2 for
arccosh, 1 for an arithmetic operation or square root with a differing
input, 0 for negation and abs.  Results computed from the face's inputs
alone agree exactly and carry no term.  The factor 2 covers second-order
effects.  Face-center branches are compared only where |sigma| lies
farther than tol(sigma) from the light-like band edge TAU_CAUSAL.
"""

import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from hexcurv import _kernels as kern
from hexcurv import curvature
from hexcurv._kernels.center import face_centers
from hexcurv.conformal import StructureSpec, spec_arrays
from hexcurv.errors import NotAdmissible
from hexcurv.identities import sample_face_points, stock_spec
from hexcurv.mesh import pair_of_pants
from hexcurv.tol import TAU_CAUSAL

import scalar_ref
from helpers import ALL_FAMILIES, branch_samples, causal_value, disjoint_faces, edge_lanes
from helpers import face_f, face_mesh, face_record, light_like_samples, make_spec
from helpers import sample_admissible_f, sphere_triangulation, stack_faces

EPS = np.finfo(float).eps

CASES = [
    ((0, 0, 0), (0, 0, 0), (2.0, 5.0), (-1.2, 1.2)),
    ((0, 0, 0), (1, 0, 1), (2.0, 5.0), (-1.2, 1.2)),
    ((1, 1, 1), (-1, -1, -1), (1.0, 3.0), (0.05, 1.5)),
    ((2, 2, 2), (0, 0, 0), (0.5, 4.0), (-1.2, 1.2)),
    ((5, 2, 5), (0, 0, 0), (0.5, 4.0), (-1.2, 1.2)),
    ((3, 0, 3), (1, 0, 0), (0.5, 4.0), (-1.2, 1.2)),
    ((4, 1, 4), (-1, -1, -1), (1.0, 3.0), (0.05, 1.5)),
]


def _draw(rng, case):
    codes, al, er, fr = case
    et = tuple(rng.uniform(*er) for _ in range(3))
    f = tuple(rng.uniform(*fr) for _ in range(3))
    du = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
    return codes, al, et, f, du


def _face_row(rng, spec, f):
    """Scalar-kernel arguments of a single-face sample at factors f."""
    codes, _, etas = face_record(spec)
    return (
        tuple(codes.tolist()),
        tuple(spec.alpha[v] for v in range(3)),
        tuple(etas.tolist()),
        tuple(f.tolist()),
        tuple(rng.uniform(0.5, 2.0) for _ in range(3)),
    )


def _batched(rows):
    """Both stages of the batched kernel and its face-center record on
    scalar-kernel rows, one face per row."""
    codes, al, et, f, du = (np.array([r[i] for r in rows]) for i in range(5))
    arcs = kern.face_theta(disjoint_faces(codes, al, et), f.ravel())
    return arcs, kern.face_eval(arcs, du.ravel()), face_centers(arcs)


# -- first-order difference bound ----------------------------------------------

class _Tape(list):
    """Results of one scalar evaluation: (u_z |z|, [(parent, dz/dparent), ...])."""

    def rec(self, value, ulps, parents, elementary=False):
        parents = [(p.id, d) for p, d in parents if isinstance(p, _T)]
        if not parents and not elementary:
            return value  # correctly rounded on equal inputs: both kernels agree
        out = _T(value)
        out.tape, out.id = self, len(self)
        self.append((abs(value) * ulps, parents))
        return out


class _T(float):
    """A float whose arithmetic records itself on its tape."""

    def __add__(a, b):
        return a.tape.rec(float(a) + float(b), 1, ((a, 1.0), (b, 1.0)))

    __radd__ = __add__

    def __sub__(a, b):
        return a.tape.rec(float(a) - float(b), 1, ((a, 1.0), (b, -1.0)))

    def __rsub__(a, b):
        return a.tape.rec(float(b) - float(a), 1, ((a, -1.0),))

    def __mul__(a, b):
        return a.tape.rec(float(a) * float(b), 1, ((a, float(b)), (b, float(a))))

    __rmul__ = __mul__

    def __truediv__(a, b):
        q = float(a) / float(b)
        return a.tape.rec(q, 1, ((a, 1.0 / float(b)), (b, -q / float(b))))

    def __rtruediv__(a, b):
        q = float(b) / float(a)
        return a.tape.rec(q, 1, ((a, -q / float(a)),))

    def __pow__(a, k):
        assert k == 2
        return a.tape.rec(float(a) ** 2, 1, ((a, 2.0 * float(a)),))

    def __neg__(a):
        return a.tape.rec(-float(a), 0, ((a, -1.0),))

    def __abs__(a):
        return a.tape.rec(abs(float(a)), 0, ((a, math.copysign(1.0, float(a))),))


class _TapedMath:
    """``math`` recording the elementary functions and sqrt on a tape."""

    def __init__(self, tape):
        self.tape = tape

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        return self.tape.rec(math.exp(x), 1, ((x, math.exp(x)),), True)

    def expm1(self, x):
        return self.tape.rec(math.expm1(x), 1, ((x, math.exp(x)),), True)

    def cosh(self, x):
        return self.tape.rec(math.cosh(x), 1, ((x, math.sinh(x)),), True)

    def acosh(self, x):
        slope = 1.0 / math.sqrt(float(x) ** 2 - 1.0)
        return self.tape.rec(math.acosh(x), 2, ((x, slope),), True)

    def sqrt(self, x):
        return self.tape.rec(math.sqrt(x), 1, ((x, 0.5 / math.sqrt(x)),))


def _outputs(row, center):
    """theta and jac of the scalar release stages at row, then sigma and the
    center-distance matrix of the scalar face center if center."""
    ref = scalar_ref.face_eval(*row)
    ys = list(ref[2]) + [x for r in ref[3] for x in r]
    if center:
        ref = scalar_ref.face_centers(*row[:4])
        ys += [ref[3]] + [x for r in ref[4] for x in r]
    return ys


def _tolerance(monkeypatch, outputs):
    """tol of the scalar results outputs() returns, by the bound above."""
    tape = _Tape()
    monkeypatch.setattr(scalar_ref, "math", _TapedMath(tape))
    ys = outputs()
    monkeypatch.setattr(scalar_ref, "math", math)
    # result z = sum of dz/dparent * parent + its own difference; the tape
    # lists parents before their results, so one reverse sweep over it
    # gives dy/dz of every output y at once
    adj = np.zeros((len(tape), len(ys)))
    for k, y in enumerate(ys):
        adj[y.id, k] = 1.0
    rows = list(adj)  # views, updated in place
    for row, (_, parents) in zip(reversed(rows), reversed(tape)):
        for p, d in parents:
            rows[p] += d * row
    weight = np.array([w for w, _ in tape])
    return 2.0 * EPS * (np.abs(adj).T @ weight)


def _rows(rng):
    rows = [_draw(rng, case) for case in CASES for _ in range(200)]
    buckets = branch_samples(rng, 25)
    light = light_like_samples(rng, 10)
    for spec, f in buckets["time-like"] + buckets["space-like"] + light:
        rows.append(_face_row(rng, spec, f))
    return rows


def test_batched_matches_scalar_reference(monkeypatch):
    rng = random.Random(0)
    rows = _rows(rng)
    arcs, jac, rec = _batched(rows)
    st_c, bad_c, branch, m = rec[:4]
    sigma = causal_value(rec)
    codes_seen, kinds_seen, branches_seen = set(), set(), set()
    failures_seen = set()
    worst, compared, centered = 0.0, 0, 0
    for k, row in enumerate(rows):
        ref = scalar_ref.face_eval(*row)
        ref_c = scalar_ref.face_centers(*row[:4])
        assert (arcs.status[k], arcs.bad[k]) == ref[:2], k
        assert (st_c[k], bad_c[k]) == ref_c[:2], k
        failures_seen.add(ref_c[0])
        if ref[0] != kern.OK:
            continue
        center = ref_c[0] == kern.OK
        tol = _tolerance(monkeypatch, lambda: _outputs(row, center))
        got = [arcs.theta[k], jac[k].ravel()]
        if center:
            got += [sigma[k:k + 1], m[k].ravel()]
        err = np.abs(np.concatenate(got) - _outputs(row, center))
        assert np.all(err <= tol), (k, err / tol)
        worst = max(worst, float(np.max(err / tol)))
        # branches where sigma lies farther than its tol from the band edge
        if center and abs(abs(ref_c[3]) - TAU_CAUSAL) > tol[12]:
            assert branch[k] == ref_c[2], k
            branches_seen.add(ref_c[2])
        compared += 1
        centered += center
        codes_seen.update(row[0])
        for e, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            _, c, rho = scalar_ref._edge_state(
                row[0][e], row[1][a], row[1][b], row[3][a], row[3][b], row[2][e])
            kinds_seen.add(scalar_ref._split(rho, c, math.sqrt((c - 1.0) * (c + 1.0)))[0])
    assert compared > 700 and centered > 700
    assert codes_seen == set(range(6))
    assert kinds_seen == {0, 1}
    assert branches_seen == {kern.TIME, kern.SPACE, kern.LIGHT}
    print(f"worst error / tolerance {worst:.3f} over {compared} faces, "
          f"{centered} with a center; statuses {sorted(failures_seen)}")


def test_face_centers_reproduce_the_cosine_law_jacobian():
    # the paper's center-distance matrix, on every face of the reference rows
    # whose center exists: all six edge rules, both split kinds and all
    # three causal branches
    rng = random.Random(0)
    rows = _rows(rng)
    arcs, jac, rec = _batched(rows)
    status, _, branch, m = rec[:4]
    sigma = causal_value(rec)
    du = np.array([r[4] for r in rows])
    live = status == kern.OK
    assert live.sum() > 700
    assert set(branch[live].tolist()) == {kern.TIME, kern.SPACE, kern.LIGHT}
    assert np.all(np.abs(sigma[branch == kern.LIGHT]) <= TAU_CAUSAL)
    m_u = m * du[:, None, :]
    err = np.abs(m_u - jac) / np.maximum(1e-8, np.maximum(np.abs(m_u), np.abs(jac)))
    assert err[live].max() < 1e-9


def test_status_codes_match():
    rows = [
        # degenerate edge
        ((0, 0, 0), (0, 0, 0), (1.5, 1.5, 1.5), (0.0, 0.0, 0.0), (1.0,) * 3),
        # out of range
        ((0, 0, 0), (0, 0, 0), (3.0, 3.0, 3.0), (200.0, 0.0, 0.0), (1.0,) * 3),
        # domain violation in the square-root rule
        ((1, 1, 1), (-1, -1, -1), (3.0,) * 3, (-0.5, 0.5, 0.5), (1.0,) * 3),
        # two long edges at corner 0 round its arc to zero
        ((0, 0, 0), (0, 0, 0), (3.0, 3.0, 3.0), (20.0, 0.0, 0.0), (1.0,) * 3),
        # a valid face between failing ones
        ((0, 0, 0), (0, 0, 0), (3.0, 3.0, 3.0), (0.0, 0.0, 0.0), (1.0,) * 3),
        # edge 0 of cosh l = 5/4 at partial ratio -1/2: rho (cosh l + sinh l)
        # = -1 puts its edge center exactly at infinity
        ((5, 5, 5), (0, 0, 0), (0.0, 3.0, 3.0), (0.0, math.log(2.0), 0.0), (1.0,) * 3),
    ]
    arcs, jac, rec = _batched(rows)
    st_c, bad_c = rec.status, rec.bad
    assert arcs.status.tolist() == [kern.BAD_EDGE, kern.BAD_RANGE, kern.BAD_RANGE,
                                    kern.BAD_ARC, kern.OK, kern.OK]
    assert arcs.bad[3] == 0
    # failed faces carry finite filler, so the derivative stage never divides by 0
    assert np.all(np.isfinite(arcs.theta)) and np.all(np.isfinite(jac))
    # the face-center record keeps the theta stage's first failure
    assert st_c.tolist() == arcs.status.tolist()[:-1] + [kern.BAD_SPLIT]
    assert bad_c.tolist() == arcs.bad.tolist()[:-1] + [0]
    for k, row in enumerate(rows):
        assert (arcs.status[k], arcs.bad[k]) == scalar_ref.face_eval(*row)[:2]
        assert (arcs.status[k], arcs.bad[k]) == scalar_ref.face_theta(*row[:4])[:2]
        assert (st_c[k], bad_c[k]) == scalar_ref.face_centers(*row[:4])[:2]


def test_edge_state_domain_matches_scalar_rules(monkeypatch):
    # all six codes interleave in one edge pass, so the program's grouping
    # must bring each lane to its own rule and back; ch and rho match the
    # scalar rules within the first-order bound
    rng = random.Random(1)
    args = []
    for code in range(6):
        for _ in range(200):
            al = (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
            fa, fb = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            args.append((code, *al, fa, fb, rng.uniform(-3.0, 3.0)))
    rng.shuffle(args)
    codes = [a[0] for a in args]
    assert sum(x != y for x, y in zip(codes, codes[1:])) > 900
    ok, ch, rho = edge_lanes(*map(np.array, zip(*args)))
    assert ok.tolist() == [scalar_ref._edge_state(*a)[0] for a in args]
    assert 0 < ok.sum() < len(args)
    worst = 0.0
    for k in np.flatnonzero(ok):
        tol = _tolerance(monkeypatch, lambda: scalar_ref._edge_state(*args[k])[1:])
        err = np.abs([ch[k], rho[k]] - np.array(scalar_ref._edge_state(*args[k])[1:]))
        assert np.all(err <= tol), (args[k], err / tol)
        worst = max(worst, float(np.max(err / tol)))
    assert {args[k][0] for k in np.flatnonzero(ok)} == set(range(6))
    print(f"worst error / tolerance {worst:.3f} over {ok.sum()} lanes")


def _face_rows(spec, tri):
    """(side codes, corner alphas, side weights) of every face of tri, read
    off the mesh record, not the edge program."""
    rows = [([scalar_ref.edge_code(spec, v[m], v[(m + 1) % 3]) for m in range(3)],
             [spec.alpha[x] for x in v], [spec.eta[e] for e in face.edge_ids])
            for face in tri.faces for v in [face.vertices]]
    return [np.array(x) for x in zip(*rows)]


def _closed_meshes():
    """A seeded sphere per family, then the pair of pants, whose two faces
    run each edge the same way."""
    rng = random.Random(21)
    out = []
    for fam in ALL_FAMILIES:
        tri = sphere_triangulation(14, rng)
        spec = make_spec(fam, tri, rng, regime="definite")
        out.append((tri, spec, sample_admissible_f(spec, tri, rng, 2, scale=0.5)))
    pants = StructureSpec("A1", {i: 0 for i in range(3)}, {i: 3.0 for i in range(3)})
    out.append((pair_of_pants(), pants, [{0: 0.0, 1: 0.0, 2: 0.0},
                                         {0: 0.3, 1: -0.2, 2: 0.1}]))
    return out


def test_shared_edges_match_disjoint_faces():
    # each edge of a closed mesh is evaluated once and read by two face
    # sides, on a sphere in opposite directions; the same faces as disjoint
    # faces evaluate every side on its own, run forward
    for tri, spec, points in _closed_meshes():
        prog = spec_arrays(spec, tri).program
        assert len(prog.codes) == len(tri.edges) == 1.5 * len(tri.faces)
        assert np.all(np.bincount(prog.side.ravel()) == 2)
        if len(tri.faces) > 2:
            assert prog.rev.sum() == len(tri.edges)  # one reversed side per edge
        else:
            assert not prog.rev.any()
        alone = disjoint_faces(*_face_rows(spec, tri))
        cov = spec_arrays(spec, tri).cov
        for f in points:
            fv = np.array([f[i] for i in range(tri.n_boundary)])
            arcs = kern.face_theta(prog, fv)
            split = kern.face_theta(alone, fv[prog.vert].ravel())
            assert not arcs.status.any() and not split.status.any()
            assert arcs.theta.tobytes() == split.theta.tobytes(), spec.family
            assert arcs.ch.tobytes() == split.ch.tobytes()
            # a reversed side reads 1/rho of its edge
            assert np.all(np.abs(arcs.rho - split.rho) <= 2 * EPS * np.abs(split.rho))
            du = cov.derivative(fv)
            jac = kern.face_eval(arcs, du)
            jac_split = kern.face_eval(split, du[prog.vert].ravel())
            err = np.max(np.abs(jac - jac_split)) / np.max(np.abs(jac))
            assert err <= 1e-14, (spec.family, err)


def test_a_failing_shared_edge_fails_both_faces():
    # an edge that degenerates, or a corner outside its rule's domain, fails
    # every face on it at that face's own side position, as the scalar
    # reference evaluating each face alone reports
    for tri in (sphere_triangulation(14, random.Random(22)), pair_of_pants()):
        n = tri.n_boundary
        edge = tri.edges[0]
        alpha = {i: 0 for i in range(n)}
        degenerate = StructureSpec("A1", alpha, {e.id: 1.5 if e is edge else 3.0
                                                 for e in tri.edges})
        outside = StructureSpec("A1", {**alpha, edge.a: -1},
                                {e.id: 3.0 for e in tri.edges})
        f = np.zeros(n)
        f[edge.a] = 0.1  # 1 - e^{0.2} < 0 at the alpha = -1 corner
        for spec, status, hit in (
                (degenerate, kern.BAD_EDGE, [edge.id in x.edge_ids for x in tri.faces]),
                (outside, kern.BAD_RANGE, [edge.a in x.vertices for x in tri.faces])):
            arcs = kern.face_theta(spec_arrays(spec, tri).program, f)
            ref = [scalar_ref.face_theta(*row, f[list(face.vertices)])[:2]
                   for face, *row in zip(tri.faces, *_face_rows(spec, tri))]
            assert list(zip(arcs.status.tolist(), arcs.bad.tolist())) == ref
            assert (arcs.status[hit] == status).all() and not arcs.status[~np.array(hit)].any()
            assert np.all(np.isfinite(arcs.theta))
            assert np.all(np.isfinite(kern.face_eval(arcs, np.ones(n))))


def test_a_spec_program_makes_one_rule_call_per_theta_pass(monkeypatch):
    # a spec's edges share one root law (the family's code mod 3), flipped
    # codes included, so a theta pass calls the edge rule once
    calls, rule = [], kern._rule
    monkeypatch.setattr(kern, "_rule", lambda law, *args: calls.append(law) or rule(law, *args))
    rng = random.Random(26)
    for fam in ALL_FAMILIES:
        sphere = sphere_triangulation(40, rng)
        for spec, tri in ((make_spec(fam, sphere, rng), sphere),
                          (stock_spec(fam), face_mesh(stock_spec(fam)))):
            arrays = spec_arrays(spec, tri)
            calls.clear()
            arcs = kern.face_theta(arrays.program, arrays.cov.to_f(arrays.start))
            assert not arcs.status.any()
            assert calls == [ALL_FAMILIES.index(fam) % 3], (fam, tri.n_boundary, calls)


def test_mixed_law_program_matches_its_one_code_programs():
    # one disjoint-face program of all six codes runs the per-law loop; lane
    # for lane it gives the bytes of each code's faces evaluated alone, on
    # lanes inside and outside each rule's domain
    rng = random.Random(26)
    codes = np.repeat(np.arange(6), 80)
    rng.shuffle(codes)
    alphas = np.array([[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in codes])
    etas = np.array([[rng.uniform(-0.5, 5.0) for _ in range(3)] for _ in codes])
    f = np.array([rng.uniform(-1.2, 1.2) for _ in range(alphas.size)])
    sides = np.repeat(codes[:, None], 3, axis=1)
    mixed = disjoint_faces(sides, alphas, etas)
    assert [law for law, _ in mixed.groups] == [0, 1, 2]
    ok, ch, rho = kern._edge_pass(mixed, f)
    lanes = [x[mixed.side] for x in (np.broadcast_to(ok, ch.shape), ch, rho)]
    arcs = kern.face_theta(mixed, f)
    for code in range(6):
        at = np.flatnonzero(codes == code)
        alone = disjoint_faces(sides[at], alphas[at], etas[at])
        assert len(alone.groups) == 1
        fk = f.reshape(-1, 3)[at].ravel()
        one_ok, one_ch, one_rho = kern._edge_pass(alone, fk)
        one = [x[alone.side] for x in (np.broadcast_to(one_ok, one_ch.shape), one_ch, one_rho)]
        for x, y in zip(lanes, one):
            assert x[:, at].tobytes() == y.tobytes(), code
        one_arcs = kern.face_theta(alone, fk)
        for name in ("theta", "status", "bad"):
            assert getattr(arcs, name)[at].tobytes() == getattr(one_arcs, name).tobytes()
        # some faces evaluate and some fail; the square-root laws also
        # leave their domain on some lanes
        assert 0 < (one_arcs.status == kern.OK).sum() < len(at), code
        assert (code % 3 == 2) == one[0].all(), code


def test_a_vertex_on_two_square_root_laws_takes_each_laws_factor():
    # faces whose sides are coded (0, 1, 2) or (3, 4, 5), rotated, put one
    # corner of each on edges of both square-root laws; the mixed program
    # takes each law's vertex factor there and gives, lane for lane, the
    # bytes of each edge in a program of its code alone, on lanes inside
    # and outside each rule's domain
    rng = random.Random(33)
    sides = np.array([np.roll(rng.choice(((0, 1, 2), (3, 4, 5))), rng.randrange(3))
                      for _ in range(240)])
    alphas = np.array([[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in sides])
    etas = np.array([[rng.uniform(-0.5, 5.0) for _ in range(3)] for _ in sides])
    f = np.array([rng.uniform(-1.2, 1.2) for _ in range(alphas.size)])
    mixed = disjoint_faces(sides, alphas, etas)
    laws = np.zeros((alphas.size, 3), dtype=bool)
    for end in mixed.ends:
        laws[end, mixed.codes % 3] = True
    assert (laws[:, 0] & laws[:, 1]).sum() == len(sides)
    ok, ch, rho = kern._edge_pass(mixed, f)
    lanes = [x[mixed.side] for x in (np.broadcast_to(ok, ch.shape), ch, rho)]
    for code in range(6):
        alone = disjoint_faces(np.full_like(sides, code), alphas, etas)
        assert len(alone.groups) == 1
        one_ok, one_ch, one_rho = kern._edge_pass(alone, f)
        one = [x[alone.side] for x in (np.broadcast_to(one_ok, one_ch.shape), one_ch, one_rho)]
        at = sides.T == code
        for x, y in zip(lanes, one):
            assert x[at].tobytes() == y[at].tobytes(), code
        assert (code % 3 == 2) == one[0][at].all() and one[0][at].any(), code


def test_theta_status_is_kept_all_ok_and_copied_where_a_face_fails():
    # a passing theta pass returns its program's read-only all-OK status
    # and bad; a failing one returns its own arrays, which keep their codes
    prog = disjoint_faces(np.zeros((2, 3), dtype=int), np.zeros((2, 3)), np.full((2, 3), 3.0))
    for f, fail in (([-1.0] * 3, (kern.BAD_EDGE, 0)), ([200.0, 0.0, 0.0], (kern.BAD_RANGE, -1)),
                    ([20.0, 0.0, 0.0], (kern.BAD_ARC, 0))):
        failed = kern.face_theta(prog, np.r_[np.zeros(3), f])
        passed = kern.face_theta(prog, np.zeros(6))
        face_centers(passed)  # reads the kept arrays, writes none
        assert passed.status is prog.status and passed.bad is prog.bad
        assert passed.status.tolist() == [kern.OK] * 2 and passed.bad.tolist() == [-1] * 2
        assert list(zip(failed.status.tolist(), failed.bad.tolist())) == [(kern.OK, -1), fail]
        # evaluation reads the kept record as "no face failed" by identity;
        # a fresh status is searched, and raises for its failing face only
        curvature._raise_first([7, 9], passed)
        curvature._raise_first([7, 9], passed._replace(status=passed.status.copy()))
        with pytest.raises(NotAdmissible, match="^face 9: "):
            curvature._raise_first([7, 9], failed)
    for kept in (prog.status, prog.bad):
        with pytest.raises(ValueError):
            kept[0] = kern.BAD_EDGE


_PLANTED = (math.nan, math.inf, -math.inf, np.nextafter(kern.F_LIMIT, math.inf),
            -np.nextafter(kern.F_LIMIT, math.inf), kern.F_LIMIT, -kern.F_LIMIT)


def _limit_face():
    """A disjoint face that evaluates with a corner at -F_LIMIT: (codes,
    alphas, weights, factors)."""
    return [3, 3, 3], [0, 0, 0], [1.0, 1.0, 1.0], [-kern.F_LIMIT, 140.0, 140.0]


def _range_cases(rng):
    """(program, factors) of a one-law program, an A3 sphere's at its
    start, and of a mixed-law disjoint program on which some faces fail,
    with _limit_face last."""
    tri = sphere_triangulation(40, rng)
    arrays = spec_arrays(make_spec("A3", tri, rng), tri)
    yield arrays.program, arrays.cov.to_f(arrays.start)
    codes = np.repeat(np.arange(6), 8)
    rng.shuffle(codes)
    rows = [(np.full(3, c), [rng.choice((-1, 0, 1)) for _ in range(3)],
             [rng.uniform(-0.5, 5.0) for _ in range(3)],
             [rng.uniform(-1.2, 1.2) for _ in range(3)]) for c in codes] + [_limit_face()]
    sides, alphas, etas, f = (np.array(x) for x in zip(*rows))
    yield disjoint_faces(sides, alphas, etas), f.ravel()


def test_range_check_fails_exactly_the_faces_at_an_out_of_range_factor():
    # NaN, +-inf and the next floats past +-F_LIMIT fail every face at
    # them, with no side position, and no other face: those keep the bytes
    # of a pass without them; +-F_LIMIT itself is in range
    rng = random.Random(30)
    for prog, f in _range_cases(rng):
        clean = kern.face_theta(prog, f)
        assert (clean.status is prog.status) == (len(prog.groups) == 1)
        for _ in range(40):
            at = rng.sample(range(len(f)), rng.randint(1, 3))
            g = f.copy()
            g[at] = [rng.choice(_PLANTED) for _ in at]
            out = ~(np.abs(g) <= kern.F_LIMIT)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                arcs = kern.face_theta(prog, g)
                ref = kern.face_theta(prog, np.where(out, f, g))
            hit = out[prog.vert].any(axis=1)
            assert not ((ref.status == kern.BAD_RANGE) & (ref.bad == -1)).any()
            assert (arcs.status[hit] == kern.BAD_RANGE).all() and (arcs.bad[hit] == -1).all()
            # failed faces evaluate the regular hexagon
            assert (arcs.ch[hit] == 2.0).all() and (arcs.sh[hit] == kern._SH_FILL).all()
            for name in ("theta", "status", "bad", "ch", "sh", "chth"):
                assert getattr(arcs, name)[~hit].tobytes() == getattr(ref, name)[~hit].tobytes()
            assert (arcs.status is prog.status) == (ref.status is prog.status and not hit.any())


def test_a_face_at_the_limit_keeps_the_all_ok_record():
    # a corner at -F_LIMIT evaluates, and the pass returns the program's
    # all-OK record itself; one float further fails the range check
    codes, alphas, etas, f = _limit_face()
    prog = disjoint_faces([codes], [alphas], [etas])
    for k in range(3):
        at = np.roll(f, k)
        arcs = kern.face_theta(prog, at)
        assert arcs.status is prog.status and arcs.bad is prog.bad
        assert np.all(np.isfinite(arcs.theta)) and arcs.theta.max() > 280.0
        beyond = np.where(at == -kern.F_LIMIT, np.nextafter(at, -math.inf), at)
        past = kern.face_theta(prog, beyond)
        assert (past.status.tolist(), past.bad.tolist()) == ([kern.BAD_RANGE], [-1])


def test_edge_partials_are_the_length_derivatives():
    # sinh l dl/df_a = cosh l + 1/rho and sinh l dl/df_b = cosh l + rho, the
    # closed forms the derivative stage reads off the edge pass, for all six
    # rules
    rng = random.Random(2)
    args = []
    for code in range(6):
        for _ in range(200):
            al = (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
            args.append((code, *al, rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0),
                         rng.uniform(-3.0, 3.0)))
    ok, ch, _ = edge_lanes(*map(np.array, zip(*args)))
    args = [a for a, k, c in zip(args, ok, ch) if k and c > 1.1]
    assert {a[0] for a in args} == set(range(6))
    code, aa, ab, fa, fb, eta = map(np.array, zip(*args))
    _, ch, rho = edge_lanes(code, aa, ab, fa, fb, eta)
    sh = np.sqrt((ch - 1.0) * (ch + 1.0))
    h = 1e-6
    for closed, dfa, dfb in (((ch + 1.0 / rho) / sh, h, 0.0), ((ch + rho) / sh, 0.0, h)):
        plus = edge_lanes(code, aa, ab, fa + dfa, fb + dfb, eta)[1]
        minus = edge_lanes(code, aa, ab, fa - dfa, fb - dfb, eta)[1]
        fd = (np.arccosh(plus) - np.arccosh(minus)) / (2.0 * h)
        assert np.max(np.abs(closed - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6


def _theta_mp(codes, alphas, etas, f):
    """The arcs of one face in mpmath: the six edge rules, then the cosine
    law, with nothing taken from the kernel but the rule of each edge."""
    ch = []
    for m, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
        if codes[m] % 3 == 0:
            root = mpmath.sqrt((1 + alphas[a] * mpmath.exp(2 * f[a]))
                               * (1 + alphas[b] * mpmath.exp(2 * f[b])))
        elif codes[m] % 3 == 1:
            root = mpmath.sqrt(mpmath.expm1(2 * f[a]) * mpmath.expm1(2 * f[b]))
        else:
            root = mpmath.cosh(f[b] - f[a])
        ch.append((root if codes[m] % 2 else -root) + etas[m] * mpmath.exp(f[a] + f[b]))
    sh = [mpmath.sqrt(c * c - 1) for c in ch]
    # corner a lies between edges a and a - 1, opposite edge a + 1
    return [mpmath.acosh((ch[(a + 1) % 3] + ch[a] * ch[a - 1]) / (sh[a] * sh[a - 1]))
            for a in range(3)]


def test_release_jacobian_matches_40_digit_cosine_law():
    # d theta / d f of the derivative stage against mpmath.diff of the arcs
    # at 40 digits, on the same double inputs: what remains is the rounding
    # of the release chain rule
    rng = random.Random(14)
    samples = []
    for fam in ALL_FAMILIES:
        spec = stock_spec(fam)
        samples += [(spec, face_f(spec, u))
                    for u in sample_face_points(spec, face_mesh(spec), rng, 10)]
    arcs = stack_faces(samples)
    assert len(samples) == 60 and not arcs.status.any()
    worst = 0.0
    with mpmath.workdps(40):
        for (spec, f), jac in zip(samples, kern.face_eval(arcs, np.ones(arcs.theta.size))):
            row = [x.tolist() for x in face_record(spec)]
            ref = np.zeros((3, 3))
            for a in range(3):
                for b in range(3):
                    ref[a, b] = mpmath.diff(lambda x: _theta_mp(
                        *row, [x if c == b else f[c] for c in range(3)])[a], f[b])
            err = np.max(np.abs(jac - ref)) / np.max(np.abs(ref))
            assert err < 1e-12, (spec.family, err)
            worst = max(worst, err)
    print(f"worst |J - J_40| / max|J_40| {worst:.2e} over 60 faces")
