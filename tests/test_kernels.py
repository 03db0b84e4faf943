"""The batched kernel against the scalar reference kernel ``_core_py``.

Both kernels run the same sequence of floating-point operations per face,
so they differ only where that sequence calls an elementary function:
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

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from hexcurv import _kernels as kern
from hexcurv._kernels import _core_py
from hexcurv.curvature import face_edge_args
from hexcurv.mesh import single_face
from hexcurv.tol import TAU_CAUSAL

from helpers import branch_samples, light_like_samples

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


def _face_row(rng, spec, face, f):
    """Scalar-kernel arguments of one mesh face at factors f."""
    args = face_edge_args(spec, face, f)
    return (
        tuple(a[0] for a in args),
        tuple(spec.alpha[v] for v in face.vertices),
        tuple(a[5] for a in args),
        tuple(f[v] for v in face.vertices),
        tuple(rng.uniform(0.5, 2.0) for _ in range(3)),
    )


def _batched(rows):
    """Both batched kernels on scalar-kernel rows, one face per row."""
    vert = np.arange(3 * len(rows)).reshape(-1, 3)
    codes, al, et, f, du = (np.array([r[i] for r in rows]) for i in range(5))
    args = (vert, codes, al.astype(float), et, f.ravel())
    return kern.face_theta(*args), kern.face_eval(*args, du.ravel())


# -- first-order difference bound ----------------------------------------------

class _Tape(list):
    """Results of one scalar evaluation: (u_z |z|, ((parent, dz/dparent), ...))."""

    def rec(self, value, ulps, parents, elementary=False):
        parents = tuple((p.id, d) for p, d in parents if isinstance(p, _T))
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


def _outputs(res):
    theta, jac, sigma = res[2], res[3], res[5]
    return list(theta) + [x for row in jac for x in row] + [sigma]


def _tolerance(monkeypatch, row):
    """tol of (theta, jac, sigma) of one valid face, by the bound above."""
    tape = _Tape()
    monkeypatch.setattr(_core_py, "math", _TapedMath(tape))
    ys = _outputs(_core_py.face_eval(*row))
    monkeypatch.setattr(_core_py, "math", math)
    # result z = sum of dz/dparent * parent + its own difference:
    # (I - D) z = delta, so dy/dz is row y of (I - D)^-1
    n = len(tape)
    edges = [(i, p, d) for i, (_, parents) in enumerate(tape) for p, d in parents]
    i, p, d = (np.array(x) for x in zip(*edges))
    lower = scipy.sparse.identity(n, format="csr") - scipy.sparse.csr_matrix(
        (d, (i, p)), shape=(n, n))
    pick = np.zeros((n, len(ys)))
    for k, y in enumerate(ys):
        pick[y.id, k] = 1.0
    adj = scipy.sparse.linalg.spsolve_triangular(lower.T.tocsr(), pick, lower=False)
    weight = np.array([w for w, _ in tape])
    return 2.0 * EPS * (np.abs(adj).T @ weight)


def _rows(rng):
    rows = [_draw(rng, case) for case in CASES for _ in range(200)]
    buckets = branch_samples(rng, 25)
    light = light_like_samples(rng, 10)
    for spec, f, fd in buckets["time-like"] + buckets["space-like"] + light:
        rows.append(_face_row(rng, spec, single_face().faces[0], f))
    return rows


def test_batched_matches_scalar_reference(monkeypatch):
    rng = random.Random(0)
    rows = _rows(rng)
    (st_t, bad_t, th_t), (st, bad, th, jac, br, sg) = _batched(rows)
    codes_seen, kinds_seen, branches_seen = set(), set(), set()
    worst, compared = 0.0, 0
    for k, row in enumerate(rows):
        ref = _core_py.face_eval(*row)
        ref_t = _core_py.face_theta(*row[:4])
        assert (st[k], bad[k]) == ref[:2], k
        assert (st_t[k], bad_t[k]) == ref_t[:2], k
        if ref[0] != kern.OK:
            continue
        # K-only and K+J evaluations share their theta code
        assert np.array_equal(th_t[k], th[k])
        tol = _tolerance(monkeypatch, row)
        got = np.concatenate((th[k], jac[k].ravel(), [sg[k]]))
        err = np.abs(got - _outputs(ref))
        assert np.all(err <= tol), (k, err / tol)
        worst = max(worst, float(np.max(err / tol)))
        if abs(abs(ref[5]) - TAU_CAUSAL) > tol[-1]:
            assert br[k] == ref[4], k
            branches_seen.add(ref[4])
        compared += 1
        codes_seen.update(row[0])
        for m, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            _, c, rho = _core_py._edge_state(
                row[0][m], row[1][a], row[1][b], row[3][a], row[3][b], row[2][m])
            kinds_seen.add(_core_py._split(rho, c, math.sqrt((c - 1.0) * (c + 1.0)))[0])
    assert compared > 700
    assert codes_seen == set(range(6))
    assert kinds_seen == {0, 1}
    assert branches_seen == {kern.TIME, kern.SPACE, kern.LIGHT}
    print(f"worst error / tolerance {worst:.3f} over {compared} faces")


def test_status_codes_match():
    rows = [
        # degenerate edge
        ((0, 0, 0), (0, 0, 0), (1.5, 1.5, 1.5), (0.0, 0.0, 0.0), (1.0,) * 3),
        # out of range
        ((0, 0, 0), (0, 0, 0), (3.0, 3.0, 3.0), (200.0, 0.0, 0.0), (1.0,) * 3),
        # domain violation in the square-root rule
        ((1, 1, 1), (-1, -1, -1), (3.0,) * 3, (-0.5, 0.5, 0.5), (1.0,) * 3),
        # a valid face between failing ones
        ((0, 0, 0), (0, 0, 0), (3.0, 3.0, 3.0), (0.0, 0.0, 0.0), (1.0,) * 3),
    ]
    (st_t, bad_t, _), (st, bad, *_rest) = _batched(rows)
    assert st.tolist() == [kern.BAD_EDGE, kern.BAD_RANGE, kern.BAD_RANGE, kern.OK]
    for k, row in enumerate(rows):
        assert (st[k], bad[k]) == _core_py.face_eval(*row)[:2]
        assert (st_t[k], bad_t[k]) == _core_py.face_theta(*row[:4])[:2]


def test_edge_state_domain_matches_scalar_rules():
    rng = random.Random(1)
    args = []
    for code in range(6):
        for _ in range(200):
            al = (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)))
            fa, fb = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            args.append((code, *al, fa, fb, rng.uniform(-3.0, 3.0)))
    ok, ch, rho = kern.edge_state(*map(np.array, zip(*args)))
    assert ok.tolist() == [_core_py._edge_state(*a)[0] for a in args]
    assert 0 < ok.sum() < len(args)
    assert not np.any(ch[~ok]) and not np.any(rho[~ok])
