"""Batched per-face evaluation kernel and the six edge rules.

Evaluates F hexagonal faces on E edges in two numpy passes over an edge
program (EdgeProgram), built once per spec and mesh.  Each hexagon side
l is an edge quantity, fixed by the factors at the edge's two ends, its
weight and its rule, and an interior edge is a side of two faces.  So the
theta stage (face_theta) checks the factor range, then runs the edge pass,
the one per-lane entry to the edge rules: each root law (rule code mod 3)
once, on its own edges, for cosh l and the partial ratio rho of every
edge; the flipped codes 3 to 5 are the plain codes with the root and rho
negated, so a spec's program, whose codes share one law, takes one call.
Edges keep the program's order and alpha is per vertex, so a square-root
law's factor, 1 + alpha e^{2f} or e^{2f} - 1, is taken once per vertex.
Each check is one reduction, with per-lane masks only where it fails
(small F pays more for numpy calls than for arithmetic).  Then the one
side pass (_sides), which center.hexagon_arcs runs on side lengths too,
checks the edges, gathers cosh l and sinh l to the face sides and
applies the hexagon cosine law

    cosh theta_a = (cosh l_o + cosh l_p cosh l_q) / (sinh l_p sinh l_q)

(side o opposite corner a, sides p and q at it).  The derivative stage
(face_eval) differentiates that law by the chain rule
J = dtheta/dl . dl/df . df/du, without a second theta pass; its docstring
gives the three entries per corner.  For an edge rule cosh l = s root +
eta e^{f_a + f_b}, sinh l * dl/df_a = s droot/df_a + eta e^{f_a + f_b}
equals cosh l + 1/rho, and sinh l * dl/df_b equals cosh l + rho; the
stage takes both once per edge.  It is singular only where sinh l or
sinh theta vanishes, which the theta stage rejects, so it has no status
of its own; at cosh theta = c above CH_MAX, where (c - 1)(c + 1) would
overflow, it takes sinh theta as sqrt(c - 1) sqrt(c + 1).
center.face_centers gives every face's hexagon geometry and the paper's
center-distance formula in one record; the test suite holds a scalar
reference of both stages and of that formula.

Layout.  Both stages work on 3 x F face-side arrays: row m is side m or
corner m of every face, so the shifts a + 1 and a - 1 pick whole rows.
Side m runs from corner m to corner m + 1 mod 3; corner a lies between
sides a and a - 1, opposite side a + 1.  rho of an edge is sinh d_ab /
sinh d_ba, taken from its end a to its end b; a side that runs from b to
a reads 1/rho, and its first corner takes the edge's derivative at b.

Status codes of the theta stage: 0 ok, 1 degenerate edge (cosh l <= 1),
5 factors or sides outside the evaluable range or the edge rule's domain, 6
vanishing arc (cosh theta <= 1, which only rounding reaches).  The
face-center record adds 2 degenerate split, 3 degenerate face center
and 4 singular height, and gives 5 to an arc whose cosh theta exceeds
CH_MAX, where the embedding would overflow.  A face reports its first
failing check in the order range, edge, arc, arc range, split, center,
height, with the edge or corner position for per-edge and per-arc checks
(else -1); later steps mask its lanes out.  Branch codes: 0 time-like, 1
space-like, 2 light-like face center.
"""

import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

OK, BAD_EDGE, BAD_SPLIT, BAD_CENTER, BAD_HEIGHT, BAD_RANGE, BAD_ARC = range(7)
TIME, SPACE, LIGHT = range(3)

# factor magnitudes beyond this overflow the double-precision pipeline
F_LIMIT = 150.0
# the largest cosh of a side or an arc whose (cosh - 1)(cosh + 1) stays
# finite, as do the cosine law's products of two cosh l (l ~ 355.3)
CH_MAX = 1e154

# index triples over the three corners / edges of a face
_NEXT = np.array([1, 2, 0])  # second endpoint of edge m
_PREV = np.array([2, 0, 1])
_ROWS = np.arange(3)

_SH_FILL = math.sqrt(3.0)  # sinh of the filler edge, cosh l = 2


def _rule(law, alpha, f, a, b, eta, s, r):
    """(ok, cosh l, rho) of one root law on the edges a -> b: cosh l = eta
    e^{f_a + f_b} + s root and rho = r times the law's partial ratio, with
    the signs s and r of each lane's rule code (EdgeProgram.signs); alpha
    and f per vertex id, a square-root law's factor taken once per vertex.

    ok is True for the cosh-difference law, which holds everywhere; the
    square-root laws evaluate lanes outside their domain on finite filler,
    which callers mask by ok.
    """
    fa, fb = f[a], f[b]
    ee = eta * np.exp(fa + fb)
    if law == 2:
        ok, root, rho = True, np.cosh(fb - fa), np.exp(fa - fb)
    else:
        x = 1.0 + alpha * np.exp(2.0 * f) if law == 0 else np.expm1(2.0 * f)
        xa, xb = x[a], x[b]
        ok = (xa > 0.0) & (xb > 0.0)
        if not ok.all():
            xa, xb = np.where(ok, xa, 1.0), np.where(ok, xb, 1.0)
        root, rho = np.sqrt(xa * xb), np.sqrt(xa / xb)
    return ok, ee + s * root, r * rho


class EdgeProgram:
    """How F faces read E edges (see the module docstring for the layout).

    vert (F x 3) holds the corner ids and alpha the alpha of each vertex
    id.  Per edge, in the order given: ends (2 x E) the end ids a and b,
    codes, etas and signs (2 x E): s, the sign of the root in cosh l (+1 on
    odd codes), and r, the sign of rho (-1 on the flipped codes 3 to 5).
    groups holds (law, indices of its edges) per root law (rule code mod 3)
    present; a spec's program has one.  _rows keeps the per-edge rows the
    edge rules read as one tuple: ends a and b, etas, and signs s and r.
    side (3 x F) is the edge of each face side and rev whether the side
    runs from b to a; tail and head index the flattened 2 x E per-end
    values at the first and second corner of each side.  status and bad
    are the theta stage's read-only all-OK record of the F faces.

    The constructor takes vert, alpha, then ends, codes and etas of the
    edges in any one order, and side (F x 3) as indices into it.
    """

    def __init__(self, vert, alpha, ends, codes, etas, side):
        self.vert = np.asarray(vert, dtype=np.intp)
        self.alpha = np.asarray(alpha, dtype=float)
        self.ends, self.codes, self.etas = (np.asarray(x) for x in (ends, codes, etas))
        self.signs = np.where([self.codes % 2 == 1, self.codes < 3], 1.0, -1.0)
        self._rows = (*self.ends, self.etas, *self.signs)
        self.side = np.ascontiguousarray(np.transpose(side), dtype=np.intp)
        self.rev = self.vert.T != self.ends[0, self.side]
        n = len(self.codes)
        self.tail, self.head = self.side + n * self.rev, self.side + n * ~self.rev
        law = self.codes % 3
        self.groups = tuple((k, np.flatnonzero(law == k)) for k in np.unique(law).tolist())
        self.status, self.bad = (np.full(len(self.vert), x, dtype=np.int64) for x in (OK, -1))
        self.status.flags.writeable = self.bad.flags.writeable = False


def disjoint_faces(codes, alphas, etas):
    """The edge program of K disjoint faces from K x 3 side codes, corner
    alphas and side weights: face k has the vertices 3k, 3k + 1 and 3k + 2,
    and each side is its own edge, run forward."""
    vert = np.arange(np.size(codes)).reshape(-1, 3)
    ends = np.stack((vert.ravel(), vert[:, _NEXT].ravel()))
    return EdgeProgram(vert, np.ravel(alphas), ends, np.ravel(codes), np.ravel(etas), vert)


def _fail(status, bad, fails):
    """New (status, bad) that give each face still OK the first non-zero
    code of fails (3 x F) and its position."""
    pos = np.argmax(fails != OK, axis=0)
    code = fails[pos, np.arange(len(status))]
    hit = (status == OK) & (code != OK)
    return np.where(hit, code, status), np.where(hit, pos, bad)


class Arcs(NamedTuple):
    """The theta stage of every face: status and bad position (see the
    module docstring; read-only where no face fails), the arcs theta, the
    program, cosh and sinh of the face sides, cosh of the arcs (all four
    F x 3 views of 3 x F arrays), and edge, the (cosh l, sinh l, rho) of
    every program edge, which the derivative stage reuses.  Failed edges
    carry the filler cosh l = 2 beside a finite non-zero rho, and failed
    faces the regular hexagon's sides, or cosh theta = 2 at a vanishing
    arc."""

    status: np.ndarray
    bad: np.ndarray
    theta: np.ndarray
    prog: EdgeProgram
    ch: np.ndarray
    sh: np.ndarray
    chth: np.ndarray
    edge: tuple

    @property
    def rho(self) -> np.ndarray:
        """The F x 3 partial ratio of each face side, taken from its first
        corner (1 on failed faces), gathered from the edges."""
        r = self.edge[2][self.prog.side]
        r = np.where(self.prog.rev, 1.0 / r, r)
        return np.where(self.status == OK, r, 1.0).T


def _edge_pass(prog: EdgeProgram, f):
    """(ok, cosh l, rho) of every edge of prog at finite factors f, in
    program order, one _rule call per root law on its own edges, read off
    the kept rows of prog: a one-law program returns that call's arrays,
    and ok may be True for all edges.  ok is False on the lanes outside a
    rule's domain, which keep its filler values."""
    if len(prog.groups) == 1:
        return _rule(prog.groups[0][0], prog.alpha, f, *prog._rows)
    n = len(prog.codes)
    ok, ch, rho = np.ones(n, dtype=bool), np.empty(n), np.empty(n)
    for law, at in prog.groups:
        ok[at], ch[at], rho[at] = _rule(law, prog.alpha, f, *(x[at] for x in prog._rows))
    return ok, ch, rho


def face_theta(prog: EdgeProgram, f) -> Arcs:
    """The theta stage of every face of prog at factors f, indexed by
    vertex id; theta is F x 3.  status and bad are prog's read-only
    all-OK arrays themselves unless a face fails: status is prog.status
    reads as "no face failed", and only a fresh status is searched."""
    f = np.asarray(f, dtype=float)
    status, bad = prog.status, prog.bad
    if not np.abs(f).max(initial=0.0) <= F_LIMIT:
        in_range = np.abs(f) <= F_LIMIT
        status = np.where(in_range[prog.vert].all(axis=1), OK, BAD_RANGE)
        f = np.where(in_range, f, 0.0)
    return _sides(prog, status, bad, *_edge_pass(prog, f))


def _sides(prog: EdgeProgram, status, bad, ok, ch, rho) -> Arcs:
    """The side pass: the theta stage from the faces' status and bad so far
    and each edge's (ok, cosh l, rho), in program order."""
    if not ((ok is True or ok.all()) and ch.min(initial=2.0) > 1.0):
        fails = np.where(ok, np.where(ch <= 1.0, BAD_EDGE, OK), BAD_RANGE)
        status, bad = _fail(status, bad, fails[prog.side])
        ch = np.where(fails == OK, ch, 2.0)
    sh = np.sqrt((ch - 1.0) * (ch + 1.0))
    chs, shs = ch[prog.side], sh[prog.side]
    if status is not prog.status and status.any():  # failed faces: the regular hexagon
        live = status == OK
        chs, shs = np.where(live, chs, 2.0), np.where(live, shs, _SH_FILL)
    # cosine law: corner a lies between sides a and a - 1, opposite side a + 1
    chth = (chs[_NEXT] + chs * chs[_PREV]) / (shs * shs[_PREV])
    if not chth.min(initial=2.0) > 1.0:
        arc = chth > 1.0
        status, bad = _fail(status, bad, np.where(arc, OK, BAD_ARC))
        chth = np.where(arc, chth, 2.0)
    return Arcs(status, bad, np.arccosh(chth).T, prog, chs.T, shs.T, chth.T,
                (ch, sh, rho))


def face_eval(arcs: Arcs, du):
    """The derivative stage of every face, from its theta stage.

    du holds df/du per vertex id.  Returns jac, F x 3 x 3 with
    jac[k, a, b] = d theta_a / d u of corner b of face k, all nine entries
    computed, none mirrored; entries of failed faces are filler.  On the
    3 x F rows, with c_a = cosh theta_a and first_m, second_m the partials
    dl_m/du of side m at its first and second corner:

        d_a = d theta_a / d l_{a+1} = sinh l_{a+1} / (sinh theta_a sinh l_a sinh l_{a-1})
        J[a, a]     = -d_a (c_{a+1} first_a + c_{a-1} second_{a-1})
        J[a, a + 1] =  d_a (first_{a+1} - c_{a+1} second_a)
        J[a, a - 1] =  d_a (second_{a+1} - c_{a-1} first_{a-1})
    """
    sh, chth = arcs.sh.T, arcs.chth.T
    c = chth if chth.max(initial=0.0) <= CH_MAX else np.minimum(chth, CH_MAX)
    shth = np.sqrt((c - 1.0) * (c + 1.0))
    if c is not chth:  # (c - 1)(c + 1) overflows above CH_MAX: factored there
        shth = np.where(chth > CH_MAX, np.sqrt(chth - 1.0) * np.sqrt(chth + 1.0), shth)
    d = sh[_NEXT] / (shth * sh * sh[_PREV])
    # dl/df . df/du of each edge at its ends a and b, then at each side's corners
    ch_e, sh_e, rho_e = arcs.edge
    g = np.empty((2, len(ch_e)))
    g[0] = (ch_e + 1.0 / rho_e) / sh_e
    g[1] = (ch_e + rho_e) / sh_e
    g *= np.asarray(du, dtype=float)[arcs.prog.ends]
    g = g.ravel()
    first, second = g[arcs.prog.tail], g[arcs.prog.head]
    chn, chp = chth[_NEXT], chth[_PREV]
    jac = np.empty((sh.shape[1], 3, 3))
    jac[:, _ROWS, _ROWS] = (-d * (chn * first + chp * second[_PREV])).T
    jac[:, _ROWS, _NEXT] = (d * (first[_NEXT] - chn * second)).T
    jac[:, _ROWS, _PREV] = (d * (second[_NEXT] - chp * first[_PREV])).T
    return jac
