"""Shared fixtures: mesh generators, structure specs, admissible samplers,
and single-face samples evaluated as batches of disjoint faces."""

import numpy as np

from hexcurv import identities, solver
from hexcurv._kernels import _NEXT, _PREV, LIGHT, OK, disjoint_faces, face_eval
from hexcurv._kernels import _edge_pass, face_theta
from hexcurv._kernels.center import _edot, _mdot, face_centers
from hexcurv.conformal import StructureSpec, admissible, component_values, f_from_u
from hexcurv.conformal import spec_arrays
from hexcurv.identities import sample_face_points, stock_spec
from hexcurv.mesh import Edge, Face, Triangulation, single_face


def sphere_triangulation(n_vertices, rng):
    """Random triangulated sphere by repeated vertex insertion.

    Ideal triangulations derived this way have every edge interior.
    """
    assert n_vertices >= 4
    faces = [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)]
    nv = 4
    while nv < n_vertices:
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        v = nv
        nv += 1
        faces.extend([(a, b, v), (b, c, v), (c, a, v)])
    return _triangulation(nv, faces)


def flipped_sphere(n_vertices, rng, flips):
    """sphere_triangulation with flips random edge flips tried on it.

    A flip replaces the edge ab of faces abc and bad by the edge cd; it is
    skipped where c and d are already adjacent.  Stacked spheres have
    chordal vertex graphs, so their Jacobians factor without fill in a
    minimum-degree order; flipped ones need not.
    """
    faces = [f.vertices for f in sphere_triangulation(n_vertices, rng).faces]
    owner = {}  # directed side -> the face it bounds

    def own(k):
        for m in range(3):
            owner[faces[k][m], faces[k][m - 2]] = k

    for k in range(len(faces)):
        own(k)
    for _ in range(flips):
        k, m = rng.randrange(len(faces)), rng.randrange(3)
        a, b, c = faces[k][m], faces[k][m - 2], faces[k][m - 1]
        j = owner[b, a]
        d = next(v for v in faces[j] if v not in (a, b))
        if (c, d) in owner:
            continue
        del owner[a, b], owner[b, a]
        faces[k], faces[j] = (a, d, c), (d, b, c)
        own(k)
        own(j)
    return _triangulation(n_vertices, faces)


def _triangulation(nv, faces):
    """The Triangulation of oriented vertex triples, edges numbered in order
    of first appearance."""
    edge_ids = {}
    edges = []

    def eid(a, b):
        key = (min(a, b), max(a, b))
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append(Edge(edge_ids[key], key[0], key[1]))
        return edge_ids[key]

    face_objs = []
    for fi, (a, b, c) in enumerate(faces):
        face_objs.append(Face(fi, (a, b, c), (eid(a, b), eid(b, c), eid(c, a))))
    return Triangulation(nv, edges, face_objs)


def pick_special(tri, rng, want=None):
    """Greedy special set: no two specials share a face, and none lies on a
    loop edge, which would join two special components."""
    order = list(range(tri.n_boundary))
    rng.shuffle(order)
    special = set()
    blocked = {e.a for e in tri.edges if e.a == e.b}
    for v in order:
        if v in blocked:
            continue
        special.add(v)
        for face in tri.faces:
            if v in face.vertices:
                blocked.update(face.vertices)
        if want is not None and len(special) >= want:
            break
    return frozenset(special)


def make_spec(family, tri, rng, regime="default"):
    """A structure spec in a weight window where the theory is clean.

    Mixed families default to windows where the per-edge split regime is
    uniform across the admissible set (no interior Jacobian folds).
    """
    n = tri.n_boundary
    if family == "A1":
        alpha = {i: rng.choice([0, 0, 1]) for i in range(n)}
        if regime == "alpha-neg":
            alpha = {i: rng.choice([0, 1, -1]) for i in range(n)}
        eta = {}
        for e in tri.edges:
            lo = 1.2 if (alpha[e.a] == alpha[e.b] and alpha[e.a] != 0) else 0.8
            eta[e.id] = rng.uniform(lo, lo + 3.0)
        return StructureSpec("A1", alpha, eta)
    if family == "A2":
        eta = {e.id: rng.uniform(-0.9, -0.05) for e in tri.edges}
        if regime == "eta-pos":
            eta = {e.id: rng.uniform(0.5, 3.0) for e in tri.edges}
        return StructureSpec("A2", {i: -1 for i in range(n)}, eta)
    if family == "A3":
        eta = {e.id: rng.uniform(0.8, 4.0) for e in tri.edges}
        return StructureSpec("A3", {i: 0 for i in range(n)}, eta)
    special = pick_special(tri, rng)
    if family == "MixedIII":
        # A-edges positive, edges at special components strongly negative
        eta = {}
        for e in tri.edges:
            if e.a in special or e.b in special:
                eta[e.id] = rng.uniform(-6.0, -3.5)
            else:
                eta[e.id] = rng.uniform(0.8, 3.0)
        return StructureSpec("MixedIII", {i: 0 for i in range(n)}, eta,
                             special=special)
    if family == "MixedII":
        eta = {e.id: 1.0 for e in tri.edges}
        return StructureSpec("MixedII", {i: -1 for i in range(n)}, eta,
                             special=special)
    if family == "MixedI":
        if regime == "definite":
            # special components alpha=-1, others alpha=+1, B-weights
            # strongly negative: uniformly definite window
            alpha = {i: (-1 if i in special else 1) for i in range(n)}
            eta = {}
            for e in tri.edges:
                if e.a in special or e.b in special:
                    eta[e.id] = rng.uniform(-5.0, -3.0)
                else:
                    eta[e.id] = rng.uniform(1.5, 3.0)
            return StructureSpec("MixedI", alpha, eta, special=special)
        # solvable window: alpha in {0,1}, never both plain corners 1
        alpha = {i: 0 for i in range(n)}
        for face in tri.faces:
            others = [v for v in face.vertices if v not in special]
            if len(set(others)) == 2 and all(alpha[v] == 0 for v in others):
                if rng.random() < 0.4:
                    alpha[rng.choice(others)] = 1
        for v in special:
            alpha[v] = rng.choice([0, 1])
        # keep each face's plain pair off (1,1)
        for face in tri.faces:
            others = [v for v in face.vertices if v not in special]
            if len(others) >= 2 and all(alpha[v] == 1 for v in others):
                alpha[others[0]] = 0
        eta = {e.id: rng.uniform(0.8, 3.0) for e in tri.edges}
        return StructureSpec("MixedI", alpha, eta, special=special)
    raise ValueError(family)


def sample_admissible_u(spec, tri, rng, n=1, scale=1.0, max_tries=20000):
    """Random admissible u points near the feasible default."""
    u0 = solver.default_initial(spec, tri)
    poly = spec_arrays(spec, tri).polytope
    lo, hi = poly.lo.tolist(), poly.hi.tolist()
    out = []
    tries = 0
    while len(out) < n and tries < max_tries:
        tries += 1
        s = scale * rng.uniform(0.1, 1.0)
        u = {}
        for i in u0:
            ui = u0[i] + rng.uniform(-s, s)
            u[i] = ui if lo[i] < ui < hi[i] else u0[i]
        if admissible(spec, tri, u).ok:
            out.append(u)
    if len(out) < n:
        raise RuntimeError(
            f"sampler found {len(out)}/{n} admissible points for {spec.family}"
        )
    return out


def sample_admissible_f(spec, tri, rng, n=1, scale=1.0):
    return [f_from_u(spec, u) for u in sample_admissible_u(spec, tri, rng, n, scale)]


ALL_FAMILIES = ("A1", "A2", "A3", "MixedI", "MixedII", "MixedIII")
_FACE_MESHES = {}


def face_mesh(spec):
    """One single-face mesh per family.  A mesh keeps the arrays of the last
    spec used on it, so draws that alternate families on one mesh would
    rebuild them on every switch."""
    if spec.family not in _FACE_MESHES:
        _FACE_MESHES[spec.family] = single_face()
    return _FACE_MESHES[spec.family]


def face_f(spec, u):
    """The factors of a single-face sample at u, as an array."""
    return spec_arrays(spec, face_mesh(spec)).cov.to_f(component_values(u, 3))


def face_record(spec):
    """(side codes, corner alphas, side weights) of spec's face mesh, read
    off its edge program."""
    prog = spec_arrays(spec, face_mesh(spec)).program
    side = prog.side[:, 0]
    return prog.codes[side], prog.alpha[prog.vert[0]], prog.etas[side]


def stack_faces(samples):
    """The theta stage of single-face samples [(spec, f), ...] stacked as
    disjoint faces, in one kernel call: face k takes the record of its
    spec's face mesh and has corners 3k, 3k + 1 and 3k + 2."""
    rows = [face_record(spec) for spec, _ in samples]
    codes, alphas, etas = (np.array([r[i] for r in rows]).reshape(-1, 3) for i in range(3))
    f = np.array([component_values(f, 3) for _, f in samples]).ravel()
    return face_theta(disjoint_faces(codes, alphas, etas), f)


def edge_lanes(code, aa, ab, fa, fb, eta):
    """(ok, cosh l, partial ratio) of one edge per lane, through the
    kernel's edge pass: lane k is side 0 of disjoint face k, from corner 0
    (alpha aa, factor fa) to corner 1 (ab, fb), beside two cosh-difference
    filler sides.  Arguments broadcast together; where ok is False, cosh l
    and the ratio are the rule's filler values."""
    args = np.broadcast_arrays(code, aa, ab, fa, fb, eta)
    code, aa, ab, fa, fb, eta = (np.ravel(x) for x in args)
    fill, zero, one = np.full(code.size, 2), np.zeros(code.size), np.ones(code.size)
    prog = disjoint_faces(np.column_stack((code, fill, fill)), np.column_stack((aa, ab, zero)),
                          np.column_stack((eta, one, one)))
    ok, ch, rho = _edge_pass(prog, np.column_stack((fa, fb, zero)).ravel())
    lanes = np.broadcast_to(ok, ch.shape), ch, rho
    return tuple(x[prog.side[0]].reshape(args[0].shape) for x in lanes)


def face_jacobians(samples):
    """The u-Jacobian of every single-face sample, which must evaluate."""
    arcs = stack_faces(samples)
    assert not arcs.status.any()
    du = [spec_arrays(spec, face_mesh(spec)).cov.derivative(component_values(f, 3))
          for spec, f in samples]
    return face_eval(arcs, np.ravel(du))


def fd_dtheta_df(samples, step=1e-6):
    """Central differences of the arcs in f of every single-face sample,
    which must evaluate at each shifted point."""
    shifted = []
    for spec, f in samples:
        f = component_values(f, 3)
        for col in range(3):
            fp, fm = f.copy(), f.copy()
            fp[col] += step
            fm[col] -= step
            shifted += [(spec, fp), (spec, fm)]
    arcs = stack_faces(shifted)
    assert not arcs.status.any()
    theta = arcs.theta.reshape(-1, 3, 2, 3)  # sample, column, sign, row
    return ((theta[:, :, 0] - theta[:, :, 1]) / (2 * step)).transpose(0, 2, 1)


def _draw_batches(rng, draw, cap, size=500):
    """Lists of (candidate, state of rng after drawing it) for cap calls of
    draw(rng), size at a time.  A caller that stops after some candidate
    sets rng back to that state, so the stream continues as if candidates
    had been drawn one at a time until then."""
    while cap > 0:
        batch = [(draw(rng), rng.getstate()) for _ in range(min(size, cap))]
        cap -= len(batch)
        yield batch


def branch_samples(rng, want, cap=40000):
    """(spec, f) samples bucketed by the face-center causal branch: those a
    loop drawing one face at a time keeps until both buckets are full."""
    buckets = {"time-like": [], "space-like": []}

    def draw(rng):
        spec = stock_spec(rng.choice(ALL_FAMILIES))
        pts = sample_face_points(spec, face_mesh(spec), rng, 1, scale=1.2)
        return (spec, face_f(spec, pts[0])) if len(pts) else None

    for batch in _draw_batches(rng, draw, cap):
        drawn = [(c, state) for c, state in batch if c is not None]
        status, _, branch = face_centers(stack_faces([c for c, _ in drawn]))[:3]
        for (c, state), ok, code in zip(drawn, status == OK, branch.tolist()):
            bucket = buckets.get(identities.BRANCHES[code])
            if ok and bucket is not None and len(bucket) < want:
                bucket.append(c)
                if min(map(len, buckets.values())) >= want:
                    rng.setstate(state)
                    return buckets
    return buckets


def causal_value(rec):
    """x . x of the Euclidean-normalized center of each face of a
    face-center record, 0 where it has none: the value face_centers sorts
    the causal branches by.  Bit for bit on light-like centers, which the
    record keeps unnormalized; within rounding elsewhere."""
    c = rec.center
    norm = np.sqrt(_edot(c, c))[:, None]
    chat = np.divide(c, norm, out=np.zeros_like(c), where=norm > 0.0)
    return _mdot(chat, chat)


def light_like_samples(rng, want, cap=4000):
    """(spec, f) samples with a light-like face center: a loop drawing one
    pair of faces at a time bisects between those whose causal values
    differ in sign.  The bisections of a batch run in lockstep."""
    out = []

    def draw(rng):
        spec = stock_spec(rng.choice(("A1", "A2", "MixedII", "MixedIII")))
        pts = sample_face_points(spec, face_mesh(spec), rng, 2, scale=1.2)
        return (spec, *(face_f(spec, p) for p in pts)) if len(pts) == 2 else None

    def centers(specs, f):
        rec = face_centers(stack_faces(list(zip(specs, f))))
        return rec.status == OK, rec.branch, causal_value(rec)

    for batch in _draw_batches(rng, draw, cap):
        drawn = [(c, state) for c, state in batch if c is not None]
        specs = [c[0] for c, _ in drawn]
        f0, f1 = (np.array([c[k] for c, _ in drawn]).reshape(-1, 3) for k in (1, 2))
        ok0, _, s0 = centers(specs, f0)
        ok1, _, s1 = centers(specs, f1)
        bisected = ok0 & ok1 & ~(s0 * s1 >= 0.0)
        live = bisected.copy()
        lo, hi = np.zeros(len(drawn)), np.ones(len(drawn))
        for _ in range(70):
            k = np.flatnonzero(live)
            if not k.size:
                break
            mid = 0.5 * (lo[k] + hi[k])
            ok, _, sm = centers([specs[j] for j in k],
                                f0[k] + mid[:, None] * (f1[k] - f0[k]))
            go = ok & ~(np.abs(sm) <= 1e-12)  # a failing or light-like mid ends
            live[k] = go
            up = (sm > 0) == (s1[k] > 0)
            hi[k[go & up]] = mid[go & up]
            lo[k[go & ~up]] = mid[go & ~up]
        fm = f0 + (0.5 * (lo + hi))[:, None] * (f1 - f0)
        ok, branch, _ = centers(specs, fm)
        for j in np.flatnonzero(bisected & ok & (branch == LIGHT)):
            out.append((specs[j], fm[j]))
            if len(out) >= want:
                rng.setstate(drawn[j][1])
                return out
    return out


def embedding_residuals(rec, lengths):
    """Worst residuals of the embedding contracts over the faces of a
    face-center record of hexagons with the given F x 3 side lengths:
    (Gram, polar).  Gram covers v_a . v_b = -cosh l_ab relative to
    max(1, cosh l_ab) and v_a . v_a = 1 relative to max(1, |v_a|^2), where
    double-precision dots of cosh-sized components carry ~|v|^2 eps noise;
    polar covers p_r . v_s = 0 for r != s, relative to |v_s|."""
    v, p, cl = rec.v, rec.p, np.cosh(lengths)
    gram = max(np.max(np.abs(_mdot(v, v[:, _NEXT]) + cl) / np.maximum(1.0, cl)),
               np.max(np.abs(_mdot(v, v) - 1.0) / np.maximum(1.0, np.sum(v * v, axis=2))))
    polar = max(np.max(np.abs(_mdot(p, w)) / np.linalg.norm(w, axis=2))
                for w in (v[:, _NEXT], v[:, _PREV]))
    return float(gram), float(polar)


def random_hexagons(rng, n):
    """Side lengths in [0.3, 2.5] and partial ratios of n random hexagons
    (F x 3 each, rng a numpy Generator): each of the first two ratios is
    positive, or negative with its split's center near the corner, and the
    third closes the cyclic product 1."""
    lengths = rng.uniform(0.3, 2.5, (n, 3))
    kind = rng.integers(4, size=n)
    neg = np.column_stack((kind % 2 == 1, kind >= 2))
    r = np.where(neg, -rng.uniform(0.05, 0.95, (n, 2)) * np.exp(-lengths[:, :2]),
                 rng.uniform(0.1, 10.0, (n, 2)))
    return lengths, np.column_stack((r, 1.0 / (r[:, 0] * r[:, 1])))


def plant_jacobian_error(monkeypatch, rel=1e-4):
    """Make identities.run_suite read every analytic matrix with entry
    (0, 1) off by rel, relative."""
    real = identities.face_eval

    def planted(arcs, du):
        jac = real(arcs, du)
        jac[:, 0, 1] *= 1.0 + rel
        return jac

    monkeypatch.setattr(identities, "face_eval", planted)


def plant_record_error(monkeypatch, edit):
    """Make identities.run_suite read every face-center record rec as
    edit(rec)."""
    real = identities.face_centers
    monkeypatch.setattr(identities, "face_centers", lambda arcs: edit(real(arcs)))
