"""Command-line entry point.

Subcommands: validate, curvature, jacobian, hexagon, check-identities,
solve.  Every command accepts --json for a single machine-readable
document; numeric text output carries 17 significant digits.  Exit codes:
0 success, 1 domain errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from . import __version__, mesh
from ._kernels import BAD_CENTER, BAD_SPLIT, LIGHT, SPACE
from ._kernels.center import DOMAINS, DUAL_OUTSIDE, INCOHERENT, NO_DOMAIN
from ._kernels.center import face_centers, hexagon_arcs
from .conformal import Weights
from .curvature import curvature_and_jacobian, curvature_map
from .errors import DegenerateHexagon, DualCenterOutside, HexcurvError, NotConverged
from .errors import IncompatibleSplits, InconsistentRatio, UnclassifiableSigns
from .tol import LEN_MAX, TAU_LEN

_SIDES = ("ij", "jk", "ki")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_text(path) -> str:
    """The text of the file at path; one that is not UTF-8 is a
    HexcurvError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise HexcurvError(f"{path}: not UTF-8 text") from None


def _read_mesh(path):
    return mesh.parse(_read_text(path))


def _read_records(path, tag, n):
    """The values of '<tag> <id> <value>' lines, one per component 0..n-1,
    each value finite, as a Weights keyed 0..n-1."""
    ids, values = [], []
    for raw in _read_text(path).split("\n"):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] != tag or len(parts) != 3:
                raise ValueError(raw)
            ids.append(int(parts[1]))
            values.append(float(parts[2]))
        except ValueError:
            raise HexcurvError(
                f"{path}: expected '{tag} <id> <value>' records") from None
    if sorted(ids) != list(range(n)):
        raise HexcurvError(f"{path}: needs one record per component 0..{n - 1}")
    values = np.array(values)
    bad = ~np.isfinite(values)
    if bad.any():
        raise HexcurvError(f"{path}: value of '{tag} {ids[np.argmax(bad)]}' is not finite")
    return Weights(ids, values)


def _emit(args, doc, lines):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_validate(args):
    tri, spec = _read_mesh(args.mesh)
    doc = {
        "ok": True,
        "n_boundary": tri.n_boundary,
        "edges": len(tri.edge_arrays[0]),
        "faces": len(tri.face_ids),
        "family": spec.family,
        "warnings": tri.warnings,
    }
    lines = [f"ok, N={tri.n_boundary}, |E|={doc['edges']}, |F|={doc['faces']}"]
    lines += [f"warning: {w}" for w in tri.warnings]
    _emit(args, doc, lines)
    return 0


def cmd_curvature(args):
    tri, spec = _read_mesh(args.mesh)
    f = _read_records(args.factors, "f", tri.n_boundary)
    K = curvature_map(spec, tri, f)
    doc = {"K": {str(i): K[i] for i in range(tri.n_boundary)}}
    _emit(args, doc, [f"K {i} {_fmt(K[i])}" for i in range(tri.n_boundary)])
    return 0


def cmd_jacobian(args):
    tri, spec = _read_mesh(args.mesh)
    f = _read_records(args.factors, "f", tri.n_boundary)
    lam = curvature_and_jacobian(spec, tri, f)[1].tocoo()
    order = np.lexsort((lam.col, lam.row))
    entries = [(i, j, v) for i, j, v in zip(lam.row[order].tolist(),
                                            lam.col[order].tolist(),
                                            lam.data[order].tolist()) if v != 0.0]
    doc = {"entries": [[i, j, v] for i, j, v in entries]}
    _emit(args, doc, [f"L {i} {j} {_fmt(v)}" for i, j, v in entries])
    return 0


def _three_numbers(text, option):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 3 or not all(map(math.isfinite, vals)):
        raise HexcurvError(f"{option} needs three comma-separated finite numbers")
    return vals


def _hexagon_input(args):
    """Side lengths and partial ratios of the hexagon command, checked in
    floats: lengths in (TAU_LEN, LEN_MAX], a cyclic ratio product of 1
    within 1e-9, and a split of each side whose center lies on its
    geodesic, |rho sinh l| < |1 + rho cosh l|.  The third ratio is derived
    from the first two."""
    lengths = _three_numbers(args.lengths, "--lengths")
    for name, l in zip(_SIDES, lengths):
        if not TAU_LEN < l <= LEN_MAX:
            raise DegenerateHexagon(
                f"l_{name}={l} must lie in ({TAU_LEN}, {LEN_MAX}]")
    if not args.ratios:
        return lengths, [1.0, 1.0, 1.0]
    ratios = _three_numbers(args.ratios, "--ratios")
    prod = ratios[0] * ratios[1] * ratios[2]
    if not abs(prod - 1.0) <= 1e-9:
        raise IncompatibleSplits(
            f"ratio cyclic product {prod} != 1; splits would be incompatible")
    ratios[2] = 1.0 / (ratios[0] * ratios[1])
    for name, l, rho in zip(_SIDES, lengths, ratios):
        num, den = rho * math.sinh(l), 1.0 + rho * math.cosh(l)
        if not abs(num) < abs(den):
            raise InconsistentRatio(
                f"|rho sinh l| >= |1 + rho cosh l| on side {name} (l={l}, "
                f"rho={rho}): no split with its center on the geodesic")
    return lengths, ratios


def cmd_hexagon(args):
    lengths, ratios = _hexagon_input(args)
    arcs = hexagon_arcs([lengths], [ratios])
    rec = face_centers(arcs)
    status, branch, domain = int(rec.status[0]), int(rec.branch[0]), int(rec.domain[0])
    if status == BAD_CENTER:
        raise IncompatibleSplits("edge perpendiculars do not meet in a line")
    if status == BAD_SPLIT or (domain == NO_DOMAIN and branch != LIGHT):
        raise InconsistentRatio("a side has no split with its center on the geodesic")
    if domain == DUAL_OUTSIDE:
        raise DualCenterOutside("a dual center is not inside the hyperbolic plane")
    if domain == INCOHERENT:
        raise UnclassifiableSigns("the signs of h and q match no position domain")
    d, dual = rec.d[0].tolist(), rec.dual[0].tolist()
    kv = [(f"l_{name}", l) for name, l in zip(_SIDES, lengths)]
    kv += [(f"theta_{c}", t) for c, t in zip("ijk", arcs.theta[0].tolist())]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        kv.append((f"d_{'ijk'[a]}{'ijk'[b]}", d[a][b]))
        kv.append((f"d_{'ijk'[b]}{'ijk'[a]}", d[b][a]))
    for s, t in ((1, 2), (2, 0), (0, 1)):
        kv.append((f"arc_{s}{t}", dual[s][t]))
        kv.append((f"arc_{t}{s}", dual[t][s]))
    vectors = [(f"v_{c}", x) for c, x in zip("ijk", rec.v[0])]
    vectors += [(f"polar_{c}", x) for c, x in zip("ijk", rec.p[0])]
    vectors += [(f"c_{name}", x) for name, x in zip(_SIDES, rec.edge_centers[0])]
    vectors.append(("center", rec.center[0]))
    for label, vec in vectors:
        kv += [(f"{label}_x{n}", x) for n, x in enumerate(vec.tolist(), 1)]
    if domain >= 0:
        kv += [(f"h_{c}", x) for c, x in zip("ijk", rec.h[0].tolist())]
        kv += [(f"q_{c}", x) for c, x in zip("ijk", rec.q[0].tolist())]
    center_class = ("time-like", "space-like", "light-like")[branch]
    domain = "LightCone" if domain < 0 else DOMAINS[domain][1 + (branch == SPACE)]
    _emit(args, dict(kv, center_class=center_class, domain=domain),
          [f"{k} {_fmt(v)}" for k, v in kv] + [f"center_class {center_class}", f"domain {domain}"])
    return 0


def cmd_check_identities(args):
    from . import identities

    rng = random.Random(args.seed)
    checks, branches = identities.run_suite(args.family, args.samples, rng)
    lines, ok = [], True
    doc = {"family": args.family, "samples": args.samples, "seed": args.seed,
           "checks": {}, "branches": branches}
    for name, (count, worst, bound) in sorted(checks.items()):
        passed = worst < bound and count > 0
        ok = ok and passed
        doc["checks"][name] = {
            "count": count, "worst": worst, "bound": bound, "pass": passed,
        }
        lines.append(
            f"{name} count={count} worst={_fmt(worst)} bound={_fmt(bound)} "
            f"{'pass' if passed else 'FAIL'}"
        )
    lines.append("branches " + " ".join(f"{name}={n}" for name, n in branches.items()))
    doc["ok"] = ok
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_solve(args):
    from . import solver

    tri, spec = _read_mesh(args.mesh)
    target = _read_records(args.target, "K", tri.n_boundary)
    opts = solver.SolveOptions(tol_K=args.tol, max_iter=args.max_iter)
    if args.initial:
        opts.initial = _read_records(args.initial, "f", tri.n_boundary)
    try:
        f, rep = solver.solve_prescribed_curvature(spec, tri, target, opts)
    except NotConverged as exc:
        # the report and the JSON document of the last accepted iterate;
        # main prints the one error line
        _solve_output(args, exc.factors, exc.report)
        raise
    _solve_output(args, f, rep)
    return 0


def _solve_output(args, f, rep):
    """Write the --report file and print the factors; of a solve that did
    not converge only the --json document is printed."""
    report = {name: getattr(rep, name) for name in (
        "converged", "iterations", "chord_steps", "residual", "boundary_hits",
        "existence_unproven", "quad_constant")}
    report_lines = [f"{k} {_fmt(v) if isinstance(v, float) else int(v)}"
                    for k, v in report.items()]
    report_lines += [f"trajectory {n} {_fmt(r)}" for n, r in enumerate(rep.trajectory)]
    report_lines += [f"note {note}" for note in rep.notes]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report_lines) + "\n")
    if math.isnan(rep.quad_constant):
        report["quad_constant"] = None
    f = f.data.tolist()
    doc = {"f": {str(i): x for i, x in enumerate(f)},
           "report": {**report, "trajectory": rep.trajectory, "notes": rep.notes}}
    if args.json or rep.converged:
        _emit(args, doc, [f"f {i} {_fmt(x)}" for i, x in enumerate(f)])


def positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def positive_float(text: str) -> float:
    x = float(text)
    if not (x > 0.0 and math.isfinite(x)):
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return x


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hexcurv",
        description="Discrete conformal structures on surfaces with boundary",
    )
    p.add_argument("--version", action="version", version=f"hexcurv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    mesh_file, factors = ("mesh", {}), ("--factors", {"required": True})
    for name, func, help_text, arguments in (
        ("validate", cmd_validate, "parse and validate a mesh file", [mesh_file]),
        ("curvature", cmd_curvature, "boundary curvatures at given factors",
         [mesh_file, factors]),
        ("jacobian", cmd_jacobian, "curvature Jacobian in u coordinates", [mesh_file, factors]),
        ("hexagon", cmd_hexagon, "full report for one hexagon",
         [("--lengths", {"required": True}), ("--ratios", {})]),
        ("check-identities", cmd_check_identities, "randomized identity suites",
         [("--family", {"default": "A1"}),
          ("--samples", {"type": positive_int, "default": 200}),
          ("--seed", {"type": int, "default": 0})]),
        ("solve", cmd_solve, "solve a prescribed-curvature problem",
         [mesh_file, ("--target", {"required": True}),
          ("--tol", {"type": positive_float, "default": 1e-10}),
          ("--max-iter", {"type": positive_int, "default": 100}),
          ("--initial", {}), ("--report", {})]),
    ):
        sp = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            sp.add_argument(flag, **options)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HexcurvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
