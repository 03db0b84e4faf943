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

from . import __version__, hexagon, mesh, solver
from .conformal import u_from_f
from .curvature import curvature_and_jacobian, curvature_map
from .errors import HexcurvError
from .lorentz import CausalClass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_mesh(path):
    with open(path, "r", encoding="utf-8") as fh:
        return mesh.parse(fh.read())


def _read_records(path, tag, n):
    """{id: value} from '<tag> <id> <value>' lines, one per component 0..n-1."""
    out, ids = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            try:
                if parts[0] != tag or len(parts) != 3:
                    raise ValueError(raw)
                ids.append(int(parts[1]))
                out[ids[-1]] = float(parts[2])
            except ValueError:
                raise HexcurvError(
                    f"{path}: expected '{tag} <id> <value>' records") from None
    if sorted(ids) != list(range(n)):
        raise HexcurvError(f"{path}: needs one record per component 0..{n - 1}")
    return out


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
        "edges": len(tri.edges),
        "faces": len(tri.faces),
        "family": spec.family,
        "warnings": tri.warnings,
    }
    lines = [f"ok, N={tri.n_boundary}, |E|={len(tri.edges)}, |F|={len(tri.faces)}"]
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


def cmd_hexagon(args):
    lens = [float(x) for x in args.lengths.split(",")]
    if len(lens) != 3:
        raise HexcurvError("--lengths needs three comma-separated values")
    lengths = hexagon.HexLengths(*lens)
    if args.ratios:
        ratios = [float(x) for x in args.ratios.split(",")]
        if len(ratios) != 3:
            raise HexcurvError("--ratios needs three comma-separated values")
        splits = hexagon.splits_from_ratios(lengths, ratios)
    else:
        splits = hexagon.symmetric_splits(lengths)
    g = hexagon.build_hexagon(lengths, splits)
    kv = []
    kv.append(("l_ij", g.lengths.l_ij))
    kv.append(("l_jk", g.lengths.l_jk))
    kv.append(("l_ki", g.lengths.l_ki))
    kv.append(("theta_i", g.angles.theta_i))
    kv.append(("theta_j", g.angles.theta_j))
    kv.append(("theta_k", g.angles.theta_k))
    names = ("ij", "jk", "ki")
    for name, s in zip(names, g.splits):
        kv.append((f"d_{name[0]}{name[1]}", s.d_ab))
        kv.append((f"d_{name[1]}{name[0]}", s.d_ba))
    for bs in g.dual_splits:
        kv.append((f"arc_{bs.s}{bs.t}", bs.theta_st))
        kv.append((f"arc_{bs.t}{bs.s}", bs.theta_ts))
    for label, vec in (
        ("v_i", g.vertices[0]), ("v_j", g.vertices[1]), ("v_k", g.vertices[2]),
        ("polar_i", g.polar[0]), ("polar_j", g.polar[1]), ("polar_k", g.polar[2]),
        ("c_ij", g.edge_centers[0]), ("c_jk", g.edge_centers[1]),
        ("c_ki", g.edge_centers[2]), ("center", g.face_center),
    ):
        kv.append((f"{label}_x1", vec.x1))
        kv.append((f"{label}_x2", vec.x2))
        kv.append((f"{label}_x3", vec.x3))
    for axis, vals in (("h", g.h), ("q", g.q)):
        for corner, val in zip("ijk", vals):
            if val is not None:
                kv.append((f"{axis}_{corner}", val))
    doc = {k: v for k, v in kv}
    doc["center_class"] = g.center_class.value
    doc["domain"] = g.domain
    lines = [f"{k} {_fmt(v)}" for k, v in kv]
    lines.append(f"center_class {g.center_class.value}")
    lines.append(f"domain {g.domain}")
    _emit(args, doc, lines)
    return 0


def cmd_check_identities(args):
    from . import identities

    rng = random.Random(args.seed)
    summary = identities.run_suite(args.family, args.samples, rng)
    lines = []
    ok = True
    doc = {"family": args.family, "samples": args.samples, "seed": args.seed,
           "checks": {}}
    for name, (count, worst, bound) in sorted(summary.items()):
        passed = worst < bound and count > 0
        ok = ok and passed
        doc["checks"][name] = {
            "count": count, "worst": worst, "bound": bound, "pass": passed,
        }
        lines.append(
            f"{name} count={count} worst={_fmt(worst)} bound={_fmt(bound)} "
            f"{'pass' if passed else 'FAIL'}"
        )
    doc["ok"] = ok
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_solve(args):
    tri, spec = _read_mesh(args.mesh)
    target = _read_records(args.target, "K", tri.n_boundary)
    opts = solver.SolveOptions(tol_K=args.tol, max_iter=args.max_iter)
    if args.initial:
        opts.initial = _read_records(args.initial, "f", tri.n_boundary)
    f, rep = solver.solve_prescribed_curvature(spec, tri, target, opts)
    lines = [f"f {i} {_fmt(f[i])}" for i in range(tri.n_boundary)]
    report_lines = [
        f"converged {int(rep.converged)}",
        f"iterations {rep.iterations}",
        f"residual {_fmt(rep.residual)}",
        f"boundary_hits {rep.boundary_hits}",
        f"existence_unproven {int(rep.existence_unproven)}",
        f"quad_constant {_fmt(rep.quad_constant)}",
    ]
    report_lines += [f"trajectory {n} {_fmt(r)}" for n, r in enumerate(rep.trajectory)]
    report_lines += [f"note {note}" for note in rep.notes]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report_lines) + "\n")
    doc = {
        "f": {str(i): f[i] for i in range(tri.n_boundary)},
        "report": {
            "converged": rep.converged,
            "iterations": rep.iterations,
            "residual": rep.residual,
            "boundary_hits": rep.boundary_hits,
            "existence_unproven": rep.existence_unproven,
            "quad_constant": None if math.isnan(rep.quad_constant) else rep.quad_constant,
            "trajectory": rep.trajectory,
            "notes": rep.notes,
        },
    }
    _emit(args, doc, lines)
    return 0


def positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hexcurv",
        description="Discrete conformal structures on surfaces with boundary",
    )
    p.add_argument("--version", action="version", version=f"hexcurv {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="parse and validate a mesh file")
    sp.add_argument("mesh")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("curvature", help="boundary curvatures at given factors")
    sp.add_argument("mesh")
    sp.add_argument("--factors", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("jacobian", help="curvature Jacobian in u coordinates")
    sp.add_argument("mesh")
    sp.add_argument("--factors", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_jacobian)

    sp = sub.add_parser("hexagon", help="full report for one hexagon")
    sp.add_argument("--lengths", required=True)
    sp.add_argument("--ratios")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_hexagon)

    sp = sub.add_parser("check-identities", help="randomized identity suites")
    sp.add_argument("--family", default="A1")
    sp.add_argument("--samples", type=positive_int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check_identities)

    sp = sub.add_parser("solve", help="solve a prescribed-curvature problem")
    sp.add_argument("mesh")
    sp.add_argument("--target", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--initial")
    sp.add_argument("--report")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_solve)
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
