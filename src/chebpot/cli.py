"""Batch command-line front end.

Reads a JSON problem descriptor, dispatches one computation, and writes
machine-readable JSON and/or CSV artifacts.  Exit status: 0 on success,
1 on a computation error, 2 on an input error.  All floating-point
values are serialized with 17 significant digits, so identical inputs
produce byte-identical outputs and full-precision round-trips.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bounds as bounds_mod
from . import ensets as ensets_mod
from . import potential as potential_mod
from .errors import ChebpotError, DescriptorError
from .extremal import ExtremalPoly, RemezOptions, solve_extremal
from .realset import FiniteGapSet, make_set
from .weights import (
    AbsPolyWeight,
    ProductWeight,
    RecipPolyWeight,
    SampledWeight,
    SemicircleWeight,
    UnitWeight,
    Weight,
    exp_inv_abs_weight,
)

COMMANDS = ("potential", "solve", "widom", "bounds", "enset", "sweep", "dichotomy")


# -- deterministic JSON with 17-significant-digit floats ---------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps(v, indent + 1)}"
            for k, v in sorted(obj.items())
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {dumps(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v)).strip('"')
    if v is None:
        return ""
    return str(v)


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


# -- descriptor parsing -------------------------------------------------------


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise DescriptorError(path, msg)


def _finite_at(v, path):
    """A JSON number that is finite as a float; NaN, infinities, strings and
    booleans are descriptor errors at `path`."""
    ok = isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    _expect(ok, path, "expected a finite number")
    return float(v)


def _made_at(make, path, *args, **kwargs):
    """A constructor's ValueError is a descriptor error at `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise DescriptorError(path, str(exc)) from exc


def parse_bands(doc) -> FiniteGapSet:
    _expect("bands" in doc, "/bands", "missing required field")
    bands = doc["bands"]
    _expect(isinstance(bands, list) and bands, "/bands", "expected a nonempty list")
    pairs = []
    for i, item in enumerate(bands):
        _expect(
            isinstance(item, list) and len(item) == 2,
            f"/bands/{i}",
            "expected a pair [a, b]",
        )
        a = _finite_at(item[0], f"/bands/{i}/0")
        b = _finite_at(item[1], f"/bands/{i}/1")
        _expect(a < b, f"/bands/{i}", "need a < b")
        pairs.append((a, b))
    try:
        return make_set(pairs)
    except ChebpotError as exc:
        raise DescriptorError("/bands", str(exc)) from exc


def parse_weight(doc, path="/weight") -> Weight:
    spec = doc.get("weight", {"kind": "unit"})
    _expect(isinstance(spec, dict), path, "expected an object")
    kind = spec.get("kind")
    _expect(isinstance(kind, str), f"{path}/kind", "missing weight kind")
    if kind == "unit":
        return UnitWeight()
    if kind in ("abs_poly", "recip_poly"):
        coeffs = spec.get("coeffs")
        _expect(
            isinstance(coeffs, list) and coeffs,
            f"{path}/coeffs",
            "expected nonempty coefficient list (low to high)",
        )
        vals = _list_at(coeffs, f"{path}/coeffs", _finite_at)
        make = AbsPolyWeight if kind == "abs_poly" else RecipPolyWeight
        return _made_at(make, f"{path}/coeffs", vals)
    if kind == "semicircle":
        pairs = spec.get("pairs")
        _expect(isinstance(pairs, list) and pairs, f"{path}/pairs", "expected pair list")
        out = []
        for i, pr in enumerate(pairs):
            _expect(isinstance(pr, list) and len(pr) == 2, f"{path}/pairs/{i}", "expected [a, b]")
            out.append(_list_at(pr, f"{path}/pairs/{i}", _finite_at))
        return _made_at(SemicircleWeight, f"{path}/pairs", out)
    if kind == "sampled":
        grid, values = spec.get("grid"), spec.get("values")
        _expect(isinstance(grid, list) and isinstance(values, list), f"{path}", "need grid and values lists")
        _expect(len(grid) == len(values) and len(grid) >= 2, f"{path}/values", "grid/values length mismatch")
        grid = _list_at(grid, f"{path}/grid", _finite_at)
        values = _list_at(values, f"{path}/values", _finite_at)
        return _made_at(SampledWeight, f"{path}/grid", grid, values)
    if kind == "exp_inv_abs":
        center = _finite_at(spec.get("center", 0.0), f"{path}/center")
        scale = _finite_at(spec.get("scale", 1.0), f"{path}/scale")
        return exp_inv_abs_weight(center, scale)
    if kind == "product":
        factors = spec.get("factors")
        _expect(isinstance(factors, list) and factors, f"{path}/factors", "expected factor list")
        return ProductWeight(
            tuple(parse_weight({"weight": f}, f"{path}/factors/{i}") for i, f in enumerate(factors))
        )
    raise DescriptorError(f"{path}/kind", f"unknown weight kind {kind!r}")


def parse_x_star(doc) -> float:
    v = doc.get("x_star", "inf")
    if v in ("inf", "+inf", "infinity"):
        return math.inf
    if v == "-inf":
        return -math.inf
    return _finite_at(v, "/x_star")


def parse_n(doc) -> int:
    _expect("n" in doc, "/n", "missing required field")
    n = doc["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "/n", "expected an integer >= 1")
    return n


def parse_n_range(doc):
    if "n_range" in doc:
        rng = doc["n_range"]
        _expect(
            isinstance(rng, list) and len(rng) == 2,
            "/n_range",
            "expected [lo, hi]",
        )
        lo, hi = rng
        ok = all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi))
        _expect(ok and 1 <= lo <= hi, "/n_range", "expected integers 1 <= lo <= hi")
        return range(lo, hi + 1)
    if "n" in doc:
        return range(parse_n(doc), parse_n(doc) + 1)
    raise DescriptorError("/n_range", "missing n or n_range")


def parse_options(doc, args) -> RemezOptions:
    opts = doc.get("options", {})
    _expect(isinstance(opts, dict), "/options", "expected an object")
    tol = args.tol if args.tol is not None else opts.get("tol", 1e-11)
    grid = args.grid if args.grid is not None else opts.get("grid")
    _made_at(RemezOptions, "/options/tol", tol=tol)
    return _made_at(RemezOptions, "/options/grid", tol=tol, grid=grid)


# -- solution (de)serialization -----------------------------------------------


def solution_to_json(sol: ExtremalPoly) -> dict:
    """The solution's fields except the set."""
    out = asdict(sol)
    del out["E"]
    return out


def _positive_at(v, path):
    x = _finite_at(v, path)
    _expect(x > 0, path, "expected a positive number")
    return x


def _x_star_at(v, path):
    """A finite number, or the string dumps() writes for an infinity."""
    return float(v) if v in ("inf", "-inf") else _finite_at(v, path)


def _int_at(v, path, lo):
    ok = isinstance(v, int) and not isinstance(v, bool) and v >= lo
    _expect(ok, path, f"expected an integer >= {lo}")
    return v


def _sign_at(v, path):
    _expect(isinstance(v, int) and not isinstance(v, bool) and v in (-1, 1), path, "expected -1 or 1")
    return v


def _list_at(v, path, item):
    _expect(isinstance(v, list), path, "expected a list")
    return tuple(item(x, f"{path}/{i}") for i, x in enumerate(v))


def solution_from_json(E: FiniteGapSet, data: dict) -> ExtremalPoly:
    """Rebuild an embedded solution; a missing or malformed field raises
    DescriptorError with its JSON path."""
    _expect(isinstance(data, dict), "/solution", "expected an object")

    def get(key, parse, *args):
        path = f"/solution/{key}"
        _expect(key in data, path, "missing required field")
        return parse(data[key], path, *args)

    return ExtremalPoly(
        E=E,
        n=get("n", _int_at, 1),
        x_star=get("x_star", _x_star_at),
        center=get("center", _finite_at),
        half=get("half", _positive_at),
        cheb_coeffs=get("cheb_coeffs", _list_at, _finite_at),
        t=get("t", _positive_at),
        alternation=get("alternation", _list_at, _finite_at),
        signs=get("signs", _list_at, _sign_at),
        k_star=get("k_star", _int_at, 0),
        defect=get("defect", _finite_at),
        degree=get("degree", _int_at, 0),
    )


# -- per-command runners -------------------------------------------------------


def _widom_row(r) -> list:
    return [
        r.n,
        r.t,
        r.W,
        r.S,
        r.sharp_lb,
        r.ub,
        r.pass_sharp_lb if r.pass_sharp_lb is not None else r.pass_szego_lb,
        r.pass_ub,
    ]


_SWEEP_HEADER = ["n", "t_n", "W_n", "S", "sharp_lb", "ub", "pass_lb", "pass_ub"]


def run_potential(doc, args):
    E = parse_bands(doc)
    x_star = parse_x_star(doc)
    eq = potential_mod.equilibrium(E)
    gev_inf = potential_mod.green(E, math.inf)
    payload = {
        "bands": [list(b) for b in E.bands],
        "capacity": eq.capacity,
        "robin": eq.robin,
        "Q": list(eq.Q),
        "band_masses": [float(m) for m in eq.band_masses()],
        "critical_points": [
            {"location": c.location, "value": c.value} for c in gev_inf.critical_points
        ],
        "pw": gev_inf.pw_sum,
    }
    rows = [
        ["capacity", eq.capacity],
        ["robin", eq.robin],
        ["pw", gev_inf.pw_sum],
    ]
    if not math.isinf(x_star):
        gev = potential_mod.green(E, x_star)
        payload["x_star"] = x_star
        payload["pw_at_x_star"] = gev.pw_sum
        payload["g_x_star"] = gev_inf(x_star)
        rows.append(["pw_at_x_star", gev.pw_sum])
        rows.append(["g_x_star", gev_inf(x_star)])
    return payload, (["quantity", "value"], rows)


def run_solve(doc, args):
    E = parse_bands(doc)
    w = parse_weight(doc)
    x_star = parse_x_star(doc)
    n = parse_n(doc)
    opts = parse_options(doc, args)
    sol = solve_extremal(E, w, x_star, n, opts)
    payload = {"descriptor": doc, "solution": solution_to_json(sol)}
    rows = [[sol.n, sol.degree, sol.t, sol.defect]]
    return payload, (["n", "degree", "t", "defect"], rows)


def _solution_or_solve(doc, args):
    E = parse_bands(doc)
    w = parse_weight(doc)
    if "solution" in doc:
        return E, w, solution_from_json(E, doc["solution"])
    x_star = parse_x_star(doc)
    n = parse_n(doc)
    return E, w, solve_extremal(E, w, x_star, n, parse_options(doc, args))


def run_widom(doc, args):
    E, w, sol = _solution_or_solve(doc, args)
    W = bounds_mod.widom_factor(E, sol)
    payload = {
        "n": sol.n,
        "x_star": sol.x_star,
        "t": sol.t,
        "W": W,
    }
    return payload, (["n", "t", "W"], [[sol.n, sol.t, W]])


def run_bounds(doc, args):
    E, w, sol = _solution_or_solve(doc, args)
    r = bounds_mod.bound_report(E, w, sol.x_star, sol.n, sol=sol, opts=parse_options(doc, args))
    return {"report": asdict(r)}, (_SWEEP_HEADER, [_widom_row(r)])


def run_enset(doc, args):
    E, w, sol = _solution_or_solve(doc, args)
    frame = ensets_mod.build_rational_frame(sol, w)
    bs = ensets_mod.compute_band_set(frame)
    bm = ensets_mod.verify_band_measures(bs)
    samples = _default_cosh_samples(bs)
    cr = ensets_mod.verify_cosh_identity(bs, samples)
    payload = {
        "n0": frame.n0,
        "r_n": frame.r_n,
        "d_n": frame.d_n,
        "sign": frame.sign,
        "level": bs.level,
        "bands": [list(b) for b in bs.bands],
        "merged": [list(b) for b in bs.merged.bands],
        "containment": {
            "max_ratio": bs.report.max_ratio,
            "level_residual": bs.report.level_residual,
            "ok": bs.report.ok,
        },
        "band_sums": list(bm.band_sums),
        "gap_sums": list(bm.gap_sums),
        "max_band_deviation": bm.max_band_deviation,
        "cosh_max_residual": cr.max_residual,
        "measures_ok": bm.passed,
        "cosh_ok": cr.passed,
    }
    rows = [
        [j + 1, a, b, s]
        for j, ((a, b), s) in enumerate(zip(bs.bands, bm.band_sums))
    ]
    return payload, (["band", "alpha", "beta", "band_sum"], rows)


_COSH_SAMPLES = 20  # points on each side of the hull; at most twice this are checked


def _default_cosh_samples(bs):
    lo, hi = bs.merged.hull
    span = hi - lo
    out = []
    for k in range(1, _COSH_SAMPLES + 1):
        out.append(hi + span * 0.02 * k)
        out.append(lo - span * 0.02 * k)
    for gap in bs.merged.gaps():
        if gap.bounded:
            mid = 0.5 * (gap.lo + gap.hi)
            quarter = 0.25 * (gap.hi - gap.lo)
            out.extend([mid, mid - quarter, mid + quarter])
    x_star = bs.frame.sol.x_star
    if not math.isinf(x_star) and not bs.merged.contains(x_star):
        out.append(x_star)
    poles = [complex(c) for c in bs.frame.retained]

    def usable(z):
        if bs.merged.contains(z):
            return False
        return all(abs(z - c) > 1e-6 * max(1.0, span) for c in poles)

    return sorted(set(z for z in out if usable(z)))[: 2 * _COSH_SAMPLES]


def run_sweep(doc, args):
    E = parse_bands(doc)
    w = parse_weight(doc)
    x_star = parse_x_star(doc)
    sw = bounds_mod.sweep(E, w, x_star, parse_n_range(doc), parse_options(doc, args))
    rows = [_widom_row(r) for r in sw.rows]
    return asdict(sw), (_SWEEP_HEADER, rows)


def run_dichotomy(doc, args):
    E = parse_bands(doc)
    w = parse_weight(doc)
    x_star = parse_x_star(doc)
    rng = parse_n_range(doc)
    rep = bounds_mod.szego_dichotomy_report(
        E, w, x_star, n_max=rng.stop - 1, n_min=rng.start, opts=parse_options(doc, args)
    )
    return asdict(rep), (["n", "W_n"], list(zip(rep.ns, rep.widom)))


_RUNNERS = {
    "potential": run_potential,
    "solve": run_solve,
    "widom": run_widom,
    "bounds": run_bounds,
    "enset": run_enset,
    "sweep": run_sweep,
    "dichotomy": run_dichotomy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebpot",
        description="Weighted Chebyshev/residual polynomials and their bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", required=True, help="path to a JSON problem descriptor")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance override")
        p.add_argument(
            "--grid",
            type=int,
            default=None,
            help="cosine nodes per band for the extremum search; default max(256, 8(n+1))",
        )
        p.add_argument(
            "--format",
            choices=("json", "csv", "both"),
            default="both",
            help="which artifacts to write",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: /: invalid JSON ({exc})", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("error: /: descriptor must be a JSON object", file=sys.stderr)
        return 2
    if "descriptor" in doc and isinstance(doc["descriptor"], dict):
        # output of `solve`: unwrap and keep the embedded solution
        inner = dict(doc["descriptor"])
        if "solution" in doc:
            inner["solution"] = doc["solution"]
        doc = inner

    try:
        payload, (header, rows) = _RUNNERS[args.command](doc, args)
    except DescriptorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChebpotError, ValueError) as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    os.makedirs(args.out, exist_ok=True)
    written = []
    if args.format in ("json", "both"):
        path = os.path.join(args.out, f"{args.command}.json")
        with open(path, "w") as fh:
            fh.write(dumps(payload) + "\n")
        written.append(path)
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, f"{args.command}.csv")
        _write_csv(path, header, rows)
        written.append(path)
    print("wrote " + ", ".join(written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
