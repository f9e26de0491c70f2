"""Seeded inputs, timed operations and output checks of the three workloads.

An operation (``Op``) is one unit of user-visible work.  ``run`` is the
timed part; ``check`` runs afterwards, outside any timed interval, and
returns ``None`` or the name of the check that failed.  Every input comes
from ``np.random.default_rng([seed, stream, index])``, so a seed fixes the
whole op sequence and the program only sees the generated inputs.

Workloads:

* ``cli_cold``: one fresh ``python -m chebpot.cli <command>`` process per
  op, all 7 commands.  Import and first-use set-up dominate each call.
* ``sweep_remez``: one in-process ``sweep`` over a window of 6 degrees per
  op, on the fixed cases of the solver's test matrix (interval, symmetric
  two-band set, three-band set; unit, real-pole, complex-pair and
  semicircle weights; x* at infinity and in a gap), plus one
  ``szego_dichotomy_report`` for ``exp(-1/|x-c|)``.  Windows of one problem
  share its set, so the potential layer's caches hit.
* ``levelset_potential``: level-set (enset) ops on polynomials solved
  during set-up, interleaved with potential-theory ops on fresh 1-8-band
  sets.  Every op works on a level set or band set new to the process, so
  the caches miss.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import chebpot as cp
from common import HERE, PYTHON, child_env, spawn_wait

WINDOW = 6  # degrees per sweep op
ENSET_POOL = 200  # pre-solved level-set problems; over 2x what a 25 s run uses


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _jit(rng, scale: float) -> float:
    return float(rng.uniform(-scale, scale))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- seeded sets and weights ---------------------------------------------------


def interval(rng):
    return cp.make_set([(-1.0 + _jit(rng, 0.02), 1.0 + _jit(rng, 0.02))])


def two_band(rng, a0=0.6, da=0.004):
    """Symmetric [-1,-a] U [a,1]: cap = sqrt(1-a^2)/2 and W_{2k} = 2 exactly."""
    a = a0 + _jit(rng, da)
    return cp.make_set([(-1.0, -a), (a, 1.0)])


def three_band(rng):
    ends = [-1.0, -0.5, -0.2, 0.3, 0.6, 1.0]
    return cp.make_set([(ends[i] + _jit(rng, 0.01), ends[i + 1] + _jit(rng, 0.01)) for i in (0, 2, 4)])


GAP_POINT = {"two_band": 0.1, "three_band": 0.45}
SETS = {"interval": interval, "two_band": two_band, "three_band": three_band}


def make_weight(kind: str, rng, E):
    if kind == "unit":
        return cp.UnitWeight()
    if kind == "recip_real":  # 1/|x - c|, pole right of the set
        return cp.RecipPolyWeight([-(3.0 + _jit(rng, 0.1)), 1.0])
    if kind == "recip_near":  # 1/|x - c|, pole close to the set
        return cp.RecipPolyWeight([-(1.4 + _jit(rng, 0.05)), 1.0])
    if kind == "recip_gap":  # 1/|x - c|, pole in the first bounded gap
        lo, hi = E.gaps()[0].lo, E.gaps()[0].hi
        return cp.RecipPolyWeight([-(lo + (hi - lo) * (0.3 + _jit(rng, 0.05))), 1.0])
    if kind == "recip_pair":  # 1/|x^2 + q|, complex-conjugate poles
        return cp.RecipPolyWeight([0.25 + _jit(rng, 0.02), 0.0, 1.0])
    if kind == "semicircle":  # sqrt((b-x)(x-a)) on the hull: zero at the outer ends
        return cp.SemicircleWeight([E.hull])
    raise ValueError(kind)


def cell_set(rng, p: int):
    """p bands, one per equal cell of [-1, 1], covering 60-80% of each cell."""
    if p == 2:
        return two_band(rng, 0.5, 0.2)
    if p == 1:
        return interval(rng)
    cells = np.linspace(-1.0, 1.0, p + 1)
    w = cells[1] - cells[0]
    return cp.make_set(
        [(c + (0.15 + _jit(rng, 0.05)) * w, c + (0.85 + _jit(rng, 0.05)) * w) for c in cells[:-1]]
    )


def warm_up() -> float:
    """Build the lazy quadrature tables on a set outside every generated input.

    Returns the seconds of the first equilibrium plus the first near-set
    complex Green evaluation, the first-use cost every fresh process pays.
    """
    Ew = cp.make_set([(-2.0, -1.3), (0.4, 0.9), (1.7, 2.5)])
    t0 = time.perf_counter()
    cp.equilibrium(Ew)
    cp.green(Ew)(complex(0.6, 0.01))
    first_use = time.perf_counter() - t0
    cp.harmonic_measure(Ew, 1.2).mass(0.4, 0.9)
    cp.conjugate_pair_measure(Ew, complex(0.0, 0.5)).total()
    cp.szego_integral(Ew, cp.RecipPolyWeight([-3.0, 1.0]))
    cp.szego_integral(Ew, cp.SemicircleWeight([Ew.hull]))
    sol = cp.solve_extremal(Ew, cp.RecipPolyWeight([-3.0, 1.0]), math.inf, 6)
    cp.verify_alternation(sol, Ew, cp.RecipPolyWeight([-3.0, 1.0]))
    return first_use


# -- sweep_remez -----------------------------------------------------------------

SWEEP_WEIGHTS = ("unit", "recip_real", "recip_pair", "semicircle")
# Highest degree swept per set.  Beyond 24 the two-band solutions fail the
# alternation audit; the interval and three-band sets stop at 30 so that one
# pass over every op takes about 10 s.
SWEEP_NMAX = {"interval": 30, "two_band": 24, "three_band": 30}
# The current solver meets W_{2k} = 2 to 1e-10 on the two-band set only up to n = 18.
TWO_BAND_UNIT_NMAX = 18
DICHOTOMY_NMAX = 40


def _sweep_check(set_kind, wkind, x_star):
    def check(res):
        if not all(r.all_passed for r in res.rows):
            return "bound_flags"
        if wkind == "unit" and math.isinf(x_star):
            if set_kind == "interval" and any(abs(r.W - 2.0) > 1e-8 for r in res.rows):
                return "widom_interval"
            if set_kind == "two_band" and any(abs(r.W - 2.0) > 1e-10 for r in res.rows if r.n % 2 == 0):
                return "widom_two_band"
        return None

    return check


def _dichotomy_check(rep):
    if not rep.divergent:
        return "divergence_flag"
    if rep.ns != tuple(range(1, DICHOTOMY_NMAX + 1)):
        return "degrees"
    if not all(math.isfinite(w) and w > 0 for w in rep.widom):
        return "widom_values"
    return None


class SweepRemez:
    def __init__(self, seed: int):
        self.seed = seed
        self.cycle = -1
        self.queue: list[Op] = []

    def setup(self):
        self._refill()

    def _refill(self):
        """One pass over every (problem, window) with fresh jitter, shuffled."""
        self.cycle += 1
        rng = rng_for(self.seed, 1, self.cycle)
        ops = []
        for set_kind, make in SETS.items():
            E = make(rng)
            stars = [math.inf]
            if set_kind in GAP_POINT:
                stars.append(GAP_POINT[set_kind] + _jit(rng, 0.02))
            for wkind in SWEEP_WEIGHTS:
                w = make_weight(wkind, rng, E)
                for x_star in stars:
                    nmax = SWEEP_NMAX[set_kind]
                    if set_kind == "two_band" and wkind == "unit" and math.isinf(x_star):
                        nmax = TWO_BAND_UNIT_NMAX
                    for lo in range(1, nmax + 1, WINDOW):
                        ns = range(lo, min(lo + WINDOW, nmax + 1))
                        ops.append(
                            Op(
                                "sweep",
                                (lambda E=E, w=w, x=x_star, ns=ns: cp.sweep(E, w, x, ns)),
                                _sweep_check(set_kind, wkind, x_star),
                            )
                        )
        E1 = interval(rng)
        w_exp = cp.exp_inv_abs_weight(0.2 + _jit(rng, 0.02))
        ops.append(
            Op(
                "dichotomy",
                lambda: cp.szego_dichotomy_report(E1, w_exp, math.inf, n_max=DICHOTOMY_NMAX),
                _dichotomy_check,
            )
        )
        order = rng.permutation(len(ops))
        self.queue = [ops[i] for i in order]

    def next_op(self) -> Op:
        if not self.queue:
            self._refill()
        return self.queue.pop()


# -- levelset_potential ----------------------------------------------------------

# Level-set problems.  On the interval every degree up to 24 passes the
# pipeline's own checks for any jitter.  On two and three bands the checks
# fail now and then under jitter from n = 6 on (see the probes below), so
# the multi-band problems use the canonical sets, where n = 6 and 8 pass
# for every weight and normalisation point.
ENSET_INTERVAL = [
    (wkind, n) for wkind in ("unit", "recip_real", "recip_near", "recip_pair") for n in (6, 12, 18, 24)
]
CANONICAL = {
    "two_band": [(-1.0, -0.6), (0.6, 1.0)],
    "three_band": [(-1.0, -0.5), (-0.2, 0.3), (0.6, 1.0)],
}


def _canonical_weight(kind, E):
    if kind == "unit":
        return cp.UnitWeight()
    if kind == "recip_real":
        return cp.RecipPolyWeight([-3.0, 1.0])
    if kind == "recip_gap":
        gap = E.gaps()[0]
        return cp.RecipPolyWeight([-(gap.lo + 0.3 * (gap.hi - gap.lo)), 1.0])
    return cp.RecipPolyWeight([0.25, 0.0, 1.0])


def enset_problems(seed: int, count: int):
    """(E, w, x*, n) for every canonical multi-band case, then jittered
    interval cases up to `count`, in a seeded order."""
    out = []
    for set_kind, bands in CANONICAL.items():
        E = cp.make_set(bands)
        for wkind in ("unit", "recip_real", "recip_gap", "recip_pair"):
            for x_star in (math.inf, GAP_POINT[set_kind]):
                for n in (6, 8):
                    out.append((E, _canonical_weight(wkind, E), x_star, n))
    i = 0
    while len(out) < count:
        wkind, n = ENSET_INTERVAL[i % len(ENSET_INTERVAL)]
        rng = rng_for(seed, 3, i)
        E = interval(rng)
        out.append((E, make_weight(wkind, rng, E), math.inf, n))
        i += 1
    order = rng_for(seed, 4).permutation(len(out))
    return [out[k] for k in order]


def cosh_samples(bs) -> list[float]:
    """Real points off the level set: outside its hull and inside its gaps."""
    lo, hi = bs.merged.hull
    span = hi - lo
    pts = [hi + span * 0.05 * k for k in range(1, 6)] + [lo - span * 0.05 * k for k in range(1, 6)]
    for gap in bs.merged.gaps():
        if gap.bounded:
            mid, q = 0.5 * (gap.lo + gap.hi), 0.25 * (gap.hi - gap.lo)
            pts += [mid - q, mid, mid + q]
    poles = [complex(c) for c in bs.frame.retained]
    return [x for x in pts if all(abs(x - c) > 1e-6 * span for c in poles)]


def run_enset(sol, w):
    frame = cp.build_rational_frame(sol, w)
    bs = cp.compute_band_set(frame)
    bm = cp.verify_band_measures(bs)
    cr = cp.verify_cosh_identity(bs, cosh_samples(bs))
    return frame, bs, bm, cr


def check_enset(res):
    frame, bs, bm, cr = res
    if len(bs.bands) != frame.d_n:
        return "band_count"
    if not bs.report.ok:
        return "containment"
    if not bm.passed:
        return "band_measures"
    if not cr.passed:
        return "cosh_identity"
    return None


def _potential_inputs(rng, p: int):
    E = cell_set(rng, p)
    lo, hi = E.hull
    gaps = [g for g in E.gaps() if g.bounded]
    out_d = 10 ** rng.uniform(-3, 0, 500)
    xr = np.where(rng.random(500) < 0.5, hi + out_d, lo - out_d)
    if gaps:
        g = [gaps[i] for i in rng.integers(0, len(gaps), 500)]
        u = rng.uniform(0.001, 0.999, 500)
        xg = np.array([gi.lo + (gi.hi - gi.lo) * ui for gi, ui in zip(g, u)])
    else:
        d = 10 ** rng.uniform(-3, 0, 500)
        xg = np.where(rng.random(500) < 0.5, hi + d, lo - d)
    bands = [E.bands[i] for i in rng.integers(0, p, 500)]
    xn = np.array([a + (b - a) * u for (a, b), u in zip(bands, rng.random(500))])
    near = xn + 1j * (10 ** rng.uniform(-3, -1.5, 500))
    far = rng.uniform(lo - 1.0, hi + 1.0, 500) + 1j * rng.uniform(0.1, 1.0, 500)
    base = 0.5 * (gaps[0].lo + gaps[0].hi) if gaps else hi + 0.5
    return {
        "E": E,
        "p": p,
        "x_real": np.concatenate([xr, xg]),
        "z_complex": np.concatenate([near, far]),
        "hm_base": base,
        "pole": 3.0 + _jit(rng, 0.1),
        "pair_base": complex(_jit(rng, 0.3), 0.4 + _jit(rng, 0.1)),
        "sym_points": (hi + rng.uniform(0.6, 1.5), lo - rng.uniform(0.6, 1.5)),
    }


def run_potential(inp):
    E = inp["E"]
    eq = cp.equilibrium(E)
    g = cp.green(E)
    g_real = g(inp["x_real"])
    g_complex = g(inp["z_complex"])
    hm = cp.harmonic_measure(E, inp["hm_base"])
    hm_masses = [hm.mass(a, b) for a, b in E.bands]
    s_recip = cp.szego_integral(E, cp.RecipPolyWeight([-inp["pole"], 1.0]))
    s_semi = cp.szego_integral(E, cp.SemicircleWeight([E.hull]))
    pair_total = cp.conjugate_pair_measure(E, inp["pair_base"]).total()
    return eq, g_real, g_complex, hm_masses, s_recip, s_semi, pair_total


def check_potential(inp, res):
    eq, g_real, g_complex, hm_masses, s_recip, s_semi, pair_total = res
    E = inp["E"]
    if inp["p"] == 1:
        a, b = E.bands[0]
        if _rel(eq.capacity, (b - a) / 4) > 1e-13:
            return "capacity_interval"
    if inp["p"] == 2:
        a = E.bands[1][0]
        if _rel(eq.capacity, math.sqrt(1 - a * a) / 2) > 1e-12:
            return "capacity_two_band"
    if abs(float(np.sum(eq.band_masses())) - 1.0) > 1e-12:
        return "equilibrium_mass"
    if not (np.all(np.isfinite(g_real)) and np.all(g_real > 0)):
        return "green_real"
    if not (np.all(np.isfinite(g_complex)) and np.all(g_complex > 0)):
        return "green_complex"
    if abs(sum(hm_masses) - 1.0) > 1e-10:
        return "harmonic_mass"
    y1, y2 = inp["sym_points"]
    g12, g21 = cp.green(E, y2)(y1), cp.green(E, y1)(y2)
    if abs(g12 - g21) > 1e-9 * max(1.0, abs(g12)):
        return "green_symmetry"
    if s_recip.divergent or _rel(math.exp(s_recip.value), cp.szego_recip_poly(E, [inp["pole"]])) > 1e-9:
        return "szego_recip"
    if s_semi.divergent or not math.isfinite(s_semi.value):
        return "szego_semicircle"
    if abs(pair_total - 2.0) > 1e-10:
        return "pair_mass"
    return None


class LevelsetPotential:
    def __init__(self, seed: int):
        self.seed = seed
        self.k = 0
        self.pool: list[tuple] = []
        self.pool_next = 0
        self.pool_wraps = 0
        self.potential_next = 0

    def setup(self):
        """Pre-solve the extremal polynomials the enset ops start from."""
        self.pool = [(cp.solve_extremal(E, w, x, n), w) for E, w, x, n in enset_problems(self.seed, ENSET_POOL)]

    def next_op(self) -> Op:
        self.k += 1
        if self.k % 2:
            if self.pool_next == len(self.pool):
                self.pool_next = 0
                self.pool_wraps += 1
            sol, w = self.pool[self.pool_next]
            self.pool_next += 1
            return Op("enset", lambda: run_enset(sol, w), check_enset)
        i = self.potential_next
        self.potential_next += 1
        inp = _potential_inputs(rng_for(self.seed, 5, i), 1 + i % 8)
        return Op("potential", lambda: run_potential(inp), lambda res: check_potential(inp, res))


# -- cli_cold ------------------------------------------------------------------------

CLI_COMMANDS = ("potential", "solve", "widom", "bounds", "enset", "sweep", "dichotomy")


def _descriptors(seed: int) -> dict:
    rng = rng_for(seed, 6)
    E0, E1, Ed = interval(rng), SETS["two_band"](rng), interval(rng)
    return {
        "d0": {
            "bands": [list(b) for b in E0.bands],
            "weight": {"kind": "recip_poly", "coeffs": [-(3.0 + _jit(rng, 0.1)), 1.0]},
            "x_star": "inf",
            "n": 8,
            "n_range": [1, 8],
        },
        "d1": {
            "bands": [list(b) for b in E1.bands],
            "weight": {"kind": "unit"},
            "x_star": GAP_POINT["two_band"] + _jit(rng, 0.02),
            "n": 10,
            "n_range": [1, 10],
        },
        "dich": {
            "bands": [list(b) for b in Ed.bands],
            "weight": {"kind": "exp_inv_abs", "center": 0.2 + _jit(rng, 0.02), "scale": 1.0},
            "x_star": "inf",
            "n_range": [1, 16],
        },
    }


class CliFailed(RuntimeError):
    reason = "exit_code"


@dataclass
class CliCall:
    command: str
    desc: str
    out_dir: str
    code: int = -1
    wall: float = 0.0
    rss_mb: float = 0.0
    traced: bool = False
    spawn_mono: float = 0.0


class CliCold:
    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.cycle = 0
        self.queue: list[Op] = []
        self.calls: list[CliCall] = []
        self.wrap = False  # route calls through the timing wrapper (traced phase)

    def setup(self):
        self.checker = CliChecker(self)
        self.descs = _descriptors(self.seed)
        os.makedirs(self.work, exist_ok=True)
        self.config = {}
        for key, doc in self.descs.items():
            path = os.path.join(self.work, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.config[key] = path
        # untimed first call, so that bytecode compilation lands in no sample
        warm = CliCall("potential", "d0", os.path.join(self.work, "warm"))
        self._call(warm, self.config["d0"])

    def _argv(self, call: CliCall, config: str) -> list[str]:
        tail = [call.command, "--config", config, "--out", call.out_dir]
        if self.wrap:
            return [PYTHON, os.path.join(HERE, "cli_wrap.py"), call.out_dir + ".trace.json", *tail]
        return [PYTHON, "-m", "chebpot.cli", *tail]

    def _call(self, call: CliCall, config: str) -> CliCall:
        os.makedirs(call.out_dir, exist_ok=True)
        call.traced = self.wrap
        call.spawn_mono = time.monotonic()
        call.code, call.wall, call.rss_mb = spawn_wait(self._argv(call, config), self.env, call.out_dir + ".stderr")
        if call.code != 0:
            raise CliFailed(f"{call.command} exited with {call.code}")
        return call

    def _refill(self):
        desc = ("d0", "d1")[self.cycle % 2]
        base = os.path.join(self.work, f"c{self.cycle:03d}")
        solved = os.path.join(base, "solve", "solve.json")
        ops = []
        for command in CLI_COMMANDS:
            key = "dich" if command == "dichotomy" else desc
            config = solved if command in ("widom", "bounds", "enset") else self.config[key]
            call = CliCall(command, key, os.path.join(base, command))
            self.calls.append(call)
            ops.append(Op(f"cli.{command}", (lambda c=call, cfg=config: self._call(c, cfg)), self.check_call))
        self.cycle += 1
        self.queue = ops[::-1]

    def next_op(self) -> Op:
        if not self.queue:
            self._refill()
        return self.queue.pop()

    def check_call(self, call: CliCall):
        return self.checker.check(call)


class CliChecker:
    """Compares CLI outputs with in-process references and with each other."""

    def __init__(self, wl: CliCold):
        self.wl = wl
        self.refs: dict = {}
        self.first_bytes: dict = {}

    def _problem(self, key):
        from chebpot import cli

        doc = self.wl.descs[key]
        E = cli.parse_bands(doc)
        return doc, E, cli.parse_weight(doc), cli.parse_x_star(doc)

    def reference(self, command, key):
        if (command, key) in self.refs:
            return self.refs[(command, key)]
        doc, E, w, x_star = self._problem(key)
        if command == "potential":
            ref = {"capacity": cp.equilibrium(E).capacity, "pw": cp.green(E).pw_sum}
        elif command == "dichotomy":
            lo, hi = doc["n_range"]
            ref = {"widom": list(cp.szego_dichotomy_report(E, w, x_star, n_max=hi, n_min=lo).widom)}
        elif command == "sweep":
            lo, hi = doc["n_range"]
            ref = {"W": [r.W for r in cp.sweep(E, w, x_star, range(lo, hi + 1)).rows]}
        else:
            sol = cp.solve_extremal(E, w, x_star, doc["n"])
            ref = {"t": sol.t, "W": cp.widom_factor(E, sol)}
            if command == "enset":
                frame, bs, bm, cr = run_enset(sol, w)
                ref["band_sums"] = list(bm.band_sums)
        self.refs[(command, key)] = ref
        return ref

    def check(self, call: CliCall):
        path = os.path.join(call.out_dir, f"{call.command}.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        first = self.first_bytes.setdefault((call.command, call.desc), raw)
        if raw != first:
            return "nondeterministic_json"
        data = json.loads(raw)
        ref = self.reference(call.command, call.desc)
        tol = 1e-13
        if call.command == "potential":
            ok = _rel(data["capacity"], ref["capacity"]) <= tol and abs(data["pw"] - ref["pw"]) <= tol
        elif call.command == "solve":
            ok = _rel(data["solution"]["t"], ref["t"]) <= tol
        elif call.command == "widom":
            ok = _rel(data["W"], ref["W"]) <= tol
        elif call.command == "bounds":
            rep = data["report"]
            flags = [rep[k] for k in rep if k.startswith("pass_") and rep[k] is not None]
            if not all(flags):
                return "bound_flags"
            ok = _rel(rep["W"], ref["W"]) <= tol
        elif call.command == "enset":
            if not (data["containment"]["ok"] and data["measures_ok"] and data["cosh_ok"]):
                return "enset_flags"
            ok = max(abs(a - b) for a, b in zip(data["band_sums"], ref["band_sums"])) <= 1e-12
        elif call.command == "sweep":
            rows = data["rows"]
            for r in rows:
                if not all(r[k] for k in r if k.startswith("pass_") and r[k] is not None):
                    return "bound_flags"
            ok = len(rows) == len(ref["W"]) and all(_rel(r["W"], W) <= tol for r, W in zip(rows, ref["W"]))
        else:
            if not data["divergent"]:
                return "divergence_flag"
            ok = all(_rel(a, b) <= tol for a, b in zip(data["widom"], ref["widom"]))
        return None if ok else "reference_mismatch"

    def repeat_singletons(self, calls):
        """Repeat, untimed, each successful call whose (command, descriptor)
        ran only once; yields (original, failure reason or None)."""
        seen: dict = {}
        for call in calls:
            seen.setdefault((call.command, call.desc), []).append(call)
        for (command, key), group in seen.items():
            if len(group) != 1:
                continue
            first = group[0]
            again = CliCall(command, key, first.out_dir + ".again")
            cfg = (
                os.path.join(os.path.dirname(first.out_dir), "solve", "solve.json")
                if command in ("widom", "bounds", "enset")
                else self.wl.config[key]
            )
            try:
                self.wl._call(again, cfg)
            except CliFailed:
                yield first, "repeat_exit_code"
                continue
            yield first, self.check(again)


# -- capability phase (untimed) ---------------------------------------------------

REACH_N = (20, 30, 40, 50, 60, 80, 100, 150, 200)
REACH_P = (4, 8, 16, 24, 32, 48, 64)
# Each rung is tried on this many jittered sets and passes when most of
# them do: the solver's results sit at the rungs' tolerances (W_20 - 2 and the
# mass error at p = 24 both straddle their limits as the jitter moves), and
# a single draw would make the reach flip from seed to seed.
REACH_DRAWS = 5


def _rung(draws) -> "str | None":
    """None when most draws passed, else the most common failure reason."""
    reasons = [r for r in draws if r is not None]
    if len(reasons) <= len(draws) // 2:
        return None
    return max(set(reasons), key=reasons.count)


def _reach_n_draw(E, n):
    w = cp.UnitWeight()
    try:
        sol = cp.solve_extremal(E, w, math.inf, n)
    except cp.ChebpotError as exc:
        return type(exc).__name__
    if not cp.verify_alternation(sol, E, w).passed:
        return "alternation_audit"
    return None if abs(cp.widom_factor(E, sol) - 2.0) < 1e-10 else "widom_two_band"


def reach_n(seed: int) -> tuple[int, list]:
    """Largest rung n such that it and every lower rung solve on the
    symmetric two-band set with unit weight and x* = inf, pass the
    alternation audit and meet the closed form W_n = 2 within 1e-10."""
    rng = rng_for(seed, 9)
    sets = [two_band(rng) for _ in range(REACH_DRAWS)]
    best, log = 0, []
    for n in REACH_N:
        reason = _rung([_reach_n_draw(E, n) for E in sets])
        log.append([n, reason or "ok"])
        if reason:
            break
        best = n
    return best, log


def _reach_p_draw(rng, p):
    cells = np.linspace(-1.0, 1.0, p + 1)
    w = cells[1] - cells[0]
    E = cp.make_set([(c + (0.2 + _jit(rng, 0.05)) * w, c + (0.8 + _jit(rng, 0.05)) * w) for c in cells[:-1]])
    try:
        err = abs(float(np.sum(cp.equilibrium(E).band_masses())) - 1.0)
    except cp.ChebpotError as exc:
        return type(exc).__name__
    return None if err <= 1e-13 else "band_mass_sum"


def reach_p(seed: int) -> tuple[int, list]:
    """Largest rung p where equilibrium builds on p equal, jittered bands
    and its band masses sum to 1 within 1e-13."""
    rng = rng_for(seed, 10)
    best, log = 0, []
    for p in REACH_P:
        reason = _rung([_reach_p_draw(rng, p) for _ in range(REACH_DRAWS)])
        log.append([p, reason or "ok"])
        if reason is None:
            best = p
    return best, log


E06 = [(-1.0, -0.6), (0.6, 1.0)]
E3 = [(-1.0, -0.5), (-0.2, 0.3), (0.6, 1.0)]
E8 = [  # 8 jittered cell bands
    (-0.9624492611384788, -0.7911441690726597), (-0.7087923848561859, -0.5321126852489138),
    (-0.45427240870546604, -0.2814780956964532), (-0.20740485813863158, -0.03654216996136489),
    (0.026326663797213753, 0.21364063828352103), (0.2882947053292164, 0.47411084114858315),
    (0.541944900954591, 0.7093754117714394), (0.7966182671962653, 0.9722278045242395),
]


def _enset_probe(bands, coeffs, x_star, n):
    def probe():
        E = cp.make_set(bands)
        w = cp.RecipPolyWeight(coeffs) if coeffs else cp.UnitWeight()
        return check_enset(run_enset(cp.solve_extremal(E, w, x_star, n), w))

    return probe


def _green_pole_probe():
    E = cp.make_set(E8)
    g = cp.green(E, -1.2662880136763959)(E.hull[1] + 1.0)
    return None if math.isfinite(g) and g > 0 else "green_value"


# Known defects, kept out of the timed ops (which must not fail) and run
# here so that they stay visible.  The last three are jittered inputs on
# which the timed op mix would otherwise fail now and then.
PROBES = [
    ("E06 1/|x-3| enset n=16", _enset_probe(E06, [-3.0, 1.0], math.inf, 16)),
    ("E06 1/|x-3| enset n=24", _enset_probe(E06, [-3.0, 1.0], math.inf, 24)),
    ("3-band unit x*=0.45 enset n=24", _enset_probe(E3, None, 0.45, 24)),
    ("3-band 1/|x^2+0.25| x*=0.45 enset n=24", _enset_probe(E3, [0.25, 0.0, 1.0], 0.45, 24)),
    (
        "two-band a=0.6029 1/|x-2.973| x*=0.105 enset n=12",
        _enset_probe(
            [(-1.0, -0.602948841897118), (0.602948841897118, 1.0)], [-2.9729499851135475, 1.0], 0.10497288814212447, 12
        ),
    ),
    (
        "3-band unit x*=0.435 enset n=6",
        _enset_probe(
            [(-1.0010426807771782, -0.4933460141188624), (-0.20854487792741488, 0.29651447082690136),
             (0.6058995197421574, 1.0091438044278003)],
            None,
            0.4354068527345654,
            6,
        ),
    ),
    ("8-band Green function, pole 0.3 left of the hull", _green_pole_probe),
]


def run_probes() -> list:
    out = []
    for label, probe in PROBES:
        try:
            reason = probe()
        except cp.ChebpotError as exc:
            reason = type(exc).__name__
        out.append([label, reason or "ok"])
    return out
