"""Independent oracles used to freeze expected values.

These deliberately avoid the library's quadrature and exchange machinery:
LP minimax on a fixed grid, QUADPACK integration with algebraic endpoint
weights, and textbook closed forms.
"""

import cmath
import math

import numpy as np
from numpy.polynomial import chebyshev as C
from scipy import integrate
from scipy.optimize import linprog


def lp_minimax(E, w, n, x_star=math.inf, grid_per_band=2000):
    """Grid-restricted minimax via linear programming (lower bound on t_n)."""
    from chebpot.realset import sample_grid

    xs = sample_grid(E, grid_per_band)
    ws = np.asarray(w(xs), dtype=float)
    keep = ws > 0
    xs, ws = xs[keep], ws[keep]
    lo, hi = E.hull
    c0, hf = 0.5 * (lo + hi), 0.5 * (hi - lo)
    V = C.chebvander((xs - c0) / hf, n)
    if math.isinf(x_star):
        kappa = hf**n * 2.0 ** (1 - n)
        A1 = np.hstack([ws[:, None] * V[:, :n], -np.ones((len(xs), 1))])
        A2 = np.hstack([-ws[:, None] * V[:, :n], -np.ones((len(xs), 1))])
        b1 = -ws * kappa * V[:, n]
        b2 = ws * kappa * V[:, n]
        cvec = np.zeros(n + 1)
        cvec[-1] = 1.0
        res = linprog(
            cvec,
            A_ub=np.vstack([A1, A2]),
            b_ub=np.concatenate([b1, b2]),
            bounds=[(None, None)] * (n + 1),
            method="highs",
        )
    else:
        y_star = (x_star - c0) / hf
        A1 = np.hstack([ws[:, None] * V, -np.ones((len(xs), 1))])
        A2 = np.hstack([-ws[:, None] * V, -np.ones((len(xs), 1))])
        b = np.zeros(2 * len(xs))
        Aeq = np.hstack([C.chebvander(np.array([y_star]), n), np.zeros((1, 1))])
        cvec = np.zeros(n + 2)
        cvec[-1] = 1.0
        res = linprog(
            cvec,
            A_ub=np.vstack([A1, A2]),
            b_ub=b,
            A_eq=Aeq,
            b_eq=np.array([1.0]),
            bounds=[(None, None)] * (n + 2),
            method="highs",
        )
    assert res.status == 0, res.message
    return res.fun


def quad_band_sqrt(f_smooth, a, b):
    """int_a^b f_smooth(t) ((t-a)(b-t))^(-1/2) dt via QUADPACK's QAWS."""
    val, _ = integrate.quad(f_smooth, a, b, weight="alg", wvar=(-0.5, -0.5), limit=200)
    return val


def green_interval(z, a=-1.0, b=1.0):
    """Green function of the complement of [a, b], pole at infinity."""
    u = (2 * complex(z) - (a + b)) / (b - a)
    w = u + cmath.sqrt(u * u - 1)
    mag = abs(w)
    return math.log(max(mag, 1.0 / mag))


def cap_two_symmetric(alpha):
    """Capacity of [-1, -alpha] union [alpha, 1]."""
    return math.sqrt(1 - alpha * alpha) / 2


def t_monic_chebyshev(n):
    return 2.0 ** (1 - n)


def t_residual_interval(n, x_star):
    """Minimal norm for unit weight on [-1, 1], P(x_star) = 1, |x_star| > 1."""
    return 1.0 / math.cosh(n * math.acosh(abs(x_star)))


def equilibrium_q(bands):
    """Monic Q of the equilibrium density |Q|/(pi sqrt|R|), from vanishing gap
    periods of Q/sqrt(R) computed with QAWS."""
    ends = [e for ab in bands for e in ab]
    p = len(bands)
    A = np.zeros((p - 1, p))
    for k in range(p - 1):
        lo, hi = bands[k][1], bands[k + 1][0]
        others = np.array([e for e in ends if e not in (lo, hi)])
        for i in range(p):
            A[k, i] = quad_band_sqrt(lambda t: t**i / math.sqrt(np.prod(np.abs(t - others))), lo, hi)
    q = np.linalg.solve(A[:, :-1], -A[:, -1]) if p > 1 else np.zeros(0)
    return np.append(q, 1.0)


def harmonic_log_integral(bands, log_w, x_star=math.inf, singular=()):
    """int log_w d omega(., x*) over the bands, by QUADPACK in theta
    (t = m - r cos theta) with the points `singular` as breakpoints.

    log_w(t, off) gets, besides t, the differences off = {a: t - a, b: t - b}
    to the ends of t's band in closed form, 2r sin^2 and -2r cos^2 of
    theta/2, so that weights vanishing at a band end stay accurate there.

    For finite x* the measure is carried over from the equilibrium measure of
    the image set under s = 1/(t - x*).  Each band's own endpoint factors
    cancel against dt/dtheta = r sin(theta) in closed form.
    """
    finite = not math.isinf(x_star)
    image = (lambda t: 1.0 / (t - x_star)) if finite else (lambda t: t)
    img = sorted(tuple(sorted((image(a), image(b)))) for a, b in bands)
    q = equilibrium_q(img)
    img_ends = [e for ab in img for e in ab]

    total = 0.0
    for a, b in bands:
        m, r = 0.5 * (a + b), 0.5 * (b - a)
        others = np.array([e for e in img_ends if e not in (image(a), image(b))])
        scale = math.sqrt(abs(a - x_star) * abs(b - x_star)) if finite else 1.0

        def integrand(th):
            t = m - r * math.cos(th)
            s = image(t)
            dens = abs(np.polynomial.polynomial.polyval(s, q)) / (math.pi * math.sqrt(np.prod(np.abs(s - others))))
            if finite:
                dens *= scale / abs(t - x_star)
            off = {a: 2 * r * math.sin(0.5 * th) ** 2, b: -2 * r * math.cos(0.5 * th) ** 2}
            return log_w(t, off) * dens

        pts = sorted(math.acos((m - c) / r) for c in singular if a < c < b)
        val, _ = integrate.quad(integrand, 0.0, math.pi, points=pts or None, limit=400, epsabs=1e-14, epsrel=1e-13)
        total += val
    return total


def pole_shift_green(E, z, x0):
    """g_E(z, x0) at real z, x0 off E by the pole-shift identity

        g_E(z, x0) = g_E(z, inf) - log|z - x0| + int log|t - x0| d omega_E(t, z),

    integrated with the nodes and weights of the harmonic measure based at z.
    The library evaluates g_E(., x0) on E inverted about x0, so this route
    through E inverted about z checks it independently.
    """
    from chebpot.potential import green, harmonic_measure

    t, w = harmonic_measure(E, z).nodes_weights()
    return green(E)(z) - math.log(abs(z - x0)) + float(np.dot(w, np.log(np.abs(t - x0))))
