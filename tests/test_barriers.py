"""Barrier calculus: closed forms, conjugacy, local norms."""

from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import ddsolve as dd
from ddsolve.barriers import CONJUGATE, PRIMAL
from oracles import (
    batch_min_margin,
    reference_grad_hess,
    reference_interior,
    reference_margins,
    reference_step_to_boundary,
)

RNG_SEED = 20240817

ATOM_CASES = {
    "halfline_lower": dd.halfline_lower(0, lower=0.7, offset=-0.3),
    "halfline_upper": dd.halfline_upper(0, upper=2.0, offset=0.4),
    "box": dd.box(0, -1.0, 2.5, offset=0.8),
    "soc": dd.soc([0, 1, 2], [0.1, -0.2, 0.3]),
}


def _one_atom(atom):
    """The atom alone, as a barrier on coordinates 0..dim-1."""
    return dd.DomainBarrier([replace(atom, coords=tuple(range(atom.dim)))], atom.dim)


def atom_eval(atom, u, side=PRIMAL, order=0):
    """Value, gradient or dense Hessian (order 0, 1, 2) of the one-atom
    barrier at ``u``, in atom-local coordinates."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    barrier = _one_atom(atom)
    if order == 0:
        return barrier.value(u, side)
    return barrier.grad(u, side) if order == 1 else barrier.hess(u, side).dense()


def atom_margin(atom, u, side=PRIMAL):
    return float(_one_atom(atom).margins(np.atleast_1d(np.asarray(u, dtype=float)), side)[0])


def atom_support(atom, y):
    return _one_atom(atom).support(np.atleast_1d(np.asarray(y, dtype=float)))


def sample_interior(atom, rng, scale=5.0):
    """Random strictly interior point of the atom set."""
    d = atom.offset_vec
    if atom.kind == "halfline_lower":
        return np.array([atom.lower - d[0] + rng.uniform(0.05, scale)])
    if atom.kind == "halfline_upper":
        return np.array([atom.upper - d[0] - rng.uniform(0.05, scale)])
    if atom.kind == "box":
        return np.array([atom.lower - d[0]
                         + rng.uniform(0.02, 0.98) * (atom.upper - atom.lower)])
    tail = rng.normal(size=atom.dim - 1)
    head = np.linalg.norm(tail) + rng.uniform(0.05, scale)
    return np.concatenate([[head], tail]) - d


def sample_dual_interior(atom, rng, scale=4.0):
    """Random strictly interior point of the atom's dual cone factor."""
    if atom.kind == "halfline_lower":
        return np.array([-rng.uniform(0.05, scale)])
    if atom.kind == "halfline_upper":
        return np.array([rng.uniform(0.05, scale)])
    if atom.kind == "box":
        return np.array([rng.normal() * scale])
    tail = rng.normal(size=atom.dim - 1)
    head = -(np.linalg.norm(tail) + rng.uniform(0.05, scale))
    return np.concatenate([[head], tail])


def sample_member(atom, rng):
    """Random point of the closed atom set (boundary included sometimes)."""
    z = sample_interior(atom, rng)
    if rng.uniform() < 0.3:
        # push to the boundary along the inward slack
        margin = atom_margin(atom, z, PRIMAL)
        if atom.kind == "halfline_lower":
            z = z - margin
        elif atom.kind == "halfline_upper":
            z = z + margin
        elif atom.kind == "soc":
            z = z.copy()
            z[0] -= margin
    return z


# Per-point property checks, each returning its failure messages: the unit
# tests below assert the list is empty, and acceptance criterion 1 reports it.

def round_trip_failures(atom, z):
    """conj_grad(grad(z)) = z."""
    y = atom_eval(atom, z, PRIMAL, 1)
    err = np.max(np.abs(atom_eval(atom, y, CONJUGATE, 1) - z))
    return [] if err <= 1e-10 else [f"round trip {err:.2e}"]


def fenchel_young_failures(atom, z):
    """Fenchel-Young equality at the gradient: Phi(z) + Phi*(y) = <y, z>."""
    y = atom_eval(atom, z, PRIMAL, 1)
    gap = atom_eval(atom, z, PRIMAL, 0) + atom_eval(atom, y, CONJUGATE, 0) - float(y @ z)
    return [] if abs(gap) <= 1e-10 else [f"Fenchel-Young {gap:.2e}"]


def theta_failures(atom, y, z):
    """<y, z - conj_grad(y)> <= theta for y in the dual interior, z in the set."""
    value = float(y @ (z - atom_eval(atom, y, CONJUGATE, 1)))
    return [] if value <= atom.theta + 1e-10 else [f"theta property: {value:.6e} > theta"]


def monotone_gradient_failures(atom, a, b, side):
    """<grad(b) - grad(a), b - a> >= r^2/(1+r) with r = ||b - a|| in the
    Hessian norm at a; the standard self-concordance bound."""
    ga, gb = atom_eval(atom, a, side, 1), atom_eval(atom, b, side, 1)
    H = atom_eval(atom, a, side, 2)
    r = float(np.sqrt((b - a) @ H @ (b - a)))
    ok = float((gb - ga) @ (b - a)) >= r * r / (1.0 + r) - 1e-10
    return [] if ok else [f"{side} monotone-gradient inequality violated"]


def finite_difference_failures(atom, z, side):
    """Gradient and Hessian against central differences of the value and
    the gradient, coordinate by coordinate."""
    g = atom_eval(atom, z, side, 1)
    H = atom_eval(atom, z, side, 2)
    failures = []
    for i in range(atom.dim):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd_g = (atom_eval(atom, zp, side, 0) - atom_eval(atom, zm, side, 0)) / (2 * h)
        if not abs(fd_g - g[i]) <= 1e-6 * (1.0 + abs(g[i])):
            failures.append(f"{side} gradient vs finite differences, coordinate {i}")
        fd_H = (atom_eval(atom, zp, side, 1) - atom_eval(atom, zm, side, 1)) / (2 * h)
        if not np.max(np.abs(fd_H - H[:, i])) <= 1e-6 * (1.0 + np.max(np.abs(H))):
            failures.append(f"{side} Hessian vs finite differences, coordinate {i}")
    return failures


@pytest.mark.parametrize("kind", sorted(ATOM_CASES))
def test_conjugate_round_trip(kind):
    atom = ATOM_CASES[kind]
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        assert round_trip_failures(atom, sample_interior(atom, rng)) == []


@pytest.mark.parametrize("kind", sorted(ATOM_CASES))
def test_fenchel_young_equality_at_gradient(kind):
    atom = ATOM_CASES[kind]
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        assert fenchel_young_failures(atom, sample_interior(atom, rng)) == []


@pytest.mark.parametrize("kind", sorted(ATOM_CASES))
def test_theta_property(kind):
    atom = ATOM_CASES[kind]
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(100):
        y = sample_dual_interior(atom, rng)
        assert theta_failures(atom, y, sample_member(atom, rng)) == []


@pytest.mark.parametrize("kind", sorted(ATOM_CASES))
@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_monotone_gradient_inequality(kind, side):
    atom = ATOM_CASES[kind]
    rng = np.random.default_rng(RNG_SEED + 3)
    sampler = sample_interior if side == PRIMAL else sample_dual_interior
    for _ in range(100):
        a, b = sampler(atom, rng), sampler(atom, rng)
        assert monotone_gradient_failures(atom, a, b, side) == []


@pytest.mark.parametrize("kind", sorted(ATOM_CASES))
@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_derivatives_match_finite_differences(kind, side):
    atom = ATOM_CASES[kind]
    rng = np.random.default_rng(RNG_SEED + 4)
    sampler = sample_interior if side == PRIMAL else sample_dual_interior
    for _ in range(25):
        assert finite_difference_failures(atom, sampler(atom, rng, scale=2.0), side) == []


@pytest.mark.parametrize("atom", [ATOM_CASES["box"], dd.box(0, 0.0, 1.0)],
                         ids=["shifted", "unit"])
def test_box_conjugate_against_extended_precision(atom):
    # gradient box_lo + s and Hessian 1/(1/s^2 + 1/(width-s)^2), with s the
    # maximizer of y*s + ln s + ln(width - s), against a 60-digit reference
    # for |t| = |y * width| from 1e2 to 1e12 on both signs of y
    width = atom.upper - atom.lower
    box_lo = atom.lower - atom.offset[0]
    for k in range(2, 13):
        for sign in (1.0, -1.0):
            y = sign * 10.0**k / width
            with localcontext() as ctx:
                ctx.prec = 60
                w, t = Decimal(width), Decimal(y) * Decimal(width)
                s = 2 * w / (2 - t + (t * t + 4).sqrt())
                grad = float(Decimal(box_lo) + s)
                hess = float(1 / (1 / s**2 + 1 / (w - s) ** 2))
            assert atom_eval(atom, [y], CONJUGATE, 1)[0] == pytest.approx(grad, rel=1e-14)
            assert atom_eval(atom, [y], CONJUGATE, 2)[0, 0] == pytest.approx(hess, rel=1e-14)


def test_halfline_worked_values():
    atom = dd.halfline_lower(0, lower=0.0)
    assert atom_eval(atom, [1.0], PRIMAL, 0) == pytest.approx(0.0, abs=1e-15)
    assert atom_eval(atom, [1.0], PRIMAL, 1)[0] == pytest.approx(-1.0)
    # Fenchel equality at the gradient point: Phi(1) + Phi*(-1) = <-1, 1>
    assert atom_eval(atom, [-1.0], CONJUGATE, 0) == pytest.approx(-1.0)


def test_soc_worked_values():
    atom = dd.soc([0, 1, 2])
    assert atom_eval(atom, [2.0, 0.0, 0.0], PRIMAL, 0) == pytest.approx(-np.log(4.0))
    grad = atom_eval(atom, [2.0, 0.0, 0.0], PRIMAL, 1)
    assert np.allclose(grad, [-1.0, 0.0, 0.0])


def test_support_worked_values():
    lower = dd.halfline_lower(0, lower=0.0)
    assert atom_support(lower, [-1.0]) == pytest.approx(0.0)
    assert np.isinf(atom_support(lower, [1.0]))
    b = dd.box(0, 0.0, 1.0)
    assert atom_support(b, [-1.0]) == pytest.approx(0.0)
    assert atom_support(b, [1.0]) == pytest.approx(1.0)
    cone = dd.soc([0, 1], [0.0, 0.0])
    assert atom_support(cone, [-1.0, 0.0]) == pytest.approx(0.0)
    assert np.isinf(atom_support(cone, [1.0, 0.0]))


def test_interior_margin_worked_values():
    lower = dd.halfline_lower(0, lower=0.0)
    assert atom_margin(lower, [0.5], PRIMAL) == pytest.approx(0.5)
    cone = dd.soc([0, 1, 2])
    assert atom_margin(cone, [1.0, 1.0, 0.0], PRIMAL) == pytest.approx(0.0)
    b = dd.box(0, 0.0, 1.0)
    assert np.isinf(atom_margin(b, [123.0], CONJUGATE))


@pytest.mark.parametrize("build", [
    lambda: dd.box(0, 0.0, np.inf),
    lambda: dd.box(0, np.nan, 1.0),
    lambda: dd.halfline_lower(0, lower=-np.inf),
    lambda: dd.halfline_upper(0, upper=np.nan),
    lambda: dd.halfline_lower(0, lower=0.0, offset=np.inf),
    lambda: dd.soc([0, 1], [0.0, np.nan]),
], ids=["box-upper-inf", "box-lower-nan", "lower-inf", "upper-nan", "offset-inf",
        "soc-offset-nan"])
def test_non_finite_atom_data_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


@pytest.mark.parametrize("kind,coords,bounds", [
    ("halfline_lower", (0,), dict(lower=0.0, upper=1.0)),
    ("halfline_lower", (0,), dict(upper=1.0)),
    ("halfline_upper", (0,), dict()),
    ("halfline_upper", (0,), dict(lower=0.0, upper=1.0)),
    ("box", (0,), dict(lower=0.0)),
    ("box", (0,), dict(upper=1.0)),
    ("soc", (0, 1), dict(lower=0.0)),
], ids=["lower-with-upper", "lower-without-lower", "upper-without-bound",
        "upper-with-lower", "box-without-upper", "box-without-lower", "soc-with-bound"])
def test_atom_takes_exactly_its_kinds_bounds(kind, coords, bounds):
    with pytest.raises(ValueError, match=f"{kind} atom takes bounds"):
        dd.BarrierAtom(kind, coords, (0.0,) * len(coords), **bounds)


@pytest.mark.parametrize("kind,coords,offset,bounds,match", [
    ("ellipse", (0,), (0.0,), dict(), "unknown atom kind"),
    ("box", (0,), (0.0, 0.0), dict(lower=0.0, upper=1.0), "offset length"),
    ("soc", (0,), (0.0,), dict(), "at least 2 coordinates"),
    ("halfline_lower", (0, 1), (0.0, 0.0), dict(lower=0.0), "exactly one coordinate"),
    ("box", (0,), (0.0,), dict(lower=1.0, upper=1.0), "lower < upper"),
    ("box", (0,), (0.0,), dict(lower=2.0, upper=1.0), "lower < upper"),
], ids=["unknown-kind", "offset-length", "soc-one-coordinate", "halfline-two-coordinates",
        "box-empty", "box-reversed"])
def test_atom_shape_rejected(kind, coords, offset, bounds, match):
    with pytest.raises(ValueError, match=match):
        dd.BarrierAtom(kind, coords, offset, **bounds)


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_infinite_cone_head_raises(side):
    # head - t = inf passes the cone's slack test; only the finiteness
    # check rejects the point
    barrier = dd.DomainBarrier([dd.soc([0, 1])], 2)
    z = np.array([np.inf, 0.0]) if side == PRIMAL else np.array([-np.inf, 0.0])
    assert barrier.min_margin(z, side) == np.inf
    assert not barrier.interior(z, side)
    for evaluate in (barrier.grad_hess, barrier.value):
        with pytest.raises(dd.DomainViolation, match="non-finite"):
            evaluate(z, side)


def test_domain_violation_raised():
    atom = dd.halfline_lower(0, lower=0.0)
    with pytest.raises(dd.DomainViolation):
        atom_eval(atom, [-0.5], PRIMAL, 0)
    with pytest.raises(dd.DomainViolation):
        atom_eval(atom, [0.5], CONJUGATE, 0)  # dual factor is y < 0
    cone = dd.soc([0, 1])
    with pytest.raises(dd.DomainViolation):
        atom_eval(cone, [1.0, 2.0], PRIMAL, 0)


def test_local_norm_worked_values():
    # two halflines z >= 0: the Hessian at (1, 1) is the identity and at
    # (0.5, 1) it is diag(4, 1)
    barrier = dd.DomainBarrier([dd.halfline_lower(0, 0.0), dd.halfline_lower(1, 0.0)], 2)
    ident = barrier.hess(np.array([1.0, 1.0]), PRIMAL)
    assert np.sqrt(ident.quad(np.array([3.0, 4.0]))) == pytest.approx(5.0)
    diag = barrier.hess(np.array([0.5, 1.0]), PRIMAL)
    assert np.allclose(diag.dense(), np.diag([4.0, 1.0]))
    assert np.sqrt(diag.quad(np.array([1.0, 0.0]))) == pytest.approx(2.0)
    assert np.sqrt(diag.inv_quad(np.array([1.0, 0.0]))) == pytest.approx(0.5)
    # no metric at a point outside the domain, nor where an entry vanishes
    with pytest.raises(dd.DomainViolation):
        barrier.hess(np.array([0.5, -1.0]), PRIMAL)
    with np.errstate(over="ignore"), pytest.raises(dd.FactorizationFailure):
        barrier.hess(np.array([1e200, 1.0]), PRIMAL)


def _mixed_barrier():
    atoms = [dd.box(0, -1.0, 2.5, offset=0.8), dd.soc([1, 2, 3], [0.1, -0.2, 0.3]),
             dd.halfline_lower(4, lower=0.7, offset=-0.3), dd.halfline_upper(5, upper=2.0)]
    return atoms, dd.DomainBarrier(atoms, 6)


def _sample_point(atoms, m, rng, side):
    sampler = sample_interior if side == PRIMAL else sample_dual_interior
    z = np.zeros(m)
    for atom in atoms:
        z[np.asarray(atom.coords)] = sampler(atom, rng)
    return z


def test_generalized_cauchy_schwarz():
    # |<s, x>| <= ||x||_H ||s||_{H^-1} for barrier Hessians of mixed atoms
    atoms, barrier = _mixed_barrier()
    rng = np.random.default_rng(RNG_SEED + 5)
    for k in range(100):
        side = PRIMAL if k % 2 else CONJUGATE
        metric = barrier.hess(_sample_point(atoms, 6, rng, side), side)
        x, s = rng.normal(size=6), rng.normal(size=6)
        lhs = abs(float(s @ x))
        rhs = np.sqrt(metric.quad(x)) * np.sqrt(metric.inv_quad(s))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_soc_conjugate_against_numeric_inversion():
    # invert the barrier gradient by Newton to 1e-12 and compare with the
    # closed-form conjugate gradient
    atom = dd.soc([0, 1, 2], [0.1, -0.2, 0.3])
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(100):
        y = sample_dual_interior(atom, rng)
        z = sample_interior(atom, rng, scale=1.0)  # warm start for Newton
        for _ in range(100):
            g = atom_eval(atom, z, PRIMAL, 1)
            resid = g - y
            if np.max(np.abs(resid)) <= 1e-12:
                break
            H = atom_eval(atom, z, PRIMAL, 2)
            step = -np.linalg.solve(H, resid)
            alpha = 1.0
            while alpha > 1e-16 and atom_margin(atom, z + alpha * step, PRIMAL) <= 0:
                alpha *= 0.5
            z = z + alpha * step
        closed = atom_eval(atom, y, CONJUGATE, 1)
        assert np.max(np.abs(closed - z)) <= 1e-8 * (1.0 + np.max(np.abs(z)))


def test_block_metric_matches_dense():
    atoms = [dd.box(0, 0.0, 1.0), dd.soc([1, 2, 3], [0.0, 0.0, 1.0]), dd.halfline_lower(4, -1.0)]
    rng = np.random.default_rng(RNG_SEED + 7)
    z = np.zeros(5)
    z[0] = 0.3
    z[1:4] = sample_interior(atoms[1], rng)
    z[4] = 2.0
    barrier = dd.DomainBarrier(atoms, 5)
    metric = barrier.hess(z, PRIMAL)
    dense = metric.dense()
    v = rng.normal(size=5)
    assert np.allclose(metric.matvec(v), dense @ v, rtol=1e-10)
    assert np.allclose(metric.solve(v), np.linalg.solve(dense, v), rtol=1e-8)
    assert metric.quad(v) == pytest.approx(float(v @ dense @ v), rel=1e-10)
    assert metric.inv_quad(v) == pytest.approx(float(v @ np.linalg.solve(dense, v)), rel=1e-8)


def test_soc_block_stays_finite_at_extreme_conditioning():
    # near the cone boundary at large scale a dense Cholesky fails; the
    # spectral block must keep producing finite, positive quantities
    barrier = dd.DomainBarrier([dd.soc([0, 1, 2])], 3)
    blk = barrier.hess(np.array([1e4 + 1e-7, 1e4, 0.0]), PRIMAL)
    v = np.array([1.0, 2.0, 3.0])
    assert np.isfinite(blk.quad(v)) and blk.quad(v) > 0
    assert np.isfinite(blk.inv_quad(v)) and blk.inv_quad(v) > 0
    assert np.all(np.isfinite(blk.solve(v)))


def _soc_grid():
    """(k, margin, w, V) for k = 3 and 40 at each relative margin
    (head - t)/head from 1e-2 down to 1e-9: a seeded cone point w of that
    margin and five seeded columns V."""
    rng = np.random.default_rng(RNG_SEED + 19)
    for k in (3, 40):
        for margin in (1e-2, 1e-4, 1e-6, 1e-9):
            tail = rng.normal(size=k - 1)
            w = np.concatenate([[np.sqrt(tail @ tail) / (1.0 - margin)], tail])
            yield k, margin, w, rng.normal(size=(k, 5))


def test_soc_matvec_against_the_exact_metric():
    # the spectral matvec against -2J/q + 4(Jw)(Jw)'/q^2 applied in exact
    # rationals to the same floats, at relative margins (head - t)/head
    # down to 1e-9: the error grows as the inverse margin, so its ulps
    # times the margin stay bounded.  A baseline for a q formed more
    # accurately (compensated), which would lower it
    worst = 0.0
    for k, margin, w, V in _soc_grid():
        got = dd.DomainBarrier([dd.soc(range(k))], k).hess(w, PRIMAL).matvec(V)
        jw = [Fraction(x) * (1 if i == 0 else -1) for i, x in enumerate(w)]
        q = sum(Fraction(x) * j for x, j in zip(w, jw))
        for v, g in zip(V.T, got.T):
            jv = [Fraction(x) * (1 if i == 0 else -1) for i, x in enumerate(v)]
            s = sum(a * Fraction(x) for a, x in zip(jw, v))
            exact = [-2 * a / q + 4 * b * s / (q * q) for a, b in zip(jv, jw)]
            err = max(abs(Fraction(x) - e) for x, e in zip(g, exact))
            worst = max(worst, float(err / max(map(abs, exact))) * 2.0**52 * margin)
    # 1.65 is the largest on this grid at the parent (k = 40, margin 1e-9)
    assert worst < 4 * 1.65


def test_soc_solve_and_inv_quad_against_the_exact_inverse():
    # the spectral solve and inv_quad against the inverse metric
    # w w' - (q/2) J in exact rationals from the same floats, on the matvec
    # test's grid.  Their error does not grow as the inverse margin: in
    # ulps of the normwise sizes ||w||^2 ||v||_inf and ||w||^2 ||v||^2
    # (||w||^2 lies between the inverse's largest eigenvalue and twice
    # it) it stays below about one ulp at every margin
    solve = quad = 0.0
    for k, _, w, V in _soc_grid():
        metric = dd.DomainBarrier([dd.soc(range(k))], k).hess(w, PRIMAL)
        got = metric.solve(V)
        ws = [Fraction(x) for x in w]
        q = ws[0] * ws[0] - sum(x * x for x in ws[1:])
        ww = sum(x * x for x in ws)
        for v, g in zip(V.T, got.T):
            vs = [Fraction(x) for x in v]
            jv = [vs[0], *(-x for x in vs[1:])]
            wv = sum(a * b for a, b in zip(ws, vs))
            exact = [a * wv - q / 2 * b for a, b in zip(ws, jv)]
            err = max(abs(Fraction(x) - e) for x, e in zip(g, exact))
            solve = max(solve, float(err / (ww * max(map(abs, vs)))) * 2.0**52)
            exact_quad = wv * wv - q / 2 * sum(a * b for a, b in zip(vs, jv))
            err = abs(Fraction(metric.inv_quad(v)) - exact_quad)
            quad = max(quad, float(err / (ww * sum(x * x for x in vs))) * 2.0**52)
    # 0.75 and 1.02 are the largest on this grid at the parent (k = 3,
    # margins 1e-6 and 1e-4)
    assert solve < 4 * 0.75 and quad < 4 * 1.02


# the interval group's own order, halflines then boxes, on consecutive
# coordinates, with bounds and offsets of mixed sizes and signs
INTERVAL_ATOMS = [
    dd.halfline_lower(0, lower=0.7, offset=-0.3),
    dd.halfline_lower(1, lower=-1234.5678, offset=17.25),
    dd.halfline_upper(2, upper=2.0, offset=0.4),
    dd.halfline_upper(3, upper=-3.3e-3, offset=-0.1),
    dd.box(4, -1.0, 2.5, offset=0.8),
    dd.box(5, 1e-3, 7.0, offset=-2.2),
]
# relative margins from the boundary, and sizes of a dual point's entries
EXACT_MARGINS = (1e-12, 1e-9, 1e-6, 1e-3, 0.5)
EXACT_SIZES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


def _interval_grid(side):
    """Points of INTERVAL_ATOMS' group on ``side``.  Primal: four at each
    margin of EXACT_MARGINS, every atom that far inside a bound, relative
    to 1 + |bound| (to a box's width), each box on a seeded side.
    Conjugate: two at each size of EXACT_SIZES, every entry that size
    times a seeded factor in [1, 10), of the sign of its halfline's dual
    factor and of a seeded sign on a box."""
    rng = np.random.default_rng(RNG_SEED + 23)
    if side == PRIMAL:
        for margin in EXACT_MARGINS:
            for _ in range(4):
                yield np.concatenate([_near_boundary(a, rng, PRIMAL, margin)
                                      for a in INTERVAL_ATOMS])
        return
    signs = {"halfline_lower": [-1.0], "halfline_upper": [1.0], "box": [-1.0, 1.0]}
    for size in EXACT_SIZES:
        for _ in range(2):
            yield np.array([rng.choice(signs[a.kind]) * size * rng.uniform(1.0, 10.0)
                            for a in INTERVAL_ATOMS])


def _exact_slacks(atom, w, side):
    """(w - lower, upper - w) in rationals at an interval atom's float
    point w on ``side``, None for an infinite bound.  On the conjugate
    side a lower halfline's y lies below 0, an upper one's above it, and
    a box's anywhere."""
    lower, upper = atom.lower, atom.upper
    if side == CONJUGATE:
        lower = 0.0 if atom.kind == "halfline_upper" else None
        upper = 0.0 if atom.kind == "halfline_lower" else None
    w = Fraction(w)
    return (None if lower is None else w - Fraction(lower),
            None if upper is None else Fraction(upper) - w)


def _ulps(got, exact, size) -> float:
    """|got - exact| in units of 2^-52 ``size``: rounding a value of that
    size to a float errs by at most one such unit."""
    return float(abs(Fraction(got) - exact) / size) * 2.0**52


def test_interval_evaluate_against_the_exact_forms():
    # _IntervalGroup.evaluate against its closed forms in exact rationals
    # from the same floats, at relative margins down to 1e-12 and |y| from
    # 1e-12 to 1e12: the primal gradient -1/s_lo + 1/s_hi and metric
    # 1/s_lo^2 + 1/s_hi^2 of every interval kind, and the halfline
    # conjugate's gradient b - 1/y and metric 1/y^2, b the shifted bound.
    # A gradient's error is in ulps of its terms' summed sizes, a metric
    # entry's relative.  The primal forms' input is the shifted point
    # w = z + d as the group rounds it
    group = dd.DomainBarrier(INTERVAL_ATOMS, len(INTERVAL_ATOMS)).groups[0]
    worst = dict.fromkeys(["grad", "metric", "conjugate grad", "conjugate metric"], 0.0)
    for z in _interval_grid(PRIMAL):
        g, block = group.evaluate(z, PRIMAL)
        for atom, w, g_i, h_i in zip(INTERVAL_ATOMS, z + group.d, g, block.h):
            s_lo, s_hi = _exact_slacks(atom, w, PRIMAL)
            terms = []
            if s_lo is not None:
                terms.append(-1 / s_lo)
            if s_hi is not None:
                terms.append(1 / s_hi)
            metric = sum(t * t for t in terms)
            worst["grad"] = max(worst["grad"], _ulps(g_i, sum(terms), sum(map(abs, terms))))
            worst["metric"] = max(worst["metric"], _ulps(h_i, metric, metric))
    for y in _interval_grid(CONJUGATE):
        g, block = group.evaluate(y, CONJUGATE)
        for atom, y_i, g_i, h_i in zip(INTERVAL_ATOMS[:group.nh], y, g, block.h):
            bound = atom.upper if atom.lower is None else atom.lower
            b = Fraction(bound) - Fraction(atom.offset[0])
            inv = 1 / Fraction(y_i)
            worst["conjugate grad"] = max(worst["conjugate grad"],
                                          _ulps(g_i, b - inv, abs(b) + abs(inv)))
            worst["conjugate metric"] = max(worst["conjugate metric"],
                                            _ulps(h_i, inv * inv, inv * inv))
    # the largest on this grid at the parent
    assert worst["grad"] < 4 * 0.60 and worst["metric"] < 4 * 0.86
    assert worst["conjugate grad"] < 4 * 0.75 and worst["conjugate metric"] < 4 * 0.61


def test_interval_support_and_step_against_the_exact_forms():
    # DomainBarrier.support and step_to_boundary on INTERVAL_ATOMS against
    # their forms in exact rationals from the same floats: the support
    # sum of y times the shifted bound on y's side, in ulps of its terms'
    # summed sizes, on the conjugate grid; the step, the least exit
    # slack / |dw| over the coordinates that move toward a finite bound,
    # in relative ulps, on both grids along seeded rays of sizes 1e-6 to
    # 1e6.  The primal step's input is w = z + d as the group rounds it
    barrier = dd.DomainBarrier(INTERVAL_ATOMS, len(INTERVAL_ATOMS))
    shift = barrier.groups[0].d
    support = step = 0.0
    for y in _interval_grid(CONJUGATE):
        terms = [(Fraction(atom.upper if y_i > 0 else atom.lower) - Fraction(atom.offset[0]))
                 * Fraction(y_i) for atom, y_i in zip(INTERVAL_ATOMS, y)]
        support = max(support, _ulps(barrier.support(y), sum(terms), sum(map(abs, terms))))
    rng = np.random.default_rng(RNG_SEED + 29)
    for side in (PRIMAL, CONJUGATE):
        for z in _interval_grid(side):
            w = z + shift if side == PRIMAL else z
            for _ in range(5):
                dz = rng.normal(size=z.size) * 10.0 ** rng.uniform(-6.0, 6.0)
                exits = []
                for atom, w_i, dw in zip(INTERVAL_ATOMS, w, dz):
                    s_lo, s_hi = _exact_slacks(atom, w_i, side)
                    if dw < 0.0 and s_lo is not None:
                        exits.append(s_lo / -Fraction(dw))
                    if dw > 0.0 and s_hi is not None:
                        exits.append(s_hi / Fraction(dw))
                got = barrier.step_to_boundary(z, dz, side)
                if not exits:
                    assert got == np.inf
                    continue
                step = max(step, _ulps(got, min(exits), min(exits)))
    # the largest on this grid at the parent
    assert support < 4 * 1.40 and step < 4 * 0.42


def _exact_cone_grid():
    """(k, margin, d, w) for k = 3 and 40, each relative margin
    (head - t)/head of EXACT_MARGINS and tails of sizes 1e-12, 1 and 1e12:
    a seeded cone point w of that margin, and a seeded offset d of the
    tail's size."""
    rng = np.random.default_rng(RNG_SEED + 31)
    for k in (3, 40):
        for margin in EXACT_MARGINS:
            for size in (1e-12, 1.0, 1e12):
                tail = rng.normal(size=k - 1) * size
                w = np.concatenate([[np.sqrt(tail @ tail) / (1.0 - margin)], tail])
                yield k, margin, rng.normal(size=k) * size, w


def _exact_cone_exit(w, dw):
    """The least s > 0 at which w + s dw, w strictly inside the cone, reaches
    its boundary: the least positive root of the ray quadratic
    a s^2 + b s + c, its coefficients exact in rationals and the root a
    50-digit decimal, formed without cancellation; None when there is
    none."""
    def jdot(u, v):
        return Fraction(u[0]) * Fraction(v[0]) - sum(Fraction(p) * Fraction(q)
                                                     for p, q in zip(u[1:], v[1:]))
    a, b, c = jdot(dw, dw), 2 * jdot(w, dw), jdot(w, w)
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, disc = (Decimal(f.numerator) / f.denominator for f in (a, b, c, disc))
        q = -(b + disc.sqrt().copy_sign(b)) / 2
        return min((r for r in (q / a, c / q) if r > 0), default=None)


def test_cone_support_and_step_against_the_exact_forms():
    # DomainBarrier.support and step_to_boundary on one cone against exact
    # references from the same floats: the support w'd at y = -w in
    # rationals, in ulps of its terms' summed sizes, and the step, the
    # least positive root of the ray quadratic as a 50-digit decimal, on
    # both sides along five seeded rays of w's size.  The step's error,
    # in relative ulps, grows as the inverse margin, where the float
    # c = w'Jw cancels, and as the inverse of a/|dw|^2, where the root's
    # -b + sqrt(disc) does; so its ulps times the margin stay bounded on
    # this grid.  The primal step's input is w = z + d as the group
    # rounds it
    rng = np.random.default_rng(RNG_SEED + 37)
    support = step = 0.0
    for k, margin, d, w in _exact_cone_grid():
        barrier = dd.DomainBarrier([dd.soc(range(k), d)], k)
        terms = [Fraction(p) * Fraction(q) for p, q in zip(w, d)]
        support = max(support, _ulps(barrier.support(-w), sum(terms), sum(map(abs, terms))))
        for side, z in ((PRIMAL, w - d), (CONJUGATE, -w)):
            for _ in range(5):
                dz = rng.normal(size=k) * np.linalg.norm(w)
                got = barrier.step_to_boundary(z, dz, side)
                exact = (_exact_cone_exit(z + d, dz) if side == PRIMAL
                         else _exact_cone_exit(-z, -dz))
                if exact is None:
                    assert got == np.inf
                    continue
                with localcontext() as ctx:
                    ctx.prec = 50
                    step = max(step, float(abs(Decimal(got) - exact) / exact) * 2.0**52 * margin)
    # the largest on this grid at the parent; the step's at margin 0.5 on
    # a ray of a/|dw|^2 = -0.026 (k = 3, conjugate side)
    assert support < 4 * 0.46 and step < 4 * 18.83


def test_cone_gradient_against_the_exact_forms():
    # _ConeGroup.evaluate's gradient against its closed forms in exact
    # rationals from the same floats, on the support and step test's grid:
    # -2Jw/q on the primal side, w = z + d as the group rounds it, and
    # 2Jw/q - d on the conjugate side, w = -y, q = w'Jw both.  An error is
    # in ulps of the largest entry of the terms' summed sizes.  Like the
    # metric's, it grows as the inverse margin, where q cancels, so its
    # ulps times the margin stay bounded
    worst = {PRIMAL: 0.0, CONJUGATE: 0.0}
    for k, margin, d, w in _exact_cone_grid():
        group = dd.DomainBarrier([dd.soc(range(k), d)], k).groups[0]
        for side, z in ((PRIMAL, w - d), (CONJUGATE, -w)):
            g, _ = group.evaluate(z, side)
            ws = [Fraction(x) for x in (z + d if side == PRIMAL else w)]
            q = ws[0] * ws[0] - sum(x * x for x in ws[1:])
            terms = [2 * x / q for x in (ws[0], *(-x for x in ws[1:]))]
            if side == PRIMAL:
                exact, sizes = [-t for t in terms], [abs(t) for t in terms]
            else:
                exact = [t - Fraction(x) for t, x in zip(terms, d)]
                sizes = [abs(t) + abs(Fraction(x)) for t, x in zip(terms, d)]
            err = max(abs(Fraction(x) - e) for x, e in zip(g, exact))
            worst[side] = max(worst[side], float(err / max(sizes)) * 2.0**52 * margin)
    # the largest on this grid at the parent
    assert worst[PRIMAL] < 4 * 0.59 and worst[CONJUGATE] < 4 * 0.70


def test_box_conjugate_against_a_decimal_maximizer():
    # _IntervalGroup.evaluate's box conjugate, gradient box_lo + s and
    # metric 1/(1/s^2 + 1/(width - s)^2), against the same forms at the
    # maximizer s of y*s + ln s + ln(width - s) as a 50-digit decimal,
    # formed without cancellation from the group's own width and box_lo.
    # INTERVAL_ATOMS' boxes at |y| of each of EXACT_SIZES times seeded
    # factors in [1, 10), on both signs.  The gradient's error is in ulps
    # of |box_lo| + s, the metric's relative
    group = dd.DomainBarrier(INTERVAL_ATOMS, len(INTERVAL_ATOMS)).groups[0]
    halflines = [-1.0 if atom.kind == "halfline_lower" else 1.0
                 for atom in INTERVAL_ATOMS[:group.nh]]
    rng = np.random.default_rng(RNG_SEED + 41)
    grad = metric = 0.0
    for size in EXACT_SIZES:
        for sign in (1.0, -1.0):
            yb = sign * size * rng.uniform(1.0, 10.0, size=group.box_width.size)
            g, block = group.evaluate(np.concatenate([halflines, yb]), CONJUGATE)
            for y, lo, width, g_i, h_i in zip(yb, group.box_lo, group.box_width,
                                              g[group.nh:], block.h[group.nh:]):
                with localcontext() as ctx:
                    ctx.prec = 50
                    w, t = Decimal(width), Decimal(y) * Decimal(width)
                    small = 2 * w / (2 + abs(t) + (t * t + 4).sqrt())
                    s = w - small if t > 0 else small
                    exact_g = Decimal(lo) + s
                    exact_h = 1 / (1 / s**2 + 1 / (w - s) ** 2)
                    grad = max(grad, float(abs(Decimal(g_i) - exact_g) / (abs(Decimal(lo)) + s))
                               * 2.0**52)
                    metric = max(metric, float(abs(Decimal(h_i) - exact_h) / exact_h) * 2.0**52)
    # the largest on this grid at the parent
    assert grad < 4 * 0.45 and metric < 4 * 1.25


# interleaved coordinates: every scalar kind, two cones of different sizes
GROUPED_ATOMS = [
    dd.soc([1, 5, 8], [0.1, -0.2, 0.3]),
    dd.halfline_lower(2, lower=0.7, offset=-0.3),
    dd.soc([0, 3, 9, 11], [0.5, 0.0, -0.4, 0.2]),
    dd.box(6, -1.0, 2.5, offset=0.8),
    dd.halfline_upper(4, upper=2.0, offset=0.4),
    dd.box(10, 0.0, 1.0),
    dd.halfline_lower(7, lower=-1.0),
]
GROUPED_M = 12


def _scatter(pieces):
    """Assemble per-atom vectors (or matrices) onto the image coordinates."""
    if np.ndim(pieces[0][1]) == 2:
        out = np.zeros((GROUPED_M, GROUPED_M))
        for atom, block in pieces:
            out[np.ix_(atom.coords, atom.coords)] = block
        return out
    out = np.zeros(GROUPED_M)
    for atom, piece in pieces:
        out[list(atom.coords)] = piece
    return out


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_grouped_barrier_matches_one_atom_barriers(side):
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(20):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        local = [(a, z[list(a.coords)]) for a in GROUPED_ATOMS]
        assert barrier.value(z, side) == pytest.approx(
            sum(atom_eval(a, u, side, 0) for a, u in local), rel=1e-12, abs=1e-12)
        assert np.allclose(barrier.grad(z, side),
                           _scatter([(a, atom_eval(a, u, side, 1)) for a, u in local]),
                           rtol=1e-12, atol=0.0)
        assert np.allclose(barrier.hess(z, side).dense(),
                           _scatter([(a, atom_eval(a, u, side, 2)) for a, u in local]),
                           rtol=1e-12, atol=1e-15)
        assert barrier.min_margin(z, side) == min(
            atom_margin(a, u, side) for a, u in local)


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_oracle_min_margin_matches_the_barrier_row_by_row(side):
    # the oracles' batched per-atom formulas give DomainBarrier's margin
    # bits at every point, inside D (or D*) and outside it
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 14)
    inside = np.stack([_sample_point(GROUPED_ATOMS, GROUPED_M, rng, side) for _ in range(20)])
    Z = np.concatenate([inside, 2.0 * inside - 1.0, -inside,
                        rng.normal(scale=3.0, size=(20, GROUPED_M))])
    want = np.array([barrier.min_margin(z, side) for z in Z])
    assert np.array_equal(batch_min_margin(GROUPED_ATOMS, Z, side), want)
    assert np.sum(want > 0.0) >= 20 and np.sum(want < 0.0) >= 20


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_grad_hess_equals_grad_and_hess(side):
    # the one-pass evaluation gives the separate ones bit for bit
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(20):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        grad, metric = barrier.grad_hess(z, side)
        assert np.array_equal(grad, barrier.grad(z, side))
        assert np.array_equal(metric.dense(), barrier.hess(z, side).dense())
    # and they reject the same points with the same error: outside the
    # domain, not finite, a cone whose shifted head overflows (its margin
    # is not finite), a box so narrow that its metric overflows, and cone
    # points whose largest eigenvalue (heads 1e-200 and 1e-160) or smallest
    # (head 1e200) is not positive and finite
    inside = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
    coord = np.arange(GROUPED_M)
    narrow = dd.DomainBarrier([dd.box(0, 0.0, 1e-160)], 1)
    cone = dd.DomainBarrier([dd.soc([0, 1, 2])], 3)
    head = 1.0 if side == PRIMAL else -1.0   # the dual cone is -K
    rejected = [(barrier, np.where(coord == 0, -inside, inside)),   # a cone's head
                (barrier, np.where(coord == 2, -inside, inside)),   # a halfline
                (barrier, np.where(coord == 3, np.nan, inside)),
                (barrier, np.where(coord == 7, np.inf, inside)),
                (narrow, narrow.interior_point() if side == PRIMAL else np.zeros(1))]
    rejected += [(cone, np.array([head * h, 0.0, 0.0])) for h in (1e-200, 1e200, 1e-160)]
    if side == PRIMAL:
        rejected.append((dd.DomainBarrier([dd.soc([0, 1], [1e308, 0.0])], 2),
                         np.array([1e308, 0.0])))
    for owner, z in rejected:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            raised = [_raised(lambda: owner.grad(z, side)),
                      _raised(lambda: owner.grad_hess(z, side)),
                      _raised(lambda: reference_grad_hess(owner, z, side))]
        assert raised[0] is not None and raised[0] == raised[1]
        assert raised[2] is not None and raised[2][0] is raised[0][0]   # its own messages


def _raised(call):
    """(type, message) of the exception ``call()`` raises, None if none."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _closed_form_hessian(atom, u, side):
    """The atom's Hessian at its local point ``u``, built from the textbook
    form: -2J/q + 4(Jw)(Jw)'/q^2 at the canonical cone point w (the
    conjugate's at y is the primal one at w = -y); 1/s_lo^2 + 1/s_hi^2 on
    an interval's primal side; on its conjugate side 1/y^2 for a halfline
    and 1/(1/s^2 + 1/(width-s)^2) for a box, with s the maximizer of
    y*s + ln s + ln(width - s) in 50 digits."""
    d = atom.offset_vec
    if atom.kind == "soc":
        w = u + d if side == PRIMAL else -u
        J = np.diag([1.0] + [-1.0] * (atom.dim - 1))
        q = w[0] ** 2 - w[1:] @ w[1:]
        Jw = J @ w
        return -2.0 * J / q + 4.0 * np.outer(Jw, Jw) / q**2
    if side == PRIMAL:
        w = u[0] + d[0]
        s_lo = np.inf if atom.lower is None else w - atom.lower
        s_hi = np.inf if atom.upper is None else atom.upper - w
        return np.array([[1.0 / s_lo**2 + 1.0 / s_hi**2]])
    y = u[0]
    if atom.kind != "box":
        return np.array([[1.0 / y**2]])
    with localcontext() as ctx:
        ctx.prec = 50
        yd, width = Decimal(y), Decimal(atom.upper) - Decimal(atom.lower)
        # the root in (0, width) of y s^2 + (2 - y width) s - width = 0
        s = (yd * width - 2 + (yd * yd * width * width + 4).sqrt()) / (2 * yd)
        return np.array([[float(1 / (1 / s**2 + 1 / (width - s) ** 2))]])


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_hessian_matches_closed_forms(side):
    # dense() is read off matvec, so check the metric against Hessians
    # built here, block by block, and nothing outside the blocks
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 12)
    for _ in range(20):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        dense = barrier.hess(z, side).dense()
        want = _scatter([(a, _closed_form_hessian(a, z[list(a.coords)], side))
                         for a in GROUPED_ATOMS])
        for atom in GROUPED_ATOMS:
            block = np.ix_(atom.coords, atom.coords)
            err = np.max(np.abs(dense[block] - want[block]))
            assert err <= 1e-12 * np.max(np.abs(want[block]))
        assert np.all(dense[want == 0.0] == 0.0)


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_cone_interior_agrees_with_evaluation_at_the_boundary(side):
    # with the head equal to the tail norm, as a dot product or as a sum
    # of squares forms it, interior() is True exactly when grad, hess and
    # grad_hess evaluate, and on the conjugate side support() is finite
    # exactly when the margin is not negative; both norms of the tails
    # drawn here differ in their last bits
    k = 9
    barrier = dd.DomainBarrier([dd.soc(range(k))], k)
    rng = np.random.default_rng(RNG_SEED + 11)
    sign = 1.0 if side == PRIMAL else -1.0
    differing = 0
    for _ in range(200):
        tail = rng.normal(size=k - 1)
        heads = {float(np.sqrt(tail.dot(tail))), float(np.sqrt(np.sum(tail * tail)))}
        differing += len(heads) == 2
        for head in heads:
            z = sign * np.concatenate([[head], tail])
            inside = barrier.interior(z, side)
            assert (barrier.min_margin(z, side) > 0.0) == inside
            if side == CONJUGATE:
                assert np.isfinite(barrier.support(z)) == (barrier.min_margin(z, side) >= 0.0)
            for evaluate in (barrier.grad, barrier.hess, barrier.grad_hess):
                if inside:
                    evaluate(z, side)
                else:
                    with pytest.raises(dd.DomainViolation):
                        evaluate(z, side)
    assert differing >= 20


def test_grouped_support_both_sides_of_the_dual_cone():
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(20):
        y = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, CONJUGATE)
        expected = sum(atom_support(a, y[list(a.coords)]) for a in GROUPED_ATOMS)
        assert np.isfinite(expected)
        assert barrier.support(y) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for atom in GROUPED_ATOMS:
            if atom.kind == "box":
                continue  # its dual factor is the whole line
            outside = y.copy()
            outside[list(atom.coords)] *= -1.0
            assert np.isinf(atom_support(atom, outside[list(atom.coords)]))
            assert barrier.support(outside) == np.inf
    # a halfline at y = 0 contributes 0, not inf * 0
    zero = dd.DomainBarrier([dd.halfline_lower(0, 1.0), dd.halfline_upper(1, 2.0)], 2)
    assert zero.support(np.zeros(2)) == 0.0
    # at the boundary of each halfline's dual factor, the support is finite
    # exactly when the margin is not negative
    finite = []
    for y in (0.0, -0.0, 5e-324, -5e-324):
        for point in (np.array([y, 0.0]), np.array([0.0, y])):
            finite.append(np.isfinite(zero.support(point)))
            assert finite[-1] == (zero.min_margin(point, CONJUGATE) >= 0.0)
    assert finite.count(False) == 2


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_grouped_metric_acts_on_columns(side):
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 10)
    metric = barrier.hess(_sample_point(GROUPED_ATOMS, GROUPED_M, rng, side), side)
    V = rng.normal(size=(GROUPED_M, 5))
    for op in (metric.matvec, metric.solve):
        columns = np.column_stack([op(V[:, j]) for j in range(V.shape[1])])
        assert np.allclose(op(V), columns, rtol=1e-13, atol=0.0)
    assert metric.matvec(V[:, :0]).shape == (GROUPED_M, 0)


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_step_to_boundary_matches_bisection(side):
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 11)
    for _ in range(20):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        dz = rng.normal(size=GROUPED_M)
        t = barrier.step_to_boundary(z, dz, side)
        if not np.isfinite(t):
            assert barrier.interior(z + 1e8 * dz, side)
            continue
        lo, hi = 0.0, 2.0 * t + 1.0
        assert not barrier.interior(z + hi * dz, side)
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if barrier.interior(z + mid * dz, side):
                lo = mid
            else:
                hi = mid
        assert t == pytest.approx(lo, rel=1e-9)


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_cone_step_to_boundary_along_a_boundary_direction(side):
    # dw = (-1, 1) lies on the cone's boundary, so the quadratic term of
    # the exit equation vanishes and its one root, -c0/b, is exactly 1
    barrier = dd.DomainBarrier([dd.soc([0, 1])], 2)
    sign = 1.0 if side == PRIMAL else -1.0
    z, dz = sign * np.array([2.0, 0.0]), sign * np.array([-1.0, 1.0])
    assert barrier.step_to_boundary(z, dz, side) == 1.0


def _consecutive_relabelling(atoms):
    """(perm, atoms) with each atom moved from coordinate i to perm[i] so
    that every group reads consecutive coordinates: the interval group's
    atoms first, in its own order (halflines, then boxes), then each cone."""
    scalars = sorted((a for a in atoms if a.kind != "soc"), key=lambda a: a.kind == "box")
    old = [i for a in scalars + [a for a in atoms if a.kind == "soc"] for i in a.coords]
    perm = np.empty(len(old), dtype=int)
    perm[old] = np.arange(len(old))
    return perm, [replace(a, coords=tuple(perm[list(a.coords)])) for a in atoms]


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_slice_selectors_match_index_arrays(side):
    # GROUPED_ATOMS interleave the groups, so each reads its coordinates
    # through an index array; relabelled onto consecutive coordinates each
    # reads them through a slice.  Up to the permutation, every operation
    # gives the same bits
    perm, relabelled = _consecutive_relabelling(GROUPED_ATOMS)
    spread = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    packed = dd.DomainBarrier(relabelled, GROUPED_M)
    assert all(isinstance(g.sel, np.ndarray) for g in spread.groups)
    assert all(isinstance(g.sel, slice) for g in packed.groups)

    def moved(v):
        out = np.empty_like(v)
        out[perm] = v
        return out

    rng = np.random.default_rng(RNG_SEED + 13)
    for _ in range(20):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        dz = rng.normal(size=GROUPED_M)
        V = rng.normal(size=(GROUPED_M, 3))
        (g1, H1), (g2, H2) = spread.grad_hess(z, side), packed.grad_hess(moved(z), side)
        assert np.array_equal(moved(g1), g2)
        for op in ("matvec", "solve"):
            assert np.array_equal(moved(getattr(H1, op)(V)), getattr(H2, op)(moved(V)))
            assert np.array_equal(moved(getattr(H1, op)(dz)), getattr(H2, op)(moved(dz)))
        assert H1.inv_quad(dz) == H2.inv_quad(moved(dz))
        for point in (z, 2.0 * z - 1.0):
            assert np.array_equal(spread.margins(point, side), packed.margins(moved(point), side))
        assert spread.step_to_boundary(z, dz, side) == packed.step_to_boundary(
            moved(z), moved(dz), side)
        assert spread.support(z) == packed.support(moved(z))
    assert np.array_equal(moved(spread.interior_point()), packed.interior_point())


def test_selector_is_a_slice_exactly_for_consecutive_coordinates():
    def selectors(atoms, m):
        return [g.sel for g in dd.DomainBarrier(atoms, m).groups]
    sel, = selectors([dd.soc([2, 3, 4])], 5)
    assert sel == slice(2, 5)
    sel, = selectors([dd.soc([2, 4, 3])], 5)
    assert np.array_equal(sel, [2, 4, 3])
    # the interval group reads halflines before boxes
    sel, = selectors([dd.halfline_lower(1), dd.box(2, 0.0, 1.0)], 3)
    assert sel == slice(1, 3)
    sel, = selectors([dd.box(1, 0.0, 1.0), dd.halfline_lower(2)], 3)
    assert np.array_equal(sel, [2, 1])


def _near_boundary(atom, rng, side, rel):
    """An atom-local point at relative margin ``rel`` from the boundary of
    the atom's set (side PRIMAL) or of its dual factor (CONJUGATE); outside
    when ``rel`` < 0.  A box's dual factor is the line: a large |y| there."""
    if atom.kind == "soc":
        tail = rng.normal(size=atom.dim - 1)
        w = np.concatenate([[np.linalg.norm(tail) * (1.0 + rel)], tail])
        return w - atom.offset_vec if side == PRIMAL else -w
    if side == CONJUGATE:
        if atom.kind == "box":
            return np.array([rng.choice([-1e6, 1e6])])
        return np.array([rel if atom.kind == "halfline_upper" else -rel])
    lo, hi = atom.lower, atom.upper
    if atom.kind == "box":
        gap = rel * (hi - lo)
        w = lo + gap if rng.uniform() < 0.5 else hi - gap
    elif atom.kind == "halfline_lower":
        w = lo + rel * (1.0 + abs(lo))
    else:
        w = hi - rel * (1.0 + abs(hi))
    return np.array([w]) - atom.offset_vec


def _exactness_points(rng, side):
    """GROUPED_ATOMS points: random interior ones, each again with every
    cone tail set to 0, points with every atom 1e-12 inside its boundary,
    and the same with one atom 1e-12 outside (on the conjugate side a box
    has no outside)."""
    for _ in range(10):
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        yield z
        flat = z.copy()
        for atom in GROUPED_ATOMS:
            if atom.kind == "soc":
                flat[list(atom.coords[1:])] = -atom.offset_vec[1:] if side == PRIMAL else 0.0
        yield flat
        near = [_near_boundary(a, rng, side, 1e-12) for a in GROUPED_ATOMS]
        yield _scatter(list(zip(GROUPED_ATOMS, near)))
        out = int(rng.integers(len(GROUPED_ATOMS)))
        if GROUPED_ATOMS[out].kind != "box" or side == PRIMAL:
            near[out] = _near_boundary(GROUPED_ATOMS[out], rng, side, -1e-12)
            yield _scatter(list(zip(GROUPED_ATOMS, near)))


def _zero_tails(z, side) -> int:
    """How many GROUPED_ATOMS cones have tail exactly 0 at z."""
    count = 0
    for atom in GROUPED_ATOMS:
        if atom.kind == "soc":
            tail = z[list(atom.coords[1:])]
            count += not np.any(tail + atom.offset_vec[1:] if side == PRIMAL else tail)
    return count


@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_closed_forms_equal_their_plain_numpy_forms(side):
    # bit for bit, never approximately: the barrier's closed forms against
    # the reference forms of tests/oracles.py (np.multiply.outer split and
    # assembly, the concatenated interval conjugate, np.linalg.norm)
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 14)
    flat_tails = outside = 0
    for z in _exactness_points(rng, side):
        margins = reference_margins(barrier, z, side)
        assert np.array_equal(barrier.margins(z, side), np.concatenate(margins))
        inside = reference_interior(barrier, z, side)
        assert barrier.interior(z, side) == inside
        if not inside:
            outside += 1
            with pytest.raises(dd.DomainViolation):
                barrier.grad_hess(z, side)
            with pytest.raises(dd.DomainViolation):
                reference_grad_hess(barrier, z, side)
            continue
        flat_tails += _zero_tails(z, side)
        (g, H), (g_ref, H_ref) = barrier.grad_hess(z, side), reference_grad_hess(barrier, z, side)
        assert np.array_equal(g, g_ref)
        v, V = rng.normal(size=GROUPED_M), rng.normal(size=(GROUPED_M, 5))
        dz = rng.normal(size=GROUPED_M)
        for op in ("matvec", "solve"):
            assert np.array_equal(getattr(H, op)(v), getattr(H_ref, op)(v))
            assert np.array_equal(getattr(H, op)(V), getattr(H_ref, op)(V))
        assert H.quad(v) == H_ref.quad(v)
        assert H.inv_quad(v) == H_ref.inv_quad(v)
        assert barrier.step_to_boundary(z, dz, side) == reference_step_to_boundary(
            barrier, z, dz, side)
    assert outside >= 5 and flat_tails == 20


@pytest.mark.parametrize("where", ["interval", "cone-tail"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("side", [PRIMAL, CONJUGATE])
def test_non_finite_entry_is_outside(side, bad, where):
    # interior() and grad_hess() run the finiteness check first, so they
    # form no slack of a non-finite entry and warn of nothing; margins()
    # forms them, inf - inf among them, and matches the reference forms
    barrier = dd.DomainBarrier(GROUPED_ATOMS, GROUPED_M)
    rng = np.random.default_rng(RNG_SEED + 18)
    coords = [2, 6, 4, 10] if where == "interval" else [5, 8, 3, 9]
    for coord in coords:
        z = _sample_point(GROUPED_ATOMS, GROUPED_M, rng, side)
        z[coord] = bad
        assert not barrier.interior(z, side)
        assert not reference_interior(barrier, z, side)
        for evaluate in (barrier.grad_hess, barrier.value):
            with pytest.raises(dd.DomainViolation, match="non-finite"):
                evaluate(z, side)
        with np.errstate(invalid="ignore"):
            margins = barrier.margins(z, side)
            reference = np.concatenate(reference_margins(barrier, z, side))
        assert np.array_equal(margins, reference, equal_nan=True)
        assert not margins.min() > 0.0
