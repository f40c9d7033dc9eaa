"""Brute-force oracles for tiny instances (n <= 2), and reference forms of
the barrier's closed forms.

The oracles recompute analysis quantities independently of the path
follower: grid search with refinement for feasibility measures, damped
Newton for the analytic center shifted by the objective, bisection for the
feasibility measure of strictly feasible instances.  The reference forms
compute the barrier's gradient, metric, margins and exit steps with plain
numpy calls, to show that ``ddsolve.barriers`` gives the same bits.  The
exact forms (end of the file) evaluate the dual linear equation's residual
and the path parameter's three forms without rounding, to count the
iterates a float check passes or fails by rounding alone.  The property
checks (after the oracles) each test one of the paper's claims about a run
or a certificate and return its failure messages: a unit test asserts the
list is empty, and an acceptance criterion reports it.  All of them exist
for the test suite and are not part of the installed package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ddsolve.barriers import (
    BOX,
    CONJUGATE,
    HALFLINE_LOWER,
    HALFLINE_UPPER,
    PRIMAL,
    SOC,
    BlockMetric,
    _ConeGroup,
    _DiagonalBlock,
    _SocBlock,
)
from ddsolve.cli import main
from ddsolve.errors import (DomainViolation, FactorizationFailure, ProjectionOutsideCone,
                            SolverError)
from ddsolve.model import Problem, StartData, dual_residual, gap_bounds, support_function
from ddsolve.status import stop_params, strict_infeasibility_certificate, verify_certificate

T_SUP_SENTINEL = 1.0e6


class NewtonDivergence(SolverError):
    """Unconstrained Newton minimization failed to converge."""


@dataclass(frozen=True)
class OracleInstance:
    """A tiny problem plus the x-space box the grid searches sweep."""

    problem: Problem
    box: tuple
    resolution: int = 33

    def __post_init__(self):
        if self.problem.n > 2 or self.problem.m > 4:
            raise ValueError("oracle instances are limited to n <= 2, m <= 4")
        if len(self.box) != self.problem.n:
            raise ValueError("need one (lo, hi) pair per variable")


def _grid(box, resolution):
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    if len(axes) == 1:
        return axes[0][:, None]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return pts.reshape(-1, len(axes))


def _batch_dist(problem, Z):
    """Per-row Euclidean distance of the image points Z (N x m) to the
    domain, via closed-form nearest points per atom."""
    sq = np.zeros(Z.shape[0])
    for atom in problem.atoms:
        idx = np.asarray(atom.coords)
        W = Z[:, idx] + atom.offset_vec
        if atom.kind == HALFLINE_LOWER:
            sq += np.maximum(atom.lower - W[:, 0], 0.0) ** 2
        elif atom.kind == HALFLINE_UPPER:
            sq += np.maximum(W[:, 0] - atom.upper, 0.0) ** 2
        elif atom.kind == BOX:
            sq += np.maximum(atom.lower - W[:, 0], 0.0) ** 2 \
                + np.maximum(W[:, 0] - atom.upper, 0.0) ** 2
        else:
            head = W[:, 0]
            tail = np.linalg.norm(W[:, 1:], axis=1)
            shell = 0.5 * (tail - head) ** 2  # distance to the cone surface
            sq += np.where(head >= tail, 0.0,
                           np.where(head <= -tail, head**2 + tail**2, shell))
    return np.sqrt(sq)


def batch_min_margin(atoms, Z, side=PRIMAL):
    """Per-row smallest atom margin of the points Z (N x m), by the
    per-atom formulas.  An interval atom's margin is min(w - lower,
    upper - w), with w = z + d against the atom's bounds on the primal
    side and w = z against its dual factor's on the conjugate side; a
    cone's is w1 - |wbar|, with w = z + d or w = -z.  The tail norm is
    each row's product with itself, the bits of a dot product."""
    out = np.full(Z.shape[0], np.inf)
    for atom in atoms:
        W = Z[:, list(atom.coords)]
        if side == PRIMAL:
            W = W + atom.offset_vec
        if atom.kind == SOC:
            if side == CONJUGATE:
                W = -W
            tail = W[:, 1:]
            sq = np.matmul(tail[:, None, :], tail[:, :, None])[:, 0, 0]
            margin = W[:, 0] - np.sqrt(sq)
        else:
            if side == PRIMAL:
                lo = -np.inf if atom.lower is None else atom.lower
                hi = np.inf if atom.upper is None else atom.upper
            else:
                lo = 0.0 if atom.lower is None else -np.inf
                hi = 0.0 if atom.upper is None else np.inf
            margin = np.minimum(W[:, 0] - lo, hi - W[:, 0])
        out = np.minimum(out, margin)
    return out


def _refine(objective, box, resolution, x_tol=1e-9):
    """Maximize a batch objective over the box by iterated regridding;
    each pass shrinks the search box to one grid cell around the incumbent
    (always at least halving it)."""
    box = [tuple(map(float, b)) for b in box]
    best_x, best_v = None, -np.inf
    while True:
        pts = _grid(box, resolution)
        vals = objective(pts)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_v, best_x = float(vals[k]), pts[k]
        spans = [hi - lo for lo, hi in box]
        if max(spans) <= x_tol:
            return best_x, best_v
        new_box = []
        for j, (lo, hi) in enumerate(box):
            step = (hi - lo) / (resolution - 1)
            new_box.append((max(lo, best_x[j] - step), min(hi, best_x[j] + step)))
        box = new_box


def oracle_sigma_p(inst: OracleInstance) -> float:
    """dist(range(A), D) to about 1e-4: grid over x, nearest point in D
    by the per-atom formulas."""
    problem = inst.problem

    def neg_dist(X):
        return -_batch_dist(problem, X @ problem.A.T)

    _, v = _refine(neg_dist, inst.box, inst.resolution)
    return -v


def _feasible_at(inst: OracleInstance, shift: np.ndarray) -> bool:
    problem = inst.problem

    def margin(X):
        return batch_min_margin(problem.atoms, X @ problem.A.T + shift)

    _, v = _refine(margin, inst.box, inst.resolution, x_tol=1e-9)
    return v >= 0.0


def oracle_tp(inst: OracleInstance, z0: np.ndarray) -> float:
    """sup { t >= 1 : some x has A x + z0/t in D }, by bisection with the
    per-t feasibility decided by refined grid search.  Returns +inf when
    feasible at t = 1e6, else the bracket midpoint (width <= 1e-4)."""
    z0 = np.asarray(z0, dtype=float)
    if _feasible_at(inst, z0 / T_SUP_SENTINEL):
        return np.inf
    lo, hi = 1.0, T_SUP_SENTINEL
    if not _feasible_at(inst, z0 / lo):
        raise ValueError("t = 1 must be feasible (z0 is interior)")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _feasible_at(inst, z0 / mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CenterResult:
    x: np.ndarray
    y: np.ndarray
    y_tau: float


def compute_xbar1(inst: OracleInstance) -> CenterResult:
    """Minimize Phi(A x) + <c, x> by damped Newton (gradient norm 1e-10).

    Returns the minimizer, the barrier gradient there (which satisfies
    A'y = -c), and the scalar -xi*theta - <y, A x>.  Raises
    NewtonDivergence when no interior starting point exists on the grid or
    Newton fails, which signals that strict feasibility does not hold.
    """
    problem = inst.problem
    barrier = problem.barrier

    def margin(X):
        return batch_min_margin(problem.atoms, X @ problem.A.T)

    x0, v = _refine(margin, inst.box, inst.resolution, x_tol=1e-6)
    if not v > 0.0:
        raise NewtonDivergence("no strictly interior point in the search box")

    x = np.asarray(x0, dtype=float)
    for _ in range(200):
        z = problem.A @ x
        g = problem.A.T @ barrier.grad(z, PRIMAL) + problem.c
        if np.linalg.norm(g) <= 1e-10:
            y = barrier.grad(z, PRIMAL)
            return CenterResult(x=x, y=y, y_tau=float(-problem.xi * problem.theta - y @ z))
        H = barrier.hess(z, PRIMAL)
        step = -np.linalg.solve(problem.A.T @ H.matvec(problem.A), g)
        f0 = barrier.value(z, PRIMAL) + float(problem.c @ x)
        alpha, accepted = 1.0, False
        while alpha > 1e-14:
            xn = x + alpha * step
            zn = problem.A @ xn
            if barrier.interior(zn, PRIMAL):
                fn = barrier.value(zn, PRIMAL) + float(problem.c @ xn)
                if fn <= f0 + 0.25 * alpha * float(g @ step):
                    x, accepted = xn, True
                    break
            alpha *= 0.5
        if not accepted:
            break
    raise NewtonDivergence("Newton failed to reach gradient norm 1e-10")


def oracle_sigma_f(inst: OracleInstance, start: StartData) -> float:
    """Feasibility measure of a strictly primal-dual feasible instance:
    the supremum of alpha < 1 keeping

      y_center - alpha*y0 in the dual cone,
      (A x_center - alpha*z0) / (1 - alpha) in the domain,
      support(y_center - alpha*y0) + y_tau_center - alpha*y_tau0 <= 0.

    The admissible set is an interval in alpha; plain bisection to a
    bracket of width 1e-8.
    """
    problem = inst.problem
    center = compute_xbar1(inst)
    z_center = problem.A @ center.x

    def admissible(alpha: float) -> bool:
        y = center.y - alpha * start.y0
        if problem.barrier.min_margin(y, CONJUGATE) < 0.0:
            return False
        z = (z_center - alpha * start.z0) / (1.0 - alpha)
        if problem.barrier.min_margin(z, PRIMAL) < 0.0:
            return False
        ds = support_function(problem, y)
        return np.isfinite(ds) and ds + center.y_tau - alpha * start.y_tau0 <= 0.0

    if not admissible(0.0):
        raise ValueError("alpha = 0 must be admissible for a strictly feasible instance")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------- property checks


def _failed(checks: dict) -> list:
    """The messages of a ``{message: passed}`` dict whose check failed."""
    return [message for message, passed in checks.items() if not passed]


def feasibility_bound_failures(problem, start, iterates, sigma_f) -> list:
    """sigma_f > 0, and tau - 1 >= sigma_f mu - 1/sigma_f (within 1e-8) at
    each iterate, of at least one, with support(y) + y_tau0 + tau <c, x> <= 0."""
    failures, qualifying = [], 0
    for it in iterates:
        y_tau = start.y_tau0 + it.tau * float(problem.c @ it.x)
        ds = support_function(problem, it.y)
        if np.isfinite(ds) and ds + y_tau <= 0.0:
            qualifying += 1
            if not it.tau - 1.0 >= sigma_f * it.mu - 1.0 / sigma_f - 1e-8:
                failures.append(f"feasibility-measure bound fails at mu={it.mu:.3e}")
    return failures + _failed({f"sigma_f {sigma_f} is not positive": sigma_f > 0.0,
                               "no iterate has support(y) + y_tau <= 0": qualifying})


def gap_sandwich_failures(problem, start, iterates) -> list:
    """Each iterate's objective gap, from its ``stop_params``, within 1e-8
    of its ``gap_bounds``; NaN or inf fails."""
    failures = []
    for it in iterates:
        gb = gap_bounds(problem, start, it.tau, it.mu)
        actual = stop_params(problem, start, it.x, it.tau, it.y).objective_gap
        if not gb.lower - 1e-8 <= actual <= gb.upper + 1e-8:
            failures.append(f"gap sandwich violated at mu={it.mu:.3e}")
    return failures


def tau_floor_failures(problem, iterates) -> list:
    """tau >= (xi - 1 - kappa) / (2 xi) at each iterate with mu >= 1."""
    floor = (problem.xi - 1.0 - problem.kappa) / (2.0 * problem.xi)
    return [f"tau {it.tau:.4e} < {floor} at mu={it.mu:.3e}" for it in iterates
            if it.mu >= 1.0 and not it.tau >= floor]


def mu_cap(problem, eps) -> float:
    """The mu at which a run ends IllConditioned: 1/(theta eps^3)."""
    return 1.0 / (problem.theta * eps**3)


def mu_growth_failures(run) -> list:
    """mu strictly increasing along the trace; the fitted log-mu slope positive."""
    mus = [row.mu for row in run.trace]
    slope = run.report.diagnostics.get("mu_log_slope")
    return _failed({"mu not strictly increasing": all(b > a for a, b in zip(mus, mus[1:])),
                    f"log-mu slope {slope} not positive": slope is not None and slope > 0.0})


def infeasibility_certificate_failures(problem, start, cert) -> list:
    """A strict infeasibility certificate: ||A'y||_inf <= 1e-10, y interior
    to D*, support(y) = -1 within 1e-12, and it verifies."""
    ds = support_function(problem, cert.y)
    check = verify_certificate(problem, start, cert)
    return _failed({
        "certificate is not strict": cert.strict,
        "||A'y||_inf > 1e-10": np.max(np.abs(problem.A.T @ cert.y)) <= 1e-10,
        "y not interior to the dual cone": problem.barrier.min_margin(cert.y, CONJUGATE) > 0.0,
        f"support after scaling {ds} != -1": abs(ds + 1.0) <= 1e-12,
        f"verification fails {check.failed_names()}": check.passed})


def unboundedness_certificate_failures(problem, start, cert, eps) -> list:
    """A strict unboundedness certificate: A x interior, <c, x> <= -1/eps,
    and it verifies."""
    margin = problem.barrier.min_margin(problem.A @ cert.x, PRIMAL)
    check = verify_certificate(problem, start, cert)
    return _failed({
        "certificate is not strict": cert.strict,
        f"projected point margin {margin:.3e} not positive": margin > 0.0,
        "projected point objective above -1/eps": float(problem.c @ cert.x) <= -1.0 / eps,
        f"verification fails {check.failed_names()}": check.passed})


def false_infeasibility_failures(problem, start, iterates) -> list:
    """The negative control on a feasible run: at each iterate the strict
    infeasibility projection raises ProjectionOutsideCone."""
    failures = []
    for it in iterates:
        try:
            strict_infeasibility_certificate(problem, start, it)
            failures.append(f"false certificate extracted at mu={it.mu:.3e}")
        except ProjectionOutsideCone:
            pass
    return failures


def repeat_run_failures(path, eps, tmp_path, capsys) -> list:
    """Two ``ddsolve solve`` runs of ``path`` at ``eps``, each with a trace:
    both exit 0, with byte-identical reports and traces."""
    runs = []
    for k in range(2):
        trace = tmp_path / f"{k}.csv"
        code = main(["solve", path, "--eps", eps, "--trace", str(trace)])
        runs.append((code, capsys.readouterr().out, trace.read_bytes()))
    (code0, out0, trace0), (code1, out1, trace1) = runs
    return _failed({f"exit codes {code0}, {code1}": code0 == code1 == 0,
                    "reports differ between runs": out0 == out1,
                    "traces differ between runs": trace0 == trace1})


# ------------------------------------------------- reference closed forms
#
# The closed forms of ddsolve.barriers written with the plain numpy calls:
# np.multiply.outer, np.concatenate, np.linalg.norm, np.all, np.min and
# np.sum.  The module performs the same float operations in the same order
# through fewer numpy calls, so tests/test_barriers.py asserts equal bits.
# Each function reads a DomainBarrier's groups and their bounds, nothing
# the module computes from a point.


class OuterSocBlock(_SocBlock):
    """The cone's spectral Hessian block, split and assembled through
    np.multiply.outer; ``inv_quad`` reads this ``_split``, and the
    metric's ``quad`` this ``matvec``.  It forms its own three eigenvalues
    from (w, head, t) and accepts them only if all are positive and finite."""

    def __init__(self, w, head, t):
        margin = head - t
        self.k = w.shape[0]
        self.unit = w[1:] / t if t > 0.0 else np.zeros(self.k - 1)
        self.lam_plus = 2.0 / margin**2
        self.lam_minus = 2.0 / (head + t) ** 2
        self.lam_tail = 2.0 / (margin * (head + t))
        spectrum = np.array([self.lam_plus, self.lam_minus, self.lam_tail])
        if not np.all((spectrum > 0.0) & np.isfinite(spectrum)):
            raise FactorizationFailure("soc metric eigenvalue is not positive and finite")

    def _split(self, v):
        head = v[0]
        proj = self.unit @ v[1:]
        perp = v[1:] - np.multiply.outer(self.unit, proj)
        return (head + proj) / np.sqrt(2.0), (head - proj) / np.sqrt(2.0), perp

    def _assemble(self, a, b, perp):
        out = np.empty((self.k,) + np.shape(a))
        out[0] = (a + b) / np.sqrt(2.0)
        out[1:] = np.multiply.outer(self.unit, (a - b) / np.sqrt(2.0)) + perp
        return out

    def matvec(self, v):
        a, b, perp = self._split(v)
        return self._assemble(self.lam_minus * a, self.lam_plus * b, self.lam_tail * perp)

    def solve(self, v):
        a, b, perp = self._split(v)
        return self._assemble(a / self.lam_minus, b / self.lam_plus, perp / self.lam_tail)


class SumDiagonalBlock(_DiagonalBlock):
    """The interval coordinates' diagonal metric block, reduced through
    np.all and np.sum."""

    def __init__(self, h):
        if not np.all((h > 0.0) & (h < np.inf)):
            raise FactorizationFailure("diagonal metric entry is not positive and finite")
        self.h = h

    def inv_quad(self, v):
        return float(np.sum(v * v / self.h))


def _cone_point(group, z, side):
    """(w, head, t) of a cone group at z, the tail norm t by np.linalg.norm."""
    w = z[group.sel]
    w = w + group.d if side == PRIMAL else -w
    return w, w[0], np.linalg.norm(w[1:])


def reference_margins(barrier, z, side=PRIMAL) -> list:
    """Each group's margins at z: min(s_lo, s_hi) per interval atom, head
    minus tail norm per cone."""
    out = []
    for group in barrier.groups:
        if isinstance(group, _ConeGroup):
            _, head, t = _cone_point(group, z, side)
            out.append((head - t)[None])
        else:
            _, s_lo, s_hi = group._slacks(z, side)
            out.append(np.minimum(s_lo, s_hi))
    return out


def reference_interior(barrier, z, side=PRIMAL) -> bool:
    return bool(np.isfinite(z).all()) and all(
        np.min(m) > 0.0 for m in reference_margins(barrier, z, side))


def reference_grad_hess(barrier, z, side=PRIMAL) -> tuple:
    """(gradient, metric) at z, the metric a BlockMetric of OuterSocBlock
    and SumDiagonalBlock; the interval conjugate forms its two halves and
    joins them with np.concatenate."""
    if not reference_interior(barrier, z, side):
        raise DomainViolation(f"point not strictly interior ({side} side)")
    grad, blocks = np.zeros(barrier.m), []
    for group in barrier.groups:
        if isinstance(group, _ConeGroup):
            w, head, t = _cone_point(group, z, side)
            g = -2.0 * (group.sign * w) / ((head - t) * (head + t))
            grad[group.sel] = g if side == PRIMAL else -g - group.d
            blocks.append((group.sel, OuterSocBlock(w, head, t)))
            continue
        w, s_lo, s_hi = group._slacks(z, side)
        if side == PRIMAL:
            grad[group.sel] = -1.0 / s_lo + 1.0 / s_hi
            h = 1.0 / s_lo**2 + 1.0 / s_hi**2
        else:
            yh = w[:group.nh]
            s_lo, s_hi = group._box_slacks(w[group.nh:])
            grad[group.sel] = np.concatenate([group.half_bound - 1.0 / yh, group.box_lo + s_lo])
            h = np.concatenate([1.0 / yh**2, 1.0 / (1.0 / s_lo**2 + 1.0 / s_hi**2)])
        blocks.append((group.sel, SumDiagonalBlock(h)))
    return grad, BlockMetric(barrier.m, blocks)


def _first_exit(slack, dslack) -> float:
    hit = (dslack < 0.0) & (slack > 0.0)
    return float(np.min(slack[hit] / -dslack[hit], initial=np.inf))


def reference_step_to_boundary(barrier, z, dz, side=PRIMAL) -> float:
    """The exit step along dz, each interval slack's through np.min.  A
    cone's step reads no norm, so it is the group's own."""
    steps = []
    for group in barrier.groups:
        if isinstance(group, _ConeGroup):
            steps.append(group.step_to_boundary(z, dz, side))
        else:
            _, s_lo, s_hi = group._slacks(z, side)
            dw = dz[group.sel]
            steps.append(min(_first_exit(s_lo, dw), _first_exit(s_hi, -dw)))
    return min(steps, default=np.inf)


def _dyadic(values) -> tuple:
    """(integers, e) with values[k] == integers[k] * 2**e exactly, for
    floats and Fractions whose denominators are powers of two."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], -shift


def exact_dual_residual_sq(problem, start, tau, y) -> Fraction:
    """||A'(y - y0) + (tau - 1) c||^2, the squared norm of
    ``model.dual_equation_residual``, exact from the float64 A, c, y0, tau
    and y.  Every float is a dyadic rational, so integers scaled by a
    common power of two carry each difference, product and sum."""
    m, n = problem.A.shape
    A, e_a = _dyadic(problem.A.ravel().tolist())
    ys, e_y = _dyadic(np.asarray(y, dtype=float).tolist() + start.y0.tolist())
    d = [a - b for a, b in zip(ys[:m], ys[m:])]
    cs, e_c = _dyadic(problem.c.tolist() + [Fraction(float(tau)) - 1])
    *c, t = cs
    e = min(e_a + e_y, 2 * e_c)
    total = 0
    for j in range(n):
        r = ((sum(map(operator.mul, A[j::n], d)) << (e_a + e_y - e))
             + ((t * c[j]) << (2 * e_c - e)))
        total += r * r
    return total * Fraction(2) ** (2 * e)


def exact_mu_forms(problem, start, x, tau, y) -> tuple:
    """The three forms of the path parameter of ``tests/test_model.py``'s
    ``mu_forms``, in Fraction from the float64 x, tau and y and the float
    constants z0, y_tau0, A'y0 and xi * theta as ``model.mu_of`` reads them:
    f1 from <y, u>, u = A x + z0/tau, f2 from <y, A x> and <y, z0>, and
    f3, mu_of's.  f1 and f2 are the same rational, and f2 - f3 is
    -tau <r, x> / (xi theta), r the dual equation's residual with A'y0 as
    formed, so only an iterate off that equation can make them disagree."""
    F = lambda values: [Fraction(v) for v in np.asarray(values, dtype=float).ravel().tolist()]
    dot = lambda a, b: sum(map(operator.mul, a, b), Fraction(0))
    x, y, z0, c, aty0 = F(x), F(y), F(start.z0), F(problem.c), F(start.aty0)
    tau, y_tau0 = Fraction(float(tau)), Fraction(start.y_tau0)
    xith = Fraction(problem.xi * problem.theta)
    ax = [dot(row, x) for row in map(F, problem.A)]
    cx, yz0, yax = dot(c, x), dot(y, z0), dot(y, ax)
    yu = dot(y, [a + z / tau for a, z in zip(ax, z0)])
    f1 = tau / xith * (-y_tau0 - tau * cx - yu)
    f2 = -(yz0 + tau * (y_tau0 + yax) + tau * tau * cx) / xith
    f3 = -(yz0 + tau * (y_tau0 + dot([a + b for a, b in zip(aty0, c)], x))) / xith
    return f1, f2, f3


def mu_forms_agree(f1, f2, f3) -> bool:
    """``tests/test_model.py``'s check of the forms: f1 and f2 within
    1e-9 max(1, |f3|) of f3, in float arithmetic for floats and exactly
    for Fractions."""
    bound = (Fraction(1e-9) if isinstance(f3, Fraction) else 1e-9) * max(1, abs(f3))
    return abs(f1 - f3) <= bound and abs(f2 - f3) <= bound


def false_passes(problem, start, iterates) -> int:
    """The iterates whose float dual-equality check, ``model.dual_residual``
    at most ``problem.dual_eq_tol``, passes while the exact residual of
    the same float64 data is above that tolerance."""
    bound = Fraction(problem.dual_eq_tol) ** 2
    return sum(dual_residual(problem, start, it.tau, it.y) <= problem.dual_eq_tol
               and exact_dual_residual_sq(problem, start, it.tau, it.y) > bound
               for it in iterates)
