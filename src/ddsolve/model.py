"""Problem data, starting points, iterates and the path scalar functionals.

The problem is  inf { <c, x> : A x in D }  with D a product of barrier
atoms.  The solver works on the homogenized set

    Q = { (x, tau, y) : A x + z0/tau interior to D,  tau > 0,
                        A'y - A'y0 = -(tau - 1) c,  y interior to D* }

anchored at a chosen interior point z0 with y0 the barrier gradient there.
Its dual linear equation's residual and tolerance are formed here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .barriers import CONJUGATE, PRIMAL, DomainBarrier, _norm, _safe_norm
from .errors import AtomCoverage, BadConstants, DomainViolation, RankDeficient, ValidationError

DUAL_EQ_TOL = 1e-9


@dataclass(frozen=True)
class Problem:
    """Validated problem data; construct via :func:`validate_problem`."""

    A: np.ndarray
    c: np.ndarray
    atoms: tuple
    xi: float
    kappa: float

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @cached_property
    def barrier(self) -> DomainBarrier:
        return DomainBarrier(self.atoms, self.m)

    @property
    def theta(self) -> float:
        return self.barrier.theta

    # per-problem constants of the follower, formed on first use

    @cached_property
    def qr_factors(self) -> tuple:
        """(Q, R^-T) from one reduced factorization A = QR: the
        minimal-norm solution of A'w = r is Q (R^-T r)."""
        Q, R = np.linalg.qr(self.A)
        return Q, np.linalg.inv(R).T

    @cached_property
    def c_inf(self) -> float:
        """||c||_inf, 0 for an empty c (no columns)."""
        return float(np.max(np.abs(self.c), initial=0.0))

    @cached_property
    def c_norm(self) -> float:
        """||c||, finite for finite c; of a strided c's copy, as np.linalg.norm."""
        return _safe_norm(self.c.ravel())

    @cached_property
    def dual_eq_tol(self) -> float:
        """DUAL_EQ_TOL * (1 + ||c||), the dual linear equation's tolerance."""
        return DUAL_EQ_TOL * (1.0 + self.c_norm)


def _cholesky_full_rank(A: np.ndarray) -> bool:
    """True only if A (m x n, 0 < n <= m) provably has sigma_min(A) above
    0.9e-4 sigma_max(A); False leaves the question to the SVD.

    B = 2^-e A has its largest |entry| in [0.5, 1) and is exact but for
    entries 2^1022 times smaller, so B'B neither overflows nor underflows
    to matter.  A Cholesky factor R that completes
    with a finite, hence positive, diagonal for H = fl(B'B) - s I,
    s = 1e-8 ||fl(B'B)||_F >= 1e-8 sigma_max(B)^2, gives R'R = H + dH with
    R'R positive definite.  The rounding of B'B, of the shift and dH
    (Higham, Accuracy and Stability of Numerical Algorithms, SIAM 2002,
    Thm 10.3) sum to less than (m+n) n eps sigma_max(B)^2, eps = 2^-52, so
    while (m+n) n eps < 1e-9 the bound lambda_min(B'B) > s - 1e-9 sigma_max(B)^2
    >= 0.9e-8 sigma_max(B)^2 holds.  Larger A are not screened.
    """
    m, n = A.shape
    if not (m + n) * n * 2.0**-52 < 1e-9:
        return False
    B = np.ldexp(A, -math.frexp(max(A.max(), -A.min()))[1])
    G = B.T @ B
    g = G.reshape(-1)   # a view: matmul's output is C-contiguous
    g[::n + 1] -= 1e-8 * _norm(g)
    try:
        R = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    # OpenBLAS's potrf can pass a NaN pivot that reference LAPACK rejects;
    # it leaves a NaN on the diagonal, which is otherwise finite and positive
    return math.isfinite(R.trace())


def validate_problem(A, c, atoms, xi: float = 2.0, kappa: float = 0.25) -> Problem:
    """Check dimensions, atom coverage, rank and solver constants.

    A must have full column rank with sigma_min(A) > 1e-10 sigma_max(A).
    A shifted Cholesky of A'A (:func:`_cholesky_full_rank`) accepts an A
    whose sigma_min exceeds about 1e-4 sigma_max(A); every other A,
    so every rejection, is decided by the singular values of ``np.linalg.svd``.

    Raises RankDeficient, AtomCoverage or BadConstants, and a plain
    ValidationError for non-finite entries of A or c.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m, n = A.shape
    if c.shape != (n,):
        raise AtomCoverage(f"c has shape {c.shape}, expected ({n},)")
    for name, data in (("A", A), ("c", c)):
        if not np.isfinite(data).all():
            raise ValidationError(f"{name} has non-finite entries")
    atoms = tuple(atoms)
    if not atoms:
        raise AtomCoverage("a problem needs at least one atom; with none, m = 0 and theta = 0")
    problem = Problem(A=A, c=c, atoms=atoms, xi=float(xi), kappa=float(kappa))
    covered = problem.barrier.coords
    if covered != list(range(m)):
        raise AtomCoverage(
            f"atom coords {covered} do not partition the {m} image coordinates")
    xi, kappa, theta = problem.xi, problem.kappa, problem.theta
    if not (1.0 < xi and xi * theta < np.inf):  # y_tau0 and mu are formed with xi * theta
        raise BadConstants(f"xi must exceed 1 and keep xi * theta finite, got xi={xi} "
                           f"theta={theta}")
    if not kappa >= 0.0 or not xi - 1.0 - kappa > 0.0:
        raise BadConstants(f"need kappa >= 0 and xi - 1 - kappa > 0, got xi={xi} kappa={kappa}")
    if n > m:
        raise RankDeficient(f"embedding is {m}x{n}; more columns than rows means a kernel")
    if n > 0 and not _cholesky_full_rank(A):
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise RankDeficient(
                f"smallest singular value {sv[-1]:.3e} below 1e-10 * ||A|| = {1e-10 * sv[0]:.3e}")
    return problem


@dataclass(frozen=True)
class StartData:
    """One problem's anchor, built by :func:`make_start`: z0 interior to D,
    y0 = Phi'(z0), y_tau0 = -<y0, z0> - xi*theta, A'y0, ||A'y0||_inf, ||z0||."""

    z0: np.ndarray
    y0: np.ndarray
    y_tau0: float
    aty0: np.ndarray
    aty0_inf: float
    z0_norm: float


def make_start(problem: Problem, z0=None) -> StartData:
    """Build start data from ``z0`` (default: the barrier's canonical
    interior point).  ``y0`` is always recomputed as the barrier gradient;
    every constant derived from the anchor is formed here, once.  Every
    value formed is compared or checked finite, and NaN fails every
    comparison, so an overflow, a division by zero or an invalid value is
    rejected, not warned of."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if z0 is None:
            z0 = problem.barrier.interior_point()
        else:
            z0 = np.asarray(z0, dtype=float).copy()
            if z0.shape != (problem.m,):
                raise DomainViolation(f"z0 has shape {z0.shape}, expected ({problem.m},)")
            if not problem.barrier.interior(z0, PRIMAL):
                raise DomainViolation("z0 is not strictly interior to the domain")
        y0 = problem.barrier.grad(z0, PRIMAL)
        y_tau0 = float(-(y0 @ z0) - problem.xi * problem.theta)
        aty0 = problem.A.T @ y0
        aty0_inf = float(np.abs(aty0).max(initial=0.0))
        z0_norm = _norm(z0)
    if not all(map(math.isfinite, (y_tau0, aty0_inf, z0_norm))):
        raise DomainViolation("y_tau0, ||A'y0||_inf and ||z0|| must be finite at the anchor")
    return StartData(z0=z0, y0=y0, y_tau0=y_tau0, aty0=aty0, aty0_inf=aty0_inf, z0_norm=z0_norm)


def default_z0(problem: Problem) -> StartData:
    return make_start(problem)


@dataclass(frozen=True)
class Iterate:
    """A point of Q with its cached path parameter and proximity."""

    x: np.ndarray
    tau: float
    y: np.ndarray
    mu: float
    proximity: float


def positive_tau(tau) -> float:
    """``tau`` as a float; DomainViolation unless tau > 0 (NaN is not)."""
    if not tau > 0.0:
        raise DomainViolation(f"tau must be positive, got {tau}")
    return float(tau)


def shifted_image(problem: Problem, start: StartData, x, tau: float) -> np.ndarray:
    """u = A x + z0 / tau, the point whose interiority defines membership;
    DomainViolation unless tau > 0."""
    tau = positive_tau(tau)
    return problem.A @ np.asarray(x, dtype=float) + start.z0 / tau


def dual_equation_residual(problem: Problem, start: StartData, tau: float, y) -> np.ndarray:
    """r = A'(y - y0) + (tau - 1) c, the residual of the dual linear equation."""
    return problem.A.T @ (np.asarray(y) - start.y0) + (float(tau) - 1.0) * problem.c


def dual_residual(problem: Problem, start: StartData, tau: float, y) -> float:
    """Norm of :func:`dual_equation_residual`."""
    return _norm(dual_equation_residual(problem, start, tau, y))


def member_image(problem: Problem, start: StartData, x, tau: float, y):
    """u = A x + z0/tau if tau > 0, u is interior to D and y is interior
    to D*: the interiority half of membership in Q.  None otherwise."""
    try:
        u = shifted_image(problem, start, x, tau)
    except DomainViolation:
        return None
    inside = (problem.barrier.interior(u, PRIMAL)
              and problem.barrier.interior(np.asarray(y, dtype=float), CONJUGATE))
    return u if inside else None


def in_qdd(problem: Problem, start: StartData, x, tau: float, y) -> bool:
    """Membership test for the homogenized set, with the dual linear
    equation checked to tolerance ``problem.dual_eq_tol``."""
    return (member_image(problem, start, x, tau, y) is not None
            and dual_residual(problem, start, tau, y) <= problem.dual_eq_tol)


def mu_of(problem: Problem, start: StartData, x, tau: float, y) -> float:
    """Path parameter of a Q point.

    Uses the form  -( <y, z0> + tau*(y_tau0 + <A'y0 + c, x>) ) / (xi*theta),
    which involves the fewest cancelling terms.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inner = start.y_tau0 + float((start.aty0 + problem.c) @ x)
    return float(-(y @ start.z0 + float(tau) * inner) / (problem.xi * problem.theta))


def _scale_dual(tau: float, y, mu: float) -> np.ndarray:
    """v = (tau/mu) y; DomainViolation unless mu > 0."""
    if not mu > 0.0:
        raise DomainViolation(f"path parameter must be positive, got {mu}")
    return (float(tau) / float(mu)) * np.asarray(y, dtype=float)


def scaled_dual(problem: Problem, tau: float, y, mu: float) -> np.ndarray:
    """v = (tau/mu) y, the point at which proximity evaluates the conjugate
    barrier; DomainViolation unless mu > 0 and v is interior to D*."""
    v = _scale_dual(tau, y, mu)
    if not problem.barrier.interior(v, CONJUGATE):
        raise DomainViolation("scaled dual point left the dual cone interior")
    return v


def proximity_at(problem: Problem, u, tau: float, y, mu: float) -> float:
    """Distance to the path point at parameter ``mu``: || u - conj_grad(v) ||
    in the inverse conjugate-Hessian norm at v = (tau/mu) y, u being the
    shifted image A x + z0/tau its caller formed.  The one proximity formula
    of the follower.  Raises :func:`scaled_dual`'s DomainViolations, its check
    of v being the conjugate evaluation there, then :func:`positive_tau`'s."""
    v = _scale_dual(tau, y, mu)
    try:
        grad, metric = problem.barrier.grad_hess(v, CONJUGATE)
    except DomainViolation as exc:
        raise DomainViolation("scaled dual point left the dual cone interior") from exc
    positive_tau(tau)
    return math.sqrt(max(metric.inv_quad(u - grad), 0.0))


def proximity(problem: Problem, start: StartData, x, tau: float, y) -> float:
    """:func:`make_iterate`'s proximity, at the point's own mu, of a member
    of the homogenized set (mu_of presumes it); DomainViolation otherwise."""
    if not in_qdd(problem, start, x, tau, y):
        raise DomainViolation("proximity is defined on homogenized-set members only")
    return make_iterate(problem, start, x, tau, y).proximity


def make_iterate(problem: Problem, start: StartData, x, tau: float, y) -> Iterate:
    """The point with its own path parameter and the proximity there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = mu_of(problem, start, x, tau, y)
    prox = proximity_at(problem, shifted_image(problem, start, x, tau), tau, y, mu)
    return Iterate(x=x, tau=float(tau), y=y, mu=mu, proximity=prox)


def support_function(problem: Problem, y) -> float:
    """Support of the domain at ``y``; +inf outside the dual cone."""
    return problem.barrier.support(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class GapBounds:
    lower: float
    upper: float


def gap_bounds(problem: Problem, start: StartData, tau: float, mu: float) -> GapBounds:
    """Two-sided bound on the objective gap  <c,x> + support(y)/tau  of
    points within proximity kappa of path parameter ``mu``: the bracket
    alone, the gap being ``status.stop_params``'s ``objective_gap``.

    The bracket width is exactly (2*kappa*sqrt(theta) + theta) * mu / tau^2.
    Raises DomainViolation unless tau > 0, as :func:`proximity_at` does.
    """
    tau = positive_tau(tau)
    th = problem.theta
    center = -(start.y_tau0 / tau + problem.xi * mu * th / tau**2)
    spread = problem.kappa * mu * np.sqrt(th) / tau**2
    return GapBounds(lower=center - spread, upper=center + spread + mu * th / tau**2)
