"""Barrier calculus for the atom product domain.

The feasible set is a product of atoms, each a shifted copy of a canonical
convex set equipped with a logarithmic barrier whose Legendre-Fenchel
conjugate is known in closed form:

    halfline_lower  {z : z + d >= l}      -ln(z + d - l)            theta = 1
    halfline_upper  {z : z + d <= u}      -ln(u - d - z)            theta = 1
    box             {z : l <= z + d <= u} -ln(z+d-l) - ln(u-d-z)    theta = 2
    soc             {z : z + d in K}      -ln(w1^2 - |wbar|^2)      theta = 2

where K is the second-order cone {w : w1 >= |wbar|} and w = z + d.  The
conjugate of a shifted barrier picks up a linear term:
Phi*(y) = phi*(y) - <y, d> on the (unshifted) dual cone factor.

Atom kinds are known in this module only.  :class:`DomainBarrier` groups
the atoms once: one vectorized interval group for all halflines and boxes
and one group per cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainViolation, FactorizationFailure

HALFLINE_LOWER = "halfline_lower"
HALFLINE_UPPER = "halfline_upper"
BOX = "box"
SOC = "soc"

ATOM_THETA = {HALFLINE_LOWER: 1.0, HALFLINE_UPPER: 1.0, BOX: 2.0, SOC: 2.0}
# which of (lower, upper) each kind takes
ATOM_BOUNDS = {HALFLINE_LOWER: (True, False), HALFLINE_UPPER: (False, True),
               BOX: (True, True), SOC: (False, False)}
# whether each kind is a cone: a cone takes at least two coordinates, the rest one
ATOM_CONE = {HALFLINE_LOWER: False, HALFLINE_UPPER: False, BOX: False, SOC: True}

PRIMAL = "primal"
CONJUGATE = "conjugate"

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class BarrierAtom:
    """One factor of the domain: kind, coordinates, shift and bounds.

    ``coords`` are 0-based indices into the image space.  Membership of a
    point ``z`` is tested as ``z[coords] + offset`` against the canonical
    set, so the atom's own set is the canonical set shifted by ``-offset``.
    """

    kind: str
    coords: tuple
    offset: tuple
    lower: float | None = None
    upper: float | None = None
    theta: float = field(init=False)

    def __post_init__(self):
        kind, lower, upper = self.kind, self.lower, self.upper
        if kind not in ATOM_THETA:
            raise ValueError(f"unknown atom kind {kind!r}")
        coords, offset = tuple(map(int, self.coords)), tuple(map(float, self.offset))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "theta", ATOM_THETA[kind])
        k = len(coords)
        if len(offset) != k:
            raise ValueError("offset length must match coords length")
        if ATOM_CONE[kind]:
            if k < 2:
                raise ValueError(f"{kind} atom needs at least 2 coordinates")
        elif k != 1:
            raise ValueError(f"{kind} atom takes exactly one coordinate")
        takes = ATOM_BOUNDS[kind]
        if (lower is not None, upper is not None) != takes:
            takes = [name for name, used in zip(("lower", "upper"), takes) if used]
            raise ValueError(f"{kind} atom takes bounds {takes}, "
                             f"got lower={lower} upper={upper}")
        fault = _value_fault(kind, offset, lower, upper)
        if fault is not None:
            raise ValueError(fault)

    @classmethod
    def _checked(cls, kind: str, coords: tuple, offset: tuple, lower, upper) -> BarrierAtom:
        """The atom of fields that hold every rule above, in the types
        ``__post_init__`` gives them (a tuple of ints, a tuple of floats,
        floats or None), built without testing them again: for a caller
        that has tested each rule once already."""
        atom = object.__new__(cls)
        fields = atom.__dict__
        fields["kind"], fields["coords"], fields["offset"] = kind, coords, offset
        fields["lower"], fields["upper"], fields["theta"] = lower, upper, ATOM_THETA[kind]
        return atom

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def offset_vec(self) -> np.ndarray:
        return np.asarray(self.offset, dtype=float)


def _value_fault(kind: str, offset: tuple, lower, upper) -> str | None:
    """Why an atom's numbers break the rules on them, finite bounds and
    offset and then a box's lower < upper; None when they hold."""
    if not (all(map(math.isfinite, offset)) and (lower is None or math.isfinite(lower))
            and (upper is None or math.isfinite(upper))):
        return f"{kind} atom bounds and offset must be finite"
    if kind == BOX and not lower < upper:
        return "box atom requires lower < upper"
    return None


def halfline_lower(coord: int, lower: float = 0.0, offset: float = 0.0) -> BarrierAtom:
    return BarrierAtom(HALFLINE_LOWER, (coord,), (offset,), lower=float(lower))


def halfline_upper(coord: int, upper: float = 0.0, offset: float = 0.0) -> BarrierAtom:
    return BarrierAtom(HALFLINE_UPPER, (coord,), (offset,), upper=float(upper))


def box(coord: int, lower: float, upper: float, offset: float = 0.0) -> BarrierAtom:
    return BarrierAtom(BOX, (coord,), (offset,), lower=float(lower), upper=float(upper))


def soc(coords: Sequence[int], offset: Sequence[float] | None = None) -> BarrierAtom:
    if offset is None:
        offset = (0.0,) * len(tuple(coords))
    return BarrierAtom(SOC, tuple(coords), tuple(offset))


def _norm(t: np.ndarray):
    """Euclidean norm of a contiguous 1-d array: the formula np.linalg.norm
    itself uses for it, so the same bits, without its dispatch."""
    return math.sqrt(t.dot(t))


def _safe_norm(t: np.ndarray) -> float:
    """``_norm(t)``, except where its sum of squares overflows for a finite
    ``t`` (an entry past about 1.3e154): there the norm of ``t`` scaled by
    its largest |entry|, times that entry."""
    with np.errstate(over="ignore"):
        norm = _norm(t)
    if norm == math.inf and np.isfinite(t).all():
        scale = float(np.max(np.abs(t)))
        return scale * _norm(t / scale)
    return norm


def _selector(coords):
    """The index that reads a group's coordinates: a basic slice when they
    are consecutive and ascending, so reads are views and writes need no
    scatter, the index array otherwise.  The closed forms never write into
    what it reads."""
    first, k = coords[0], len(coords)
    if list(coords) == list(range(first, first + k)):
        return slice(first, first + k)
    return np.asarray(coords)


def _first_exit(slack: np.ndarray, dslack: np.ndarray) -> float:
    """Smallest s > 0 at which some positive slack + s * dslack reaches 0."""
    hit = (dslack < 0.0) & (slack > 0.0)
    return float((slack[hit] / -dslack[hit]).min(initial=np.inf))


class _IntervalGroup:
    """Every halfline and box atom: lower <= z + d <= upper per coordinate,
    a missing side being an infinite bound.

    The dual factor of {w >= l} is y <= 0, of {w <= u} is y >= 0 and of a
    box the whole line, so both sides are intervals.  Halflines come
    before boxes, so each conjugate closed form acts on one slice.
    """

    def __init__(self, atoms: Sequence[BarrierAtom], nh: int):
        """``atoms``: the ``nh`` halflines, then the boxes."""
        coords, d, lower, upper = zip(*[
            (a.coords[0], a.offset[0], -np.inf if a.lower is None else a.lower,
             np.inf if a.upper is None else a.upper) for a in atoms])
        self.sel = _selector(coords)
        self.d, self.lower, self.upper = np.array([d, lower, upper])
        no_lower = self.lower == -np.inf
        self.bounds = {
            PRIMAL: (self.lower, self.upper),
            CONJUGATE: (np.where(no_lower, 0.0, -np.inf),
                        np.where(self.upper == np.inf, 0.0, np.inf)),
        }
        self.nh = nh
        # bounds on the unshifted coordinate, for the support function and
        # the conjugates: each halfline's finite bound, each box's corner
        # and width; one beyond float range is infinite, without a warning
        # (a halfline's then leaves no finite interior point for make_start)
        with np.errstate(over="ignore"):
            self.lower_sh, self.upper_sh = self.lower - self.d, self.upper - self.d
            self.box_width = (self.upper - self.lower)[nh:]
        self.half_bound = np.where(no_lower, self.upper_sh, self.lower_sh)[:nh]
        self.box_lo = self.lower_sh[nh:]

    def _slacks(self, z, side):
        """(w, s_lo, s_hi): the group's point and its slacks to the lower
        and upper bounds of the side, every membership test's input."""
        w = z[self.sel]
        if side == PRIMAL:
            w = w + self.d
        lo, hi = self.bounds[side]
        return w, w - lo, hi - w

    def _box_slacks(self, y):
        """(s, width - s) at the maximizer s of y*s + ln s + ln(width - s).

        The smaller slack takes the root form whose denominator has no
        cancellation for either sign of t = y*width; the larger one, at
        least width/2, is its difference from the width.
        """
        t = y * self.box_width
        small = 2.0 * self.box_width / (2.0 + np.abs(t) + np.sqrt(t * t + 4.0))
        large = self.box_width - small
        upper_side = t > 0.0
        return np.where(upper_side, large, small), np.where(upper_side, small, large)

    def margins(self, z, side):
        _, s_lo, s_hi = self._slacks(z, side)
        return np.minimum(s_lo, s_hi)

    def interior(self, z, side):
        _, s_lo, s_hi = self._slacks(z, side)
        return np.minimum(s_lo, s_hi).min() > 0.0

    def _point(self, z, side):
        """(w, s_lo, s_hi) read by the closed forms at a strictly interior
        z: the bound slacks on the primal side, the box conjugate's slack
        pair on the conjugate side."""
        w, s_lo, s_hi = self._slacks(z, side)
        if not np.minimum(s_lo, s_hi).min() > 0.0:
            raise DomainViolation(f"interval atom: point not strictly interior ({side} side)")
        if side == CONJUGATE:
            s_lo, s_hi = self._box_slacks(w[self.nh:])
        return w, s_lo, s_hi

    def value(self, z, side):
        w, s_lo, s_hi = self._point(z, side)
        if side == PRIMAL:
            return -(np.sum(np.log(s_lo[s_lo < np.inf])) + np.sum(np.log(s_hi[s_hi < np.inf])))
        yh, yb = w[:self.nh], w[self.nh:]
        return (np.sum(-1.0 - np.log(np.abs(yh)) + self.half_bound * yh)
                + np.sum(yb * (self.box_lo + s_lo) + np.log(s_lo) + np.log(s_hi)))

    def evaluate(self, z, side):
        """(gradient, metric block) at z, the block the diagonal h;
        FactorizationFailure unless every entry of h is positive and
        finite, so the gradient is accepted exactly where the metric is."""
        w, s_lo, s_hi = self._point(z, side)
        if side == PRIMAL:
            g, h = -1.0 / s_lo + 1.0 / s_hi, 1.0 / s_lo**2 + 1.0 / s_hi**2
        else:
            nh, yh = self.nh, w[:self.nh]
            g, h = np.empty(w.shape), np.empty(w.shape)
            np.subtract(self.half_bound, 1.0 / yh, out=g[:nh])
            np.add(self.box_lo, s_lo, out=g[nh:])
            np.divide(1.0, yh**2, out=h[:nh])
            np.divide(1.0, 1.0 / s_lo**2 + 1.0 / s_hi**2, out=h[nh:])
        if not ((h > 0.0) & (h < np.inf)).all():
            raise FactorizationFailure("diagonal metric entry is not positive and finite")
        return g, _DiagonalBlock(h)

    def support(self, y):
        y, s_lo, s_hi = self._slacks(y, CONJUGATE)
        if not ((s_lo >= 0.0) & (s_hi >= 0.0)).all():
            return np.inf
        # at y = 0 the term is 0; an infinite bound must not meet it
        bound = np.where(y > 0.0, self.upper_sh, np.where(y < 0.0, self.lower_sh, 0.0))
        return float((bound * y).sum())

    def step_to_boundary(self, z, dz, side):
        _, s_lo, s_hi = self._slacks(z, side)
        dw = dz[self.sel]
        return min(_first_exit(s_lo, dw), _first_exit(s_hi, -dw))

    def interior_point(self):
        mid = np.where(self.lower == -np.inf, self.upper - 1.0,
                       np.where(self.upper == np.inf, self.lower + 1.0,
                                0.5 * (self.lower + self.upper)))
        return mid - self.d


class _ConeGroup:
    """One second-order cone atom: z + d in K (primal), -y in K (dual)."""

    def __init__(self, atom: BarrierAtom):
        self.sel = _selector(atom.coords)
        self.d = atom.offset_vec
        self.sign = np.empty(atom.dim)   # (1, -1, ..., -1), without np.full's dispatch
        self.sign.fill(-1.0)
        self.sign[0] = 1.0
        self.neg2sign = -2.0 * self.sign   # scaling by -2 is exact: same gradient bits

    def _canonical(self, z, side):
        """w, the canonical cone point: z + d (primal) or -y (dual)."""
        w = z[self.sel]
        return w + self.d if side == PRIMAL else -w

    def _slacks(self, z, side):
        """(w, head, t): the canonical cone point, its head and its tail
        norm, every membership test's input; the margin is head - t."""
        w = self._canonical(z, side)
        return w, w[0], _norm(w[1:])

    def interior(self, z, side):
        _, head, t = self._slacks(z, side)
        return head - t > 0.0

    def _point(self, z, side):
        """(w, head, t, q) of a strictly interior z, q = (head - t)(head + t)."""
        w, head, t = self._slacks(z, side)
        if not head - t > 0.0:
            raise DomainViolation(f"soc atom: point not strictly interior ({side} side)")
        return w, head, t, (head - t) * (head + t)

    def margins(self, z, side):
        _, head, t = self._slacks(z, side)
        return (head - t)[None]

    def value(self, z, side):
        _, _, _, q = self._point(z, side)
        if side == PRIMAL:
            return -np.log(q)
        return -2.0 + np.log(4.0) - np.log(q) - z[self.sel] @ self.d

    def evaluate(self, z, side):
        """(gradient, metric block) at z, the block the spectral form of the
        point, its tail norm and the metric's three eigenvalues;
        FactorizationFailure unless every eigenvalue is positive and
        finite, so the gradient is accepted exactly where the metric is."""
        # up to a constant, the conjugate at y is the primal barrier at
        # w = -y less <y, d>: its gradient is minus the primal one at w,
        # less d, and its Hessian the primal one at w
        w, head, t, q = self._point(z, side)
        lam_plus, lam_minus = 2.0 / (head - t) ** 2, 2.0 / (head + t) ** 2
        # lam_plus >= lam_tail = 2/q >= lam_minus, so the extremes decide
        if not (lam_minus > 0.0 and lam_plus < np.inf):
            raise FactorizationFailure("soc metric eigenvalue is not positive and finite")
        g = self.neg2sign * w / q
        return ((g if side == PRIMAL else -g - self.d),
                _SocBlock(w, t, lam_plus, lam_minus, 2.0 / q))

    def support(self, y):
        w, head, t = self._slacks(y, CONJUGATE)
        if not head - t >= 0.0:
            return np.inf
        return float(w @ self.d)

    def step_to_boundary(self, z, dz, side):
        w = self._canonical(z, side)
        head = w[0]
        dw = dz[self.sel] if side == PRIMAL else -dz[self.sel]
        # boundary of {w1 >= |wbar|} along the ray: quadratic in s
        sdw = self.sign * dw
        a = float(dw @ sdw)
        b = 2.0 * float(w @ sdw)
        c0 = float(w @ (self.sign * w))
        roots = []
        if abs(a) > 0.0:
            disc = b * b - 4.0 * a * c0
            if disc >= 0.0:
                sq = np.sqrt(disc)
                roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
        elif b != 0.0:
            roots = [-c0 / b]
        pos = [r for r in roots if r > 0.0]
        # the head can also cross zero before the quadratic does
        if dw[0] < 0.0 and head > 0.0:
            pos.append(-head / dw[0])
        return min(pos, default=np.inf)

    def interior_point(self):
        w = np.zeros(self.d.size)
        w[0] = 2.0
        return w - self.d


class _DiagonalBlock:
    """Diagonal metric block over the interval coordinates; its group has
    checked every entry positive and finite."""

    def __init__(self, h: np.ndarray):
        self.h = h

    def _column(self, v):
        return self.h if v.ndim == 1 else self.h[:, None]

    def matvec(self, v):
        return self._column(v) * v

    def solve(self, v):
        return v / self._column(v)

    def inv_quad(self, v):
        return float((v * v / self.h).sum())


class _SocBlock:
    """Second-order-cone barrier Hessian in spectral form.

    For w interior to the cone with head w1 and tail norm t, the Hessian
    -2J/q + 4(Jw)(Jw)'/q^2 has eigenvalue 2/(w1-t)^2 on (1, -wbar/t)/sqrt2,
    2/(w1+t)^2 on (1, wbar/t)/sqrt2, and 2/q on the tail complement.
    Working with these closed forms stays accurate at conditioning where a
    dense Cholesky of the assembled matrix breaks down.  ``matvec`` and
    ``solve`` act on a vector or on the columns of a (k, r) array.  Its
    group has formed the three eigenvalues and checked them positive and
    finite; the block derives only the tail's unit direction.
    """

    def __init__(self, w: np.ndarray, t: float, lam_plus, lam_minus, lam_tail):
        self.k = w.shape[0]
        self.unit = w[1:] / t if t > 0.0 else np.zeros(self.k - 1)
        self.lam_plus, self.lam_minus, self.lam_tail = lam_plus, lam_minus, lam_tail

    def _unit_for(self, v):
        """The tail's unit direction, as a column when v holds columns."""
        return self.unit if v.ndim == 1 else self.unit[:, None]

    def _split(self, v):
        """(a, b, perp); perp is a new array the callers may scale in place."""
        head, tail = v[0], v[1:]
        proj = self.unit @ tail
        perp = self._unit_for(v) * proj
        np.subtract(tail, perp, out=perp)
        a = (head + proj) / _SQRT2   # coefficient on (1, unit)/sqrt(2)
        b = (head - proj) / _SQRT2   # coefficient on (1, -unit)/sqrt(2)
        return a, b, perp

    def _assemble(self, a, b, perp):
        out = np.empty((self.k,) + perp.shape[1:])
        out[0] = (a + b) / _SQRT2
        np.multiply(self._unit_for(perp), (a - b) / _SQRT2, out=out[1:])
        out[1:] += perp
        return out

    def matvec(self, v):
        a, b, perp = self._split(v)
        perp *= self.lam_tail
        return self._assemble(self.lam_minus * a, self.lam_plus * b, perp)

    def solve(self, v):
        a, b, perp = self._split(v)
        perp /= self.lam_tail
        return self._assemble(a / self.lam_minus, b / self.lam_plus, perp)

    def inv_quad(self, v):
        a, b, perp = self._split(v)
        return (a * a / self.lam_minus + b * b / self.lam_plus
                + float(perp @ perp) / self.lam_tail)


class BlockMetric:
    """Block-diagonal metric over the atom product: a diagonal block over
    the interval coordinates and a spectral block per cone.

    ``matvec`` and ``solve`` take a vector of length m or an (m, k) array,
    whose columns they transform in one call.
    """

    def __init__(self, m: int, blocks: Sequence):
        self.m = m
        self.blocks = list(blocks)   # (coordinate selector, block) pairs

    def dense(self) -> np.ndarray:
        return self.matvec(np.eye(self.m))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        for sel, blk in self.blocks:
            out[sel] = blk.matvec(v[sel])
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        for sel, blk in self.blocks:
            out[sel] = blk.solve(v[sel])
        return out

    def quad(self, v: np.ndarray) -> float:
        return float(v @ self.matvec(v))

    def inv_quad(self, v: np.ndarray) -> float:
        """v' H^-1 v, one structured block solve per group."""
        return float(sum(blk.inv_quad(v[sel]) for sel, blk in self.blocks))


class DomainBarrier:
    """Product barrier over an atom list covering the image space.

    The atoms are grouped once, here, in one pass: one interval group holds
    every halfline and box, and each cone is a group of its own.  A group
    with no atoms is not built.  Each method is a loop over the groups;
    ``grad`` and ``hess`` are the two halves of ``grad_hess``'s.
    """

    def __init__(self, atoms: Sequence[BarrierAtom], m: int):
        self.m = int(m)
        self.theta, coords, halflines, boxes, cones = 0.0, [], [], [], []
        for a in atoms:
            self.theta += a.theta
            coords += a.coords
            if a.kind == SOC:
                cones.append(_ConeGroup(a))
            else:
                (boxes if a.kind == BOX else halflines).append(a)
        # the atoms' coordinates in order: range(m) when they partition the image space
        self.coords = sorted(coords)
        self.groups = ([_IntervalGroup(halflines + boxes, len(halflines))]
                       if halflines or boxes else []) + cones

    def _require_finite(self, z: np.ndarray, side: str) -> None:
        """DomainViolation unless z is finite, which no slack test checks at
        a cone head of +inf."""
        if not np.isfinite(z).all():
            raise DomainViolation(f"point has non-finite entries ({side} side)")

    def value(self, z: np.ndarray, side: str = PRIMAL) -> float:
        self._require_finite(z, side)
        return float(sum(g.value(z, side) for g in self.groups))

    def grad_hess(self, z: np.ndarray, side: str = PRIMAL) -> tuple:
        """(gradient, Hessian) at z from one pass over the groups: each
        group's one evaluation checks z and forms its slacks once for both."""
        self._require_finite(z, side)
        out = np.zeros(self.m)
        blocks = []
        for g in self.groups:
            out[g.sel], blk = g.evaluate(z, side)
            blocks.append((g.sel, blk))
        return out, BlockMetric(self.m, blocks)

    def grad(self, z: np.ndarray, side: str = PRIMAL) -> np.ndarray:
        return self.grad_hess(z, side)[0]

    def hess(self, z: np.ndarray, side: str = PRIMAL) -> BlockMetric:
        return self.grad_hess(z, side)[1]

    def support(self, y: np.ndarray) -> float:
        total = 0.0
        for g in self.groups:
            s = g.support(y)
            if np.isinf(s):
                return np.inf
            total += s
        return total

    def margins(self, z: np.ndarray, side: str = PRIMAL) -> np.ndarray:
        """One slack per atom at the point z, interval atoms first, then
        one per cone."""
        return np.concatenate([g.margins(z, side) for g in self.groups])

    def min_margin(self, z: np.ndarray, side: str = PRIMAL) -> float:
        return float(np.min(self.margins(z, side)))

    def interior(self, z: np.ndarray, side: str = PRIMAL) -> bool:
        """Strict interiority: z is finite (tested here, as no slack test
        checks a cone head of +inf), then each group in turn tests its
        slacks as its closed forms do; stops at the first one outside."""
        if not np.isfinite(z).all():
            return False
        for g in self.groups:
            if not g.interior(z, side):
                return False
        return True

    def step_to_boundary(self, z: np.ndarray, dz: np.ndarray, side: str = PRIMAL) -> float:
        """sup { t : z + s*dz stays in the closed set for s in [0, t] }.

        Exact for linear motion; +inf when the ray never exits.
        """
        return min((g.step_to_boundary(z, dz, side) for g in self.groups), default=np.inf)

    def interior_point(self) -> np.ndarray:
        """A canonical strictly interior point: one unit inside each
        halfline, the middle of each box, (2, 0, ..., 0) in each cone."""
        z = np.zeros(self.m)
        for g in self.groups:
            z[g.sel] = g.interior_point()
        return z
