"""Seeded instance families for the solve benchmark.

Every instance is built backwards from a witness, so its class is known
before the solver sees it:

  feasible     A x_bar is interior to the domain and y_bar is interior to
               the dual cone with c = -A'y_bar: strictly primal-dual
               feasible, expected status EpsSolution.
  infeasible   y_hat is interior to the dual cone with A'y_hat = 0 and
               support(y_hat) < 0: strictly infeasible, expected status
               InfeasibilityCertificate.
  unbounded    A r is interior to the recession cone, <c, r> < 0, and
               A x_bar is interior: strictly unbounded, expected status
               UnboundednessCertificate.

:func:`check_witness` re-checks the witness from the problem data, and
every builder calls it before returning, so a generator bug stops the
benchmark instead of being counted as a solver failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ddsolve as dd
from ddsolve.barriers import BOX, CONJUGATE, HALFLINE_LOWER, HALFLINE_UPPER, PRIMAL, SOC

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EXPECTED_STATUS = {
    FEASIBLE: "EpsSolution",
    INFEASIBLE: "InfeasibilityCertificate",
    UNBOUNDED: "UnboundednessCertificate",
}

# relative tolerance on the linear witness equations (c = -A'y, A'y = 0)
WITNESS_EQ_TOL = 1e-10

SCALAR_KINDS = (HALFLINE_LOWER, HALFLINE_UPPER, BOX)
HALFLINES = (HALFLINE_LOWER, HALFLINE_UPPER)


class WitnessError(AssertionError):
    """A generated instance does not satisfy the witness it was built from."""


@dataclass(frozen=True)
class Instance:
    """Problem data with its known class and the witness behind it."""

    name: str
    kind: str              # FEASIBLE | INFEASIBLE | UNBOUNDED
    A: np.ndarray
    c: np.ndarray
    atoms: tuple
    witness: dict          # "x" (interior point), "y" (dual direction), "r" (ray)

    @property
    def expected(self) -> str:
        return EXPECTED_STATUS[self.kind]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def problem_document(self) -> dict:
        """The instance in the CLI problem-file format (1-based coords)."""
        atoms = []
        for atom in self.atoms:
            entry = {"type": atom.kind, "coords": [i + 1 for i in atom.coords]}
            if atom.kind == SOC:
                entry["offset"] = list(atom.offset)
            else:
                entry["offset"] = atom.offset[0]
                if atom.kind == HALFLINE_LOWER:
                    entry["bounds"] = atom.lower
                elif atom.kind == HALFLINE_UPPER:
                    entry["bounds"] = atom.upper
                else:
                    entry["bounds"] = [atom.lower, atom.upper]
            atoms.append(entry)
        return {"n": self.n, "m": self.m, "A": self.A.tolist(), "c": self.c.tolist(),
                "atoms": atoms}


def _layout(rng, n_scalar: int, soc_dims, scalar_kinds):
    """(kind, coords) per atom: the scalar atoms first, then the cones."""
    kinds = rng.choice(scalar_kinds, size=n_scalar)
    blocks = [(str(k), [i]) for i, k in enumerate(kinds)]
    coord = n_scalar
    for k in soc_dims:
        blocks.append((SOC, list(range(coord, coord + k))))
        coord += k
    return blocks, coord


def _cone_point(rng, k: int, sign: float = 1.0) -> np.ndarray:
    """A point of sign*K with head exceeding the tail norm by 0.5 to 2."""
    tail = rng.normal(size=k - 1)
    return sign * np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.5, 2.0)], tail])


def _atoms_around(rng, blocks, z: np.ndarray) -> tuple:
    """Atoms of the given layout with ``z`` strictly interior to each."""
    atoms = []
    for kind, coords in blocks:
        idx = np.asarray(coords)
        if kind == SOC:
            atoms.append(dd.soc(coords, _cone_point(rng, len(coords)) - z[idx]))
            continue
        offset = float(rng.normal())
        w = float(z[idx[0]]) + offset
        if kind == HALFLINE_LOWER:
            atoms.append(dd.halfline_lower(coords[0], w - rng.uniform(0.3, 2.0), offset))
        elif kind == HALFLINE_UPPER:
            atoms.append(dd.halfline_upper(coords[0], w + rng.uniform(0.3, 2.0), offset))
        else:
            atoms.append(dd.box(coords[0], w - rng.uniform(0.3, 1.5),
                                w + rng.uniform(0.3, 1.5), offset))
    return tuple(atoms)


def _dual_interior(rng, blocks, m: int) -> np.ndarray:
    """A point strictly interior to the dual cone of the layout."""
    y = np.zeros(m)
    for kind, coords in blocks:
        idx = np.asarray(coords)
        if kind == SOC:
            y[idx] = _cone_point(rng, len(coords), sign=-1.0)
        elif kind == HALFLINE_LOWER:
            y[idx] = -rng.uniform(0.2, 2.0)
        elif kind == HALFLINE_UPPER:
            y[idx] = rng.uniform(0.2, 2.0)
        else:
            y[idx] = rng.normal()
    return y


def _translated(atoms, delta: np.ndarray) -> tuple:
    """The same atoms with every offset raised by ``delta[coords]``, which
    moves each atom set by ``-delta``."""
    out = []
    for atom in atoms:
        off = atom.offset_vec + delta[np.asarray(atom.coords)]
        if atom.kind == SOC:
            out.append(dd.soc(atom.coords, off))
        elif atom.kind == HALFLINE_LOWER:
            out.append(dd.halfline_lower(atom.coords[0], atom.lower, off[0]))
        elif atom.kind == HALFLINE_UPPER:
            out.append(dd.halfline_upper(atom.coords[0], atom.upper, off[0]))
        else:
            out.append(dd.box(atom.coords[0], atom.lower, atom.upper, off[0]))
    return tuple(out)


def recession_margins(atoms, v: np.ndarray) -> np.ndarray:
    """Per-atom slack of ``v`` in the recession cone of each atom set; a
    box has the recession cone {0}, whose interior is empty (-inf)."""
    out = []
    for atom in atoms:
        w = v[np.asarray(atom.coords)]
        if atom.kind == HALFLINE_LOWER:
            out.append(float(w[0]))
        elif atom.kind == HALFLINE_UPPER:
            out.append(float(-w[0]))
        elif atom.kind == BOX:
            out.append(-np.inf)
        else:
            out.append(float(w[0] - np.linalg.norm(w[1:])))
    return np.array(out)


def check_witness(inst: Instance) -> None:
    """Re-check the instance's witness from its data; raise WitnessError."""
    try:
        problem = dd.validate_problem(inst.A, inst.c, inst.atoms)
    except dd.ValidationError as exc:
        raise WitnessError(f"{inst.name}: data rejected: {exc}") from exc
    barrier = problem.barrier
    w = inst.witness
    scale = 1.0 + float(np.linalg.norm(inst.A)) * (1.0 + float(np.linalg.norm(w.get("y", 0.0))))
    if inst.kind == FEASIBLE:
        if not barrier.interior(inst.A @ w["x"], PRIMAL):
            raise WitnessError(f"{inst.name}: A x_bar is not interior")
        if not barrier.interior(w["y"], CONJUGATE):
            raise WitnessError(f"{inst.name}: y_bar is not dual-interior")
        if np.linalg.norm(inst.c + inst.A.T @ w["y"]) > WITNESS_EQ_TOL * scale:
            raise WitnessError(f"{inst.name}: c != -A'y_bar")
    elif inst.kind == INFEASIBLE:
        if np.linalg.norm(inst.A.T @ w["y"]) > WITNESS_EQ_TOL * scale:
            raise WitnessError(f"{inst.name}: A'y_hat != 0")
        if not barrier.interior(w["y"], CONJUGATE):
            raise WitnessError(f"{inst.name}: y_hat is not dual-interior")
        if not barrier.support(w["y"]) < 0.0:
            raise WitnessError(f"{inst.name}: support(y_hat) is not negative")
    elif inst.kind == UNBOUNDED:
        if not np.all(recession_margins(inst.atoms, inst.A @ w["r"]) > 0.0):
            raise WitnessError(f"{inst.name}: A r is not interior to the recession cone")
        if not float(inst.c @ w["r"]) < 0.0:
            raise WitnessError(f"{inst.name}: <c, r> is not negative")
        if not barrier.interior(inst.A @ w["x"], PRIMAL):
            raise WitnessError(f"{inst.name}: A x_bar is not interior")
    else:
        raise WitnessError(f"{inst.name}: unknown kind {inst.kind!r}")


def _checked(inst: Instance) -> Instance:
    check_witness(inst)
    return inst


def feasible(rng, name: str, n: int, n_scalar: int, soc_dims) -> Instance:
    """Strictly feasible instance: image anchored at A x_bar, c = -A'y_bar."""
    blocks, m = _layout(rng, n_scalar, soc_dims, SCALAR_KINDS)
    A = rng.normal(size=(m, n))
    x_bar = rng.normal(size=n)
    atoms = _atoms_around(rng, blocks, A @ x_bar)
    y_bar = _dual_interior(rng, blocks, m)
    return _checked(Instance(name, FEASIBLE, A, -A.T @ y_bar, atoms,
                             {"x": x_bar, "y": y_bar}))


def infeasible(rng, name: str, n: int, n_scalar: int, soc_dims) -> Instance:
    """Strictly infeasible instance: A'y_hat = 0 for a dual-interior y_hat,
    and the atoms translated along y_hat until support(y_hat) < 0."""
    blocks, m = _layout(rng, n_scalar, soc_dims, SCALAR_KINDS)
    y_hat = _dual_interior(rng, blocks, m)
    A0 = rng.normal(size=(m, n))
    A = A0 - np.outer(y_hat, y_hat @ A0) / float(y_hat @ y_hat)
    atoms = _atoms_around(rng, blocks, rng.normal(size=m))
    # raising the offsets by delta lowers the support at y_hat by <y_hat, delta>
    target = rng.uniform(0.5, 2.0)
    alpha = dd.DomainBarrier(atoms, m).support(y_hat) + target
    atoms = _translated(atoms, alpha * y_hat / float(y_hat @ y_hat))
    return _checked(Instance(name, INFEASIBLE, A, rng.normal(size=n), atoms, {"y": y_hat}))


def unbounded(rng, name: str, n: int, n_scalar: int, soc_dims) -> Instance:
    """Strictly unbounded instance: halflines and cones only (a box has no
    recession direction), A r recession-interior and <c, r> < 0."""
    blocks, m = _layout(rng, n_scalar, soc_dims, HALFLINES)
    v = np.zeros(m)
    for kind, coords in blocks:
        idx = np.asarray(coords)
        if kind == SOC:
            v[idx] = _cone_point(rng, len(coords))
        else:
            v[idx] = rng.uniform(0.5, 2.0) * (1.0 if kind == HALFLINE_LOWER else -1.0)
    r = rng.normal(size=n)
    A0 = rng.normal(size=(m, n))
    A = A0 + np.outer(v - A0 @ r, r) / float(r @ r)
    x_bar = rng.normal(size=n)
    atoms = _atoms_around(rng, blocks, A @ x_bar)
    c0 = rng.normal(size=n)
    gamma = rng.uniform(0.5, 1.5) * float(np.linalg.norm(c0) * np.linalg.norm(r))
    c = c0 - ((c0 @ r + gamma) / float(r @ r)) * r
    return _checked(Instance(name, UNBOUNDED, A, c, atoms, {"x": x_bar, "r": r}))
