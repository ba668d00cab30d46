"""Integral and mod-p cohomology of the de Rham complex, with lifts.

Generator lifts are retained for every group so induced maps (Frobenius,
connecting maps) can be computed later against the same identifications;
results are cached per (r, n) and (r, n, p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from . import modp
from .abgroups import FgAbGroup, Homomorphism, homology_at
from .derham import (
    basis,
    cartier_rep_matrix,
    complex_z,
    dim_formula,
    koszul_blocks,
)
from .intlinalg import IntMatrix, snf, unimodular_inverse
from .modp import check_prime


@dataclass(frozen=True)
class HDegree:
    i: int
    group: FgAbGroup
    lift: IntMatrix          # cochain representatives of the generators


@dataclass(frozen=True)
class CohomologyResult:
    r: int
    n: int
    degrees: tuple

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def group(self, i: int) -> FgAbGroup:
        if 0 <= i <= self.top:
            return self.degrees[i].group
        return FgAbGroup.zero()

    def lift(self, i: int) -> IntMatrix:
        if 0 <= i <= self.top:
            return self.degrees[i].lift
        return IntMatrix.zeros(dim_formula(self.r, self.n, i), 0)

    def express(self, i: int, z: Sequence[int]) -> tuple:
        """Class coordinates of an integer cocycle on the stored generators."""
        from .intlinalg import lattice_solve

        y = lattice_solve(self.lift(i), z)
        if y is None:
            raise ValueError(f"not a cocycle in degree {i}")
        return y


@lru_cache(maxsize=None)
def integral_cohomology(r: int, n: int) -> CohomologyResult:
    """H^i over Z for every degree of the total-degree-n complex.

    The complex is the direct sum of its multidegree blocks
    (derham.koszul_blocks), so H^i is the sum of the blocks' H^i.  Each
    block's H^i comes from homology_at on its own differentials; its
    generators are then moved to the Smith-adapted basis of its relations.
    H^i is presented by the square diagonal matrix of the Smith entries,
    and the lift columns (each block's generators at its global indices,
    blocks in basis order) are a basis of the integer cocycles.
    """
    blocks = koszul_blocks(r, n)
    degrees = []
    for i in range(min(n, r) + 1):
        diag = []
        placed = []          # (global rows, generator columns) per block
        for blk in blocks:
            if i >= len(blk.cells):
                continue
            d_out = blk.differentials[i]
            d_in = (blk.differentials[i - 1] if i
                    else IntMatrix.zeros(d_out.ncols, 0))
            G, K = homology_at(d_in, d_out)
            if not K.ncols:
                continue
            S, U, _ = snf(G.relations)
            gens = K @ unimodular_inverse(U)
            diag += [S[t, t] for t in range(min(S.shape))]
            diag += [0] * (K.ncols - min(S.shape))
            placed.append((blk.cells[i], gens))
        degrees.append(HDegree(i, FgAbGroup.from_diagonal(diag),
                               _embed(placed, dim_formula(r, n, i), len(diag))))
    return CohomologyResult(r, n, tuple(degrees))


def _embed(placed, nrows: int, ncols: int) -> IntMatrix:
    """The nrows x ncols matrix holding each block of columns at its rows."""
    rows = [None] * nrows
    offset = 0
    for cells, gens in placed:
        for g, row in zip(cells, gens._rows):
            full = [0] * ncols
            full[offset:offset + gens.ncols] = row
            rows[g] = tuple(full)
        offset += gens.ncols
    zero = (0,) * ncols
    return IntMatrix._raw(tuple(zero if row is None else row for row in rows),
                          ncols)


class ModpDegree:
    """Cocycles, coboundaries and chosen class representatives in one degree."""

    __slots__ = ("i", "dim_cochain", "cocycles", "coboundaries", "reps",
                 "_solver", "_p")

    def __init__(self, i, dim_cochain, cocycles, coboundaries, reps, p):
        self.i = i
        self.dim_cochain = dim_cochain
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.reps = reps
        self._p = p
        self._solver = None

    @property
    def dim(self) -> int:
        return len(self.reps)

    def rep_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(list(self.reps), self.dim_cochain)

    def express(self, z: Sequence[int]) -> Optional[tuple]:
        """Class coordinates of a mod-p cocycle, or None if z is no cocycle."""
        if self._solver is None:
            cols = list(self.reps) + list(self.coboundaries)
            self._solver = modp.Solver(
                IntMatrix.from_columns(cols, self.dim_cochain), self._p)
        sol = self._solver.solve([v % self._p for v in z])
        if sol is None:
            return None
        return sol[: self.dim]


def modp_homology(i: int, d_in: IntMatrix, d_out: IntMatrix,
                  p: int) -> ModpDegree:
    """ker(d_out) / im(d_in) over the p-element field, in one degree.

    The class representatives are the cocycles that greedily extend a basis
    of the coboundaries; this is the one builder of mod-p subquotients, used
    for mod-p cohomology and for every derived Bockstein page.
    """
    cocycles = modp.nullspace(d_out, p)
    coboundaries, _ = modp.image_basis(d_in.mod(p), p)
    added = modp.complete_basis(coboundaries, cocycles, p)
    reps = tuple(cocycles[k] for k in added)
    return ModpDegree(i, d_out.ncols, tuple(cocycles), tuple(coboundaries),
                      reps, p)


class ModpCohomologyResult:
    """dim H^i = dim Z^i - dim B^i over the p-element field, per degree."""

    def __init__(self, r, n, p, degrees):
        self.r = r
        self.n = n
        self.p = p
        self.degrees = tuple(degrees)

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def degree(self, i: int) -> ModpDegree:
        if 0 <= i <= self.top:
            return self.degrees[i]
        return ModpDegree(i, dim_formula(self.r, self.n, i), (), (), (), self.p)

    def dim(self, i: int) -> int:
        return self.degree(i).dim

    @property
    def dims(self) -> tuple:
        return tuple(d.dim for d in self.degrees)

    def express(self, i: int, z: Sequence[int]) -> Optional[tuple]:
        return self.degree(i).express(z)


@lru_cache(maxsize=None)
def modp_cohomology(r: int, n: int, p: int) -> ModpCohomologyResult:
    """Cohomology of the complex tensored with Z/p, by mod-p row reduction."""
    check_prime(p)
    cpx = complex_z(r, n)
    return ModpCohomologyResult(r, n, p, [
        modp_homology(i, cpx.d(i - 1), cpx.d(i), p)
        for i in range(cpx.top + 1)])


def cocycle_dim(r: int, n: int, i: int, p: int) -> int:
    """Dimension of the mod-p cocycle space in one degree."""
    check_prime(p)
    dim = basis(r, n, i).dim
    if dim == 0:
        return 0
    cpx = complex_z(r, n)
    return dim - modp.rank(cpx.d(i), p)


def class_matrix(express: Callable[[Sequence[int]], Optional[tuple]],
                 cochain_cols: IntMatrix, dim: int):
    """Class coordinates of each cochain column, as columns of a dim-row
    matrix.

    Returns (matrix, None), or (None, j) for the first column j that
    express maps to None.
    """
    cols = []
    for j in range(cochain_cols.ncols):
        coords = express(cochain_cols.col(j))
        if coords is None:
            return None, j
        cols.append(coords)
    return IntMatrix.from_columns(cols, dim), None


def modp_class_matrix(target: ModpCohomologyResult, i: int,
                      cochain_cols: IntMatrix) -> IntMatrix:
    """Classes of mod-p cocycle columns, as a matrix over the target H^i."""
    deg = target.degree(i)
    matrix, failed = class_matrix(deg.express, cochain_cols, deg.dim)
    if matrix is None:
        raise ValueError(
            f"column {failed} is not a mod-p cocycle in degree {i}")
    return matrix


def cartier_iso(r: int, n: int, i: int, p: int) -> Homomorphism:
    """The map of the cited isomorphism on mod-p groups, certified bijective.

    Sends the full space of forms in degree (n, i) to H^i of total degree
    p*n mod p, via the cochain representative x -> x^p, dx -> x^(p-1) dx.
    Raises if the result is not bijective, which would falsify the
    implementation rather than the statement.
    """
    check_prime(p)
    C = cartier_rep_matrix(r, n, i, p)
    tgt_cpx = complex_z(r, p * n)
    if not (tgt_cpx.d(i) @ C).mod(p).is_zero():
        raise RuntimeError("representative columns are not mod-p cocycles")
    target = modp_cohomology(r, p * n, p)
    matrix = modp_class_matrix(target, i, C)
    src_dim = basis(r, n, i).dim
    source = FgAbGroup.elementary(p, src_dim)
    tgt_group = FgAbGroup.elementary(p, target.dim(i))
    hom = Homomorphism(source, tgt_group, matrix.mod(p))
    if target.dim(i) != src_dim or modp.rank(matrix, p) != src_dim:
        raise RuntimeError(
            f"cartier map not bijective at (r={r}, n={n}, i={i}, p={p}): "
            f"dims {src_dim} vs {target.dim(i)}")
    return hom
