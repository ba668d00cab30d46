"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^ngens modulo the column lattice of its relation matrix.
Presentations are never simplified destructively; invariant factors are
cached on first computation.  Maps are matrices on generators, always
checked for well-definedness against the target relations.
"""

from __future__ import annotations

from functools import partial
from math import gcd, prod
from typing import Callable, Optional, Sequence

from .intlinalg import (
    IntMatrix,
    augmented,
    hnf,
    hstack,
    kernel_basis,
    lattice_solve,
    preimage_basis,
    snf,
    unimodular_inverse,
)
from .modp import check_prime, valuation


class FgAbGroup:
    """Z^ngens / (column lattice of relations)."""

    __slots__ = ("ngens", "relations", "_snf", "_smith", "_smith_diag",
                 "_diag")

    def __init__(self, ngens: int, relations: IntMatrix | None = None):
        if ngens < 0:
            raise ValueError("negative generator count")
        if relations is None:
            relations = IntMatrix.zeros(ngens, 0)
        if relations.nrows != ngens:
            raise ValueError("relation matrix has wrong number of rows")
        self.ngens = ngens
        self.relations = relations
        self._snf = None
        self._smith = None
        self._smith_diag = None
        self._diag = -1  # -1 unknown, None not diagonal, else tuple

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0)

    @classmethod
    def free(cls, n: int) -> "FgAbGroup":
        return cls(n)

    @classmethod
    def cyclic(cls, d: int) -> "FgAbGroup":
        return cls.from_factors([d])

    @classmethod
    def from_factors(cls, factors: Sequence[int]) -> "FgAbGroup":
        """One generator per factor; factor 0 means a free summand."""
        factors = [int(d) for d in factors]
        cols = [[(d if i == j else 0) for i in range(len(factors))]
                for j, d in enumerate(factors) if d != 0]
        return cls(len(factors), IntMatrix.from_columns(cols, len(factors)))

    @classmethod
    def elementary(cls, p: int, dim: int) -> "FgAbGroup":
        return cls.from_diagonal([p] * dim)

    @classmethod
    def from_diagonal(cls, entries: Sequence[int]) -> "FgAbGroup":
        """Square diagonal presentation: one generator e_k per entry, with
        the relation d_k e_k (0 leaves a free summand, 1 a trivial one)."""
        entries = tuple(int(d) for d in entries)
        k = len(entries)
        rows = []
        for t, d in enumerate(entries):
            row = [0] * k
            row[t] = d
            rows.append(tuple(row))
        G = cls(k, IntMatrix._raw(tuple(rows), k))
        G._diag = entries
        return G

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        groups = (self,) + others
        n = sum(g.ngens for g in groups)
        cols = []
        offset = 0
        for g in groups:
            for j in range(g.relations.ncols):
                col = [0] * n
                for i, v in enumerate(g.relations.col(j)):
                    col[offset + i] = v
                cols.append(col)
            offset += g.ngens
        return FgAbGroup(n, IntMatrix.from_columns(cols, n))

    # -- invariants ------------------------------------------------------------

    def _snf_data(self):
        # the Hermite form spans the same lattice with fewer columns, which
        # keeps the Smith reduction small; U still acts on generator coordinates
        if self._snf is None:
            H, _ = hnf(self.relations)
            npiv = sum(1 for j in range(H.ncols) if any(H.col(j)))
            self._snf = snf(IntMatrix.from_columns(
                [H.col(j) for j in range(npiv)], H.nrows))
        return self._snf

    @property
    def smith_change(self) -> tuple:
        """(U, U^-1): U sends generator coordinates to coordinates on the
        Smith generators, the columns of U^-1, in which the relations are
        diagonal with entries self.diagonal."""
        if self._smith is None:
            _, U, _ = self._snf_data()
            self._smith = U, unimodular_inverse(U)
        return self._smith

    @property
    def diagonal(self) -> tuple:
        """The Smith diagonal: 1s, then the invariant factors, zeros last."""
        if self._smith_diag is not None:
            return self._smith_diag
        rel_diag = self._diagonal_relations()
        if rel_diag is not None:
            # the Smith diagonal is unique, so recombining the entries into
            # their invariant chain gives it without a Smith reduction
            entries = [abs(d) for d in rel_diag]
            chain = _invariant_chain(d for d in entries if d > 1)
            nonzero = len(entries) - entries.count(0)
            d = ((1,) * (nonzero - len(chain)) + chain
                 + (0,) * (self.ngens - nonzero))
        else:
            S, _, _ = self._snf_data()
            d = tuple(S[i, i] for i in range(min(S.nrows, S.ncols)))
            d += (0,) * (self.ngens - len(d))
        self._smith_diag = d
        return d

    @property
    def free_rank(self) -> int:
        return self.diagonal.count(0)

    @property
    def invariant_factors(self) -> tuple:
        """The divisibility chain d1 | d2 | ..., each > 1, ascending."""
        return tuple(sorted(d for d in self.diagonal if d > 1))

    def order(self) -> Optional[int]:
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    # -- elements ---------------------------------------------------------------

    def _diagonal_relations(self):
        # square diagonal relation matrices admit an entrywise zero test
        if self._diag == -1:
            rel = self.relations
            if rel.ncols == self.ngens and all(
                    not v
                    for i, row in enumerate(rel._rows)
                    for j, v in enumerate(row) if i != j):
                self._diag = tuple(rel[i, i] for i in range(self.ngens))
            else:
                self._diag = None
        return self._diag

    def element_is_zero(self, coords: Sequence[int]) -> bool:
        diag = self._diagonal_relations()
        if diag is not None:
            return all((v % d == 0 if d else v == 0)
                       for v, d in zip(coords, diag))
        return lattice_solve(self.relations, coords) is not None

    def elements_equal(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.element_is_zero([x - y for x, y in zip(a, b)])

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.ngens == other.ngens and self.relations == other.relations

    def __hash__(self) -> int:
        return hash((self.ngens, self.relations))

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.describe()})"


def _invariant_chain(entries) -> tuple:
    """Invariant factors d1 | d2 | ... of the sum of the cyclic groups Z/d.

    Each entry is merged into the chain from the top: Z/a + Z/b is
    Z/gcd(a, b) + Z/lcm(a, b), and the gcd carries down to the next link.
    """
    chain = []
    for x in entries:
        for k in range(len(chain) - 1, -1, -1):
            c = chain[k]
            if x % c == 0:
                # c | x: the carry takes c's place and c moves down
                chain[k], x = x, c
            elif c % x:
                g = gcd(c, x)
                chain[k], x = c // g * x, g
                if x == 1:
                    break
        if x > 1:
            chain.insert(0, x)
    return tuple(chain)


def is_isomorphic(G1: FgAbGroup, G2: FgAbGroup) -> bool:
    """Complete invariant for f.g. abelian groups: free rank and factors."""
    return (G1.free_rank == G2.free_rank
            and G1.invariant_factors == G2.invariant_factors)


class Homomorphism:
    """Map between presented groups, as a matrix on generators.

    Construction verifies well-definedness: every column of
    matrix @ source.relations must lie in the target relation lattice.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"matrix shape {matrix.shape}, expected "
                f"{(target.ngens, source.ngens)}")
        moved = matrix @ source.relations
        for j in range(moved.ncols):
            if not target.element_is_zero(moved.col(j)):
                raise ValueError("matrix does not respect the source relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, G: FgAbGroup) -> "Homomorphism":
        return cls(G, G, IntMatrix.identity(G.ngens))

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "Homomorphism":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens))

    def apply(self, coords: Sequence[int]) -> tuple:
        return self.matrix.apply(coords)

    def __matmul__(self, other: "Homomorphism") -> "Homomorphism":
        if not isinstance(other, Homomorphism):
            return NotImplemented
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return Homomorphism(other.source, self.target, self.matrix @ other.matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Homomorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        diff = self.matrix - other.matrix
        return all(self.target.element_is_zero(diff.col(j))
                   for j in range(diff.ncols))

    __hash__ = None

    def kernel_lattice(self) -> IntMatrix:
        """Columns spanning {x : f(x) = 0 in target} (contains the source
        relations)."""
        return preimage_basis(self.matrix, self.target.relations)

    def is_injective(self) -> bool:
        K = self.kernel_lattice()
        return all(self.source.element_is_zero(K.col(j)) for j in range(K.ncols))

    def is_surjective(self) -> bool:
        coker = FgAbGroup(self.target.ngens,
                          hstack(self.matrix, self.target.relations))
        return coker.is_trivial

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def image_subgroup(self):
        return subgroup_presentation(self.target, self.matrix)

    def __repr__(self) -> str:
        return (f"Homomorphism({self.source.describe()} -> "
                f"{self.target.describe()})")


def express_through(gens: IntMatrix, relations: IntMatrix,
                    vec: Sequence[int]) -> Optional[tuple]:
    """Coefficients y with gens @ y = vec modulo the relation lattice."""
    sol = lattice_solve(augmented(gens, relations), vec)
    if sol is None:
        return None
    return sol[: gens.ncols]


def subgroup_presentation(G: FgAbGroup, gens: IntMatrix):
    """Present the subgroup of G generated by the given columns.

    Returns (S, incl) where S has one generator per column and incl is the
    inclusion into G.  Relations are every integer combination of the
    columns that dies in G.
    """
    if gens.nrows != G.ngens:
        raise ValueError("generator columns of wrong length")
    relations = preimage_basis(gens, G.relations)
    sub = FgAbGroup(gens.ncols, relations)
    return sub, Homomorphism(sub, G, gens)


def corestrict(f: Homomorphism, sub: FgAbGroup,
               incl: Homomorphism) -> Optional[Homomorphism]:
    """Factor f through a subgroup of its target, or None if it does not land
    there."""
    if incl.source != sub or incl.target != f.target:
        raise ValueError("inclusion does not match")
    matrix, _ = class_matrix(
        partial(express_through, incl.matrix, f.target.relations), f.matrix,
        sub.ngens)
    return None if matrix is None else Homomorphism(f.source, sub, matrix)


def class_matrix(express: Callable[[Sequence[int]], Optional[tuple]],
                 cochain_cols: IntMatrix, dim: int):
    """Class coordinates of each cochain column, as columns of a dim-row
    matrix.

    Returns (matrix, None), or (None, j) for the first column j that
    express maps to None.
    """
    cols = []
    for j, col in enumerate(cochain_cols.columns()):
        coords = express(col)
        if coords is None:
            return None, j
        cols.append(coords)
    return IntMatrix.from_columns(cols, dim), None


def homology_at(d_in: IntMatrix, d_out: IntMatrix):
    """Homology ker(d_out)/im(d_in) of free abelian groups.

    Returns (G, lift): G presents the subquotient on the kernel basis, and
    the columns of lift are cochain representatives of its generators.  Any
    cocycle z is written in those generators by lattice_solve(lift, z).
    """
    if d_out.ncols != d_in.nrows:
        raise ValueError("differentials are not composable")
    if not (d_out @ d_in).is_zero():
        raise ValueError("d_out @ d_in is nonzero: not a complex")
    K = kernel_basis(d_out)
    relations, _ = class_matrix(partial(lattice_solve, K), d_in, K.ncols)
    if relations is None:
        raise RuntimeError("boundary is not a cocycle; kernel basis bug")
    return FgAbGroup(K.ncols, relations), K


def induced_map(f_cochain: IntMatrix, src, tgt,
                tgt_d_out: IntMatrix | None = None) -> Homomorphism:
    """Map on homology induced by a cochain-level map.

    src and tgt are (group, lift) pairs as returned by homology_at.  When
    tgt_d_out is given, images of generators are first checked to be
    cocycles; an expression failure afterwards signals a logic bug and
    aborts.
    """
    src_group, src_lift = src
    tgt_group, tgt_lift = tgt
    images = f_cochain @ src_lift
    if tgt_d_out is not None and not (tgt_d_out @ images).is_zero():
        raise ValueError("image of a generator is not a cocycle")
    matrix, _ = class_matrix(partial(lattice_solve, tgt_lift), images,
                             tgt_group.ngens)
    if matrix is None:
        raise RuntimeError(
            "cocycle image could not be expressed in target generators")
    return Homomorphism(src_group, tgt_group, matrix)


def subgroup_pk(G: FgAbGroup, p: int, k: int):
    """The subgroup p^k G with its inclusion into G."""
    check_prime(p)
    if k < 0:
        raise ValueError("k must be >= 0")
    gens = (p ** k) * IntMatrix.identity(G.ngens)
    return subgroup_presentation(G, gens)


def graded_piece_dim(G: FgAbGroup, p: int, k: int) -> int:
    """dim over F_p of p^(k-1) G / p^k G."""
    check_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p ** k
    return G.free_rank + sum(1 for d in G.invariant_factors if d % q == 0)


def primary_part(G: FgAbGroup, p: int) -> FgAbGroup:
    """The p-primary component, as a direct sum of p-power cyclic groups."""
    check_prime(p)
    factors = []
    for d in G.invariant_factors:
        v = valuation(d, p)
        if v:
            factors.append(p ** v)
    return FgAbGroup.from_factors(factors)


def primary_inclusion(G: FgAbGroup, p: int):
    """The p-primary component together with its inclusion into G."""
    check_prime(p)
    Uinv = G.smith_change[1]
    diag = G.diagonal
    cols = []
    factors = []
    for idx, d in enumerate(diag):
        if d == 0:
            continue
        v = valuation(d, p) if d > 1 else 0
        if v:
            scale = d // p ** v
            cols.append([scale * x for x in Uinv.col(idx)])
            factors.append(p ** v)
    P = FgAbGroup.from_factors(factors)
    incl = Homomorphism(P, G, IntMatrix.from_columns(cols, G.ngens))
    return P, incl


def is_exact_at(f: Homomorphism, g: Homomorphism):
    """Exactness of A --f--> B --g--> C at B.

    Returns (ok, witness): ok means g∘f = 0 and ker(g) is contained in
    im(f); on failure the witness is an offending element of B.
    """
    if f.target != g.source:
        raise ValueError("maps are not composable")
    comp = g.matrix @ f.matrix
    for j in range(comp.ncols):
        if not g.target.element_is_zero(comp.col(j)):
            return False, tuple(f.matrix.col(j))
    K = g.kernel_lattice()
    image = hstack(f.matrix, f.target.relations)
    for j in range(K.ncols):
        col = K.col(j)
        if lattice_solve(image, col) is None:
            return False, tuple(col)
    return True, None
