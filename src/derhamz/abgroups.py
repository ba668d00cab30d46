"""Finitely generated abelian groups as sums of cyclic groups.

A group is Z/e_1 + ... + Z/e_k: one generator per entry, of order e_t (0
for a free generator, 1 for a trivial one).  Every group built as a lattice
quotient goes through quotient(), whose Smith form also moves the
generators.  Maps are matrices on generators, always checked for
well-definedness against the target.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from math import gcd
from operator import index as _int
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
    """Z/entries[0] + Z/entries[1] + ..., on generators e_0, e_1, ..."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[int] = ()):
        entries = tuple(_int(d) for d in entries)
        if any(d < 0 for d in entries):
            raise ValueError("negative generator order")
        self.entries = entries

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls()

    @property
    def ngens(self) -> int:
        return len(self.entries)

    @property
    def relations(self) -> IntMatrix:
        """diag(entries), for the lattice computations that need it."""
        return diagonal_matrix(self.entries)

    def direct_sum(self, *others: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup(sum((g.entries for g in others), self.entries))

    # -- invariants ------------------------------------------------------------

    @property
    def diagonal(self) -> tuple:
        """The Smith diagonal: 1s, then the invariant factors, zeros last."""
        return _smith_diagonal(self.entries)

    @property
    def free_rank(self) -> int:
        return self.entries.count(0)

    @property
    def invariant_factors(self) -> tuple:
        """The divisibility chain d1 | d2 | ..., each > 1, ascending."""
        return tuple(d for d in self.diagonal if d > 1)

    @property
    def is_trivial(self) -> bool:
        return all(d == 1 for d in self.entries)

    def element_is_zero(self, coords: Sequence[int]) -> bool:
        if len(coords) != len(self.entries):
            raise ValueError("element of wrong length")
        return all((v % d == 0 if d else v == 0)
                   for v, d in zip(coords, self.entries))

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.describe()})"


@lru_cache(maxsize=None)
def diagonal_matrix(entries: tuple) -> IntMatrix:
    """diag(entries), one object per entries, so its hash and the lattice
    caches keyed on it are computed once."""
    k = len(entries)
    return IntMatrix._raw(tuple((0,) * t + (d,) + (0,) * (k - 1 - t)
                                for t, d in enumerate(entries)), k)


@lru_cache(maxsize=None)
def _smith_diagonal(entries: tuple) -> tuple:
    """The Smith diagonal of diag(entries), once per entries: it is unique,
    so the invariant chain of the entries gives it without a reduction."""
    chain = _invariant_chain(Counter(d for d in entries if d > 1))
    free = entries.count(0)
    return (1,) * (len(entries) - free - len(chain)) + chain + (0,) * free


def smith_group(counts: dict) -> FgAbGroup:
    """The sum of counts[d] copies of Z/d, on the generators of its Smith
    diagonal without the trivial ones: the invariant factors, then one free
    generator per copy of Z/0."""
    chain = _invariant_chain({d: c for d, c in counts.items() if d > 1})
    return FgAbGroup(chain + (0,) * counts.get(0, 0))


def _invariant_chain(counts: dict) -> tuple:
    """Invariant factors d1 | d2 | ... of the sum of counts[d] copies of
    Z/d, for entries d > 1.

    The distinct entries are refined by gcds to a coprime base, so no entry
    is factored.  Each entry is a product of powers of the base elements,
    and Z/d splits into their cyclic groups; a base element's exponents,
    sorted, give its part of each link, the largest in the top link.
    """
    chain = []
    for b in _coprime_base(counts):
        exponents = sorted(((_exponent(d, b), c) for d, c in counts.items()),
                           reverse=True)
        powers = [b ** e for e, c in exponents if e for _ in range(c)]
        chain += [1] * (len(powers) - len(chain))
        for k, q in enumerate(powers):
            chain[k] *= q
    return tuple(reversed(chain))


def _coprime_base(values) -> list:
    """Pairwise coprime integers > 1 of which every value > 1 is a product
    of powers: a value meeting a base element b in g = gcd > 1 is replaced
    by g and x/g, and b by b/g, until every value is coprime to the base."""
    base = []
    todo = list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for k, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[k]
                todo += (g, b // g, x // g)
                break
        else:
            base.append(x)
    return base


def _exponent(d: int, b: int) -> int:
    """The exponent of the base element b in d."""
    e = 0
    while d % b == 0:
        d //= b
        e += 1
    return e


def is_isomorphic(G1: FgAbGroup, G2: FgAbGroup) -> bool:
    """Complete invariant for f.g. abelian groups: free rank and factors."""
    return (G1.free_rank == G2.free_rank
            and G1.invariant_factors == G2.invariant_factors)


class Homomorphism:
    """Map between groups, as a matrix on generators.

    Construction verifies well-definedness: column t times the order of
    source generator t must be zero in the target.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"matrix shape {matrix.shape}, expected "
                f"{(target.ngens, source.ngens)}")
        for d, col in zip(source.entries, matrix.columns()):
            if d != 0 and not target.element_is_zero([d * v for v in col]):
                raise ValueError("matrix does not respect the source relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "Homomorphism":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens))

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
        coker, _, _ = quotient(hstack(self.matrix, self.target.relations))
        return coker.is_trivial

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

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


def quotient(relations: IntMatrix):
    """Z^k modulo the column lattice of a k-row relation matrix.

    Returns (G, U, Uinv): U sends coordinates on the standard basis to
    coordinates on G's generators, the columns of the unimodular Uinv, on
    which the relations are diagonal with entries G.entries (1s, then the
    invariant factors, zeros last).  This is the one Smith reduction of the
    package.
    """
    # the Hermite form spans the same lattice with fewer columns, which
    # keeps the Smith reduction small; U still acts on generator coordinates.
    # Its columns are tuples of ints already, so they need no checking.
    H, _ = hnf(relations)
    pivots = [col for col in H.columns() if any(col)]
    S, U, _ = snf(IntMatrix._raw_columns(pivots, H.nrows))
    entries = [S[t, t] for t in range(len(pivots))]
    G = FgAbGroup(entries + [0] * (relations.nrows - len(entries)))
    return G, U, unimodular_inverse(U)


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
    """Homology ker(d_out)/im(d_in) of free abelian groups, on
    Smith-adapted generators.

    Returns (G, lift): generator t of G has order G.entries[t], and the
    columns of lift, a basis of ker(d_out), are cochain representatives of
    the generators.  Any cocycle z is written in those generators by
    lattice_solve(lift, z).
    """
    if d_out.ncols != d_in.nrows:
        raise ValueError("differentials are not composable")
    if not (d_out @ d_in).is_zero():
        raise ValueError("d_out @ d_in is nonzero: not a complex")
    K = kernel_basis(d_out)
    relations, _ = class_matrix(partial(lattice_solve, K), d_in, K.ncols)
    if relations is None:
        raise RuntimeError("boundary is not a cocycle; kernel basis bug")
    G, _, Uinv = quotient(relations)
    return G, K @ Uinv


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
    """The subgroup p^k G with its inclusion p^k * I into G: generator t
    is p^k e_t, of order d / gcd(d, p^k) for the order d of e_t."""
    check_prime(p)
    if k < 0:
        raise ValueError("k must be >= 0")
    q = p ** k
    sub = FgAbGroup(d // gcd(d, q) for d in G.entries)
    return sub, Homomorphism(sub, G, diagonal_matrix((q,) * G.ngens))


def p_torsion(G: FgAbGroup, p: int) -> tuple:
    """Generators of the p-torsion G[p], the kernel of multiplication by p:
    (d/p) e_t for each generator e_t whose order d > 0 is divisible by p,
    as pairs (t, d/p)."""
    return tuple((t, d // p) for t, d in enumerate(G.entries)
                 if d and d % p == 0)


def graded_piece_dim(G: FgAbGroup, p: int, k: int) -> int:
    """dim over F_p of p^(k-1) G / p^k G."""
    check_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p ** k
    # Z/d contributes when p^k divides d, a free generator (d = 0) always
    return sum(1 for d in G.entries if d % q == 0)


def primary_part(G: FgAbGroup, p: int) -> FgAbGroup:
    """The p-primary component, as a direct sum of p-power cyclic groups."""
    check_prime(p)
    return FgAbGroup(sorted(p ** valuation(d, p) for d in G.entries
                            if d > 1 and d % p == 0))


def primary_inclusion(G: FgAbGroup, p: int):
    """The p-primary component together with its inclusion into G: one
    generator (d / p^v) e_t of order p^v for each generator e_t of G whose
    order d > 0 has p-valuation v > 0."""
    check_prime(p)
    cols = []
    factors = []
    for t, d in enumerate(G.entries):
        v = valuation(d, p) if d > 1 else 0
        if v:
            cols.append([d // p ** v if s == t else 0 for s in range(G.ngens)])
            factors.append(p ** v)
    P = FgAbGroup(factors)
    return P, Homomorphism(P, G, IntMatrix.from_columns(cols, G.ngens))


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
    for j in range(K.ncols):
        col = K.col(j)
        if express_through(f.matrix, f.target.relations, col) is None:
            return False, tuple(col)
    return True, None
