"""Dense global structure maps of the de Rham complex, for tests only.

The library works block by block, walking the distinct ordered weights of
the blocks (derham.ordered_weights) and counting the blocks of each key
(derham.block_counts); koszul_blocks enumerates the blocks themselves, one
KoszulBlock per weight beta, the reference for that walk and those counts.
The other builders construct the same maps on whole graded pieces, straight
from their formulas on monomials, so that tests can compare the block model
with an independent dense one at small sizes.  The ordered_* functions keep the
statement checks of a block pair (beta, q*beta) in the pair's own ordered
coordinates, through both blocks' transports, as a small-size oracle for
the key-pair results the library computes once per key pair.  dense_hnf
is the integer Hermite elimination on dense columns, a small-size oracle
for intlinalg's eliminations on column supports.  euler_checks multiplies
out kappa d + d kappa on every distinct block, the reference for the
Clifford certificate of verify_annihilation.  hnf_z_basis and
hnf_page_dims are the closed-form oracle's lattices and page dims from
Hermite forms of [d | p^j I], the reference for the lattices it reads off
its adapted basis, and smith_closed_form_block computes each page as an
integer quotient in the coordinates of one Smith form of d per block and
degree, the reference for the pages it reads off that basis with no
quotient.  pairwise_invariant_chain merges
cyclic groups one by one by gcd and lcm, the reference for the invariant
factors abgroups reads off exponent lists over a coprime base.
UnsharedCouple and unshared_derive build, certify and derive every tower
level afresh, on mod-p homology built afresh (unshared_modp_homology),
the reference for the couples the library shares by content.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import gcd
from typing import NamedTuple

from derhamz.abgroups import (
    FgAbGroup,
    Homomorphism,
    class_matrix,
    diagonal_matrix,
    express_through,
    homology_at,
    induced_map,
    is_exact_at,
    p_torsion,
    quotient,
)
from derhamz.bockstein import (
    ExactnessError,
    _block_couple,
    _block_level,
    _oracle_d,
    _page_isomorphism_failure,
)
from derhamz.cohomology import (
    BlockHomology,
    ModpDegree,
    block_homology,
    block_modp_homology,
    modp_homology,
)
from derhamz.derham import (
    BasisElement,
    basis,
    block_key,
    canonical_weights,
    dim_formula,
    koszul_d,
    koszul_kappa,
    transport,
)
from derhamz.intlinalg import (
    IntMatrix,
    lattice_solve,
    preimage_basis,
    snf,
    unimodular_inverse,
)
from derhamz.modp import Solver, nullspace, rank


class KoszulBlock(NamedTuple):
    """One multidegree summand of the total-degree-n complex.

    d and the Koszul contraction kappa preserve the weight alpha + 1_T of
    x^alpha dx_T, so the cells of weight beta (|beta| = n) span a
    subcomplex: the Koszul complex of the integers beta_j, j in the support
    of beta.  Its degree-i cells are x^(beta - 1_T) dx_T for the i-subsets T
    of the support, in colex order.  Blocks with equal ordered nonzero
    weights are the same complex, and blocks with the same key (gcd and
    number of those weights) are isomorphic complexes (transport).
    """
    beta: tuple             # the weight, length r
    weights: tuple          # the nonzero beta_j, j increasing
    key: tuple              # block_key(weights), the sharing key

    @property
    def transport(self):
        return transport(self.weights)

    def d(self, i: int) -> IntMatrix:
        """The block d^i; the zero map outside 0 <= i <= len(weights)."""
        return koszul_d(self.weights, i)

    def kappa(self, i: int) -> IntMatrix:
        """The block kappa from degree i to i-1."""
        return koszul_kappa(len(self.weights), i)


def _betas(total: int, parts: int):
    """The weights of the given length summing to total, lex decreasing."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _betas(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def koszul_blocks(r: int, n: int) -> tuple:
    """The blocks of the total-degree-n complex in r variables, one per
    weight beta, beta in lex decreasing order (enumerated without
    derham's compositions)."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    blocks = []
    for beta in _betas(n, r):
        weights = tuple(w for w in beta if w)
        blocks.append(KoszulBlock(beta, weights, block_key(weights)))
    return tuple(blocks)


def distinct_blocks(blocks) -> list:
    """The index of the first block of each distinct weights: blocks with
    the same ordered nonzero weights are the same complex."""
    first = {}
    for b, blk in enumerate(blocks):
        first.setdefault(blk.weights, b)
    return list(first.values())


@lru_cache(maxsize=None)
def index_map(r: int, n: int, i: int) -> dict:
    """The position of each element of basis(r, n, i)."""
    return {e: k for k, e in enumerate(basis(r, n, i).elements)}


def block_cells(blk, i: int) -> tuple:
    """The indices in basis(r, n, i) of the degree-i cells of a Koszul
    block: x^(beta - 1_T) dx_T for the i-subsets T of the support of beta,
    T in colex order; () outside the block's degrees."""
    if i < 0:
        return ()
    beta = blk.beta
    support = [j for j, w in enumerate(beta, 1) if w]
    index = index_map(len(beta), sum(beta), i)
    cells = []
    for T in sorted(combinations(support, i), key=lambda T: T[::-1]):
        alpha = tuple(w - (j in T) for j, w in enumerate(beta, 1))
        cells.append(index[BasisElement(alpha, T)])
    return tuple(cells)


@lru_cache(maxsize=None)
def d_matrix(r: int, n: int, i: int) -> IntMatrix:
    """Polynomial differentiation on the (r, n, i) piece.

    d(x^alpha dx_T) = sum over j not in T of
    alpha_j x^(alpha - e_j) dx_j ^ dx_T.
    """
    src = basis(r, n, i)
    tgt = basis(r, n, i + 1)
    index = index_map(r, n, i + 1)
    cols = []
    for alpha, T in src:
        col = [0] * tgt.dim
        for j in range(1, r + 1):
            if j in T or alpha[j - 1] == 0:
                continue
            new_alpha = list(alpha)
            new_alpha[j - 1] -= 1
            new_T = tuple(sorted(T + (j,)))
            # dx_j moves past the dx_t with t < j
            sign = -1 if sum(1 for t in T if t < j) % 2 else 1
            col[index[BasisElement(tuple(new_alpha), new_T)]] += \
                sign * alpha[j - 1]
        cols.append(col)
    return IntMatrix.from_columns(cols, tgt.dim)


@dataclass(frozen=True)
class ComplexZ:
    """The de Rham complex in one total degree, as integer matrices."""
    r: int
    n: int
    differentials: tuple   # d^i for i = 0 .. min(n, r)

    @property
    def top(self) -> int:
        return len(self.differentials) - 1

    def d(self, i: int) -> IntMatrix:
        if 0 <= i <= self.top:
            return self.differentials[i]
        dim = dim_formula(self.r, self.n, i)
        return IntMatrix.zeros(dim_formula(self.r, self.n, i + 1), dim)


@lru_cache(maxsize=None)
def complex_z(r: int, n: int) -> ComplexZ:
    top = min(n, r)
    ds = tuple(d_matrix(r, n, i) for i in range(top + 1))
    for i in range(top):
        if not (ds[i + 1] @ ds[i]).is_zero():
            raise AssertionError(f"d∘d != 0 at (r={r}, n={n}, i={i})")
    return ComplexZ(r, n, ds)


@lru_cache(maxsize=None)
def koszul_matrix(r: int, n: int, i: int) -> IntMatrix:
    """The Koszul contraction: polynomials to 0, dx_t to x_t.

    kappa(x^alpha dx_T) = sum over positions k of
    (-1)^(k-1) x^(alpha + e_{t_k}) dx_{T minus t_k}.
    """
    src = basis(r, n, i)
    tgt = basis(r, n, i - 1)
    index = index_map(r, n, i - 1)
    cols = []
    for alpha, T in src:
        col = [0] * tgt.dim
        for pos, t in enumerate(T):
            new_alpha = list(alpha)
            new_alpha[t - 1] += 1
            new_T = T[:pos] + T[pos + 1:]
            col[index[BasisElement(tuple(new_alpha), new_T)]] += \
                -1 if pos % 2 else 1
        cols.append(col)
    return IntMatrix.from_columns(cols, tgt.dim)


@lru_cache(maxsize=None)
def frobenius_matrix(r: int, n: int, i: int, p: int) -> IntMatrix:
    """The p-th power chain map: x to x^p, dx to p x^(p-1) dx.

    F(x^alpha dx_T) = p^i x^(p alpha + (p-1) 1_T) dx_T, landing in total
    degree p*n: p^i times the Cartier representative.
    """
    return (p ** i) * cartier_rep_matrix(r, n, i, p)


@lru_cache(maxsize=None)
def cartier_rep_matrix(r: int, n: int, i: int, p: int) -> IntMatrix:
    """Cochain representative of the inverse Cartier map, mod p.

    x^alpha dx_T maps to x^(p alpha + (p-1) 1_T) dx_T; this is the
    Frobenius divided by p^i, read modulo p.
    """
    src = basis(r, n, i)
    tgt = basis(r, p * n, i)
    index = index_map(r, p * n, i)
    rows = [[0] * src.dim for _ in range(tgt.dim)]
    for c, (alpha, T) in enumerate(src):
        new_alpha = tuple(p * a + (p - 1 if (j + 1) in T else 0)
                          for j, a in enumerate(alpha))
        rows[index[BasisElement(new_alpha, T)]][c] = 1
    return IntMatrix(rows, src.dim)


def substitution_map(f: IntMatrix, n: int, i: int) -> IntMatrix:
    """Functoriality under the linear substitution given by f (s x r).

    x_j maps to sum_k f[k][j] y_k and dx_j to sum_k f[k][j] dy_k, expanded
    multiplicatively; the result commutes with both d and kappa.
    """
    s, r = f.nrows, f.ncols
    src = basis(r, n, i)
    tgt = basis(s, n, i)
    index = index_map(s, n, i)
    cols = []
    zero_alpha = (0,) * s
    for alpha, T in src:
        terms = {(zero_alpha, ()): 1}
        for j in range(1, r + 1):
            for _ in range(alpha[j - 1]):
                new = {}
                for (a, W), c in terms.items():
                    for k in range(s):
                        fk = f[k, j - 1]
                        if fk:
                            a2 = a[:k] + (a[k] + 1,) + a[k + 1:]
                            key = (a2, W)
                            new[key] = new.get(key, 0) + c * fk
                terms = new
        for j in T:
            new = {}
            for (a, W), c in terms.items():
                for k in range(1, s + 1):
                    fk = f[k - 1, j - 1]
                    if fk and k not in W:
                        sign = -1 if sum(1 for w in W if w > k) % 2 else 1
                        key = (a, tuple(sorted(W + (k,))))
                        new[key] = new.get(key, 0) + c * fk * sign
            terms = new
        col = [0] * tgt.dim
        for (a, W), c in terms.items():
            if c:
                col[index[BasisElement(a, W)]] += c
        cols.append(col)
    return IntMatrix.from_columns(cols, tgt.dim)


def place(placed, nrows: int, ncols: int) -> IntMatrix:
    """The nrows x ncols matrix holding each (rows, M) of placed: the rows
    of M at the given row indices, its columns right after the previous
    blocks' columns.  Every other entry is zero; row index sets must be
    disjoint."""
    out = [[0] * ncols for _ in range(nrows)]
    offset = 0
    for rows, M in placed:
        for g, row in zip(rows, M.to_lists()):
            out[g][offset:offset + M.ncols] = row
        offset += M.ncols
    return IntMatrix(out, ncols)


def transpose(M: IntMatrix) -> IntMatrix:
    return IntMatrix(M.columns(), M.nrows)


def dense_hnf(M: IntMatrix):
    """The column Hermite form of M by the library's elimination, with the
    same arithmetic in the same order, but every reduction scanning all m
    rows of the pivot column and all n entries of its U column; the result
    is built through the checked IntMatrix constructor.  Returns (H, U,
    pivots), pivots the (row, column) pairs of H in order."""
    m, n = M.nrows, M.ncols
    cols = [list(M.col(j)) for j in range(n)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots = []
    c = 0
    for i in range(m):
        if c == n:
            break
        live = [j for j in range(c, n) if cols[j][i]]
        if not live:
            continue
        while len(live) > 1:
            j0 = min(live, key=lambda j: (abs(cols[j][i]), j))
            a = cols[j0][i]
            base, ubase = cols[j0], ucols[j0]
            for j in live:
                if j == j0:
                    continue
                q = cols[j][i] // a
                if q:
                    cj, uj = cols[j], ucols[j]
                    for t in range(m):
                        if base[t]:
                            cj[t] -= q * base[t]
                    for t in range(n):
                        if ubase[t]:
                            uj[t] -= q * ubase[t]
            live = [j for j in live if cols[j][i]]
        j0 = live[0]
        if j0 != c:
            cols[c], cols[j0] = cols[j0], cols[c]
            ucols[c], ucols[j0] = ucols[j0], ucols[c]
        if cols[c][i] < 0:
            cols[c] = [-x for x in cols[c]]
            ucols[c] = [-x for x in ucols[c]]
        piv = cols[c][i]
        base, ubase = cols[c], ucols[c]
        for j in range(c):
            q = cols[j][i] // piv
            if q:
                cj, uj = cols[j], ucols[j]
                for t in range(m):
                    if base[t]:
                        cj[t] -= q * base[t]
                for t in range(n):
                    if ubase[t]:
                        uj[t] -= q * ubase[t]
        pivots.append((i, c))
        c += 1
    H = IntMatrix([[col[t] for col in cols] for t in range(m)], ncols=n)
    U = IntMatrix([[col[t] for col in ucols] for t in range(n)], ncols=n)
    return H, U, tuple(pivots)


def dense_kernel_basis(M: IntMatrix) -> IntMatrix:
    """The columns of dense_hnf's U after its pivot columns."""
    _, U, pivots = dense_hnf(M)
    return IntMatrix([row[len(pivots):] for row in U.to_lists()],
                     ncols=M.ncols - len(pivots))


def dense_lattice_solve(M: IntMatrix, b) -> tuple | None:
    """Forward substitution of b along dense_hnf's pivots, then x = U q;
    None when b is not in the column lattice of M."""
    H, U, pivots = dense_hnf(M)
    res, q = list(b), [0] * M.ncols
    for i, c in pivots:
        if res[i] % H[i, c]:
            return None
        q[c] = res[i] // H[i, c]
        res = [v - q[c] * H[t, c] for t, v in enumerate(res)]
    return None if any(res) else U.apply(q)


def greedy(base, candidates, nrows, p):
    """Indices of the candidates that raise the mod-p rank of base plus the
    candidates picked before them."""
    kept, picked = list(base), []
    for k, v in enumerate(candidates):
        if (rank(IntMatrix.from_columns(kept + [v], nrows), p)
                > rank(IntMatrix.from_columns(kept, nrows), p)):
            kept.append(v)
            picked.append(k)
    return picked


def coboundaries(d_in: IntMatrix, p: int) -> list:
    """The pivot columns of d_in mod p: a basis of the mod-p coboundaries,
    the columns that raise the rank of the ones before them."""
    cols = [tuple(v % p for v in col) for col in d_in.columns()]
    return [cols[j] for j in greedy([], cols, d_in.nrows, p)]


def modp_class_matrix(target, i: int, cochain_cols: IntMatrix) -> IntMatrix:
    """Classes of mod-p cocycle columns, as a matrix over H^i of target (a
    modp_cohomology result): solved densely over the blocks' class
    representatives (those of the canonical block of the key, moved back by
    backward[i] of the block's transport) and coboundaries, embedded at
    their cells, blocks in basis order."""
    p = target.p
    blocks = [blk for blk in koszul_blocks(target.r, target.n)
              if 0 <= i <= len(blk.weights)]
    reps = [(block_cells(blk, i), [v % p for v in blk.transport.backward[i]
                                   .apply(rep)])
            for blk in blocks
            for rep in block_modp_homology(blk.key, p)[i].reps]
    bounds = [(block_cells(blk, i), v) for blk in blocks
              for v in coboundaries(blk.d(i - 1), p)]
    embedded = []
    for cells, v in reps + bounds:
        full = [0] * dim_formula(target.r, target.n, i)
        for g, x in zip(cells, v):
            full[g] = x
        embedded.append(full)
    solver = Solver(IntMatrix.from_columns(embedded, cochain_cols.nrows), p)
    cols = []
    for j, col in enumerate(cochain_cols.columns()):
        coords = solver.solve([v % p for v in col])
        if coords is None:
            raise ValueError(
                f"column {j} is not a mod-p cocycle in degree {i}")
        cols.append(coords[:len(reps)])
    return IntMatrix.from_columns(cols, len(reps))


def direct_couple(weights: tuple, p: int):
    """The level-1 couple of the Koszul block of the ordered weights, built
    on the block's own d (homology_at and modp_homology), without the
    transport to the canonical block of its key that the library uses."""
    d = [koszul_d(weights, i) for i in range(-1, len(weights) + 1)]
    return _block_couple(
        weights, p,
        [BlockHomology(*homology_at(d_in, d_out))
         for d_in, d_out in zip(d, d[1:])],
        [modp_homology(d_in, d_out, p) for d_in, d_out in zip(d, d[1:])])


def ordered_frobenius(weights: tuple, p: int, i: int, literal: bool):
    """The Frobenius map H^i(w) -> H^i(p*w) of a block pair, on the
    canonical groups of the two keys: induced by scale times forward[i] of
    p*w's transport times backward[i] of w's on cells, scale p^i for the
    literal F_* and p for the vertical map."""
    multiple = tuple(p * w for w in weights)
    cells = (p ** i if literal else p) * (transport(multiple).forward[i]
                                          @ transport(weights).backward[i])
    d_out = (koszul_d(canonical_weights(block_key(multiple)), i) if literal
             else None)
    return induced_map(cells, block_homology(block_key(weights))[i],
                       block_homology(block_key(multiple))[i],
                       tgt_d_out=d_out)


def ordered_cartier_classes(weights: tuple, p: int, i: int):
    """The E-side class matrix of the couple morphism on a block pair: the
    level-1 representatives of w, moved back to w's cochains by backward[i]
    of w's transport, then by forward[i] of p*w's onto the canonical block
    of p*w's key, expressed on the level-2 page there; None when one does
    not survive."""
    multiple = tuple(p * w for w in weights)
    stage = block_modp_homology(block_key(weights), p)[i]
    target = _block_level(block_key(multiple), p, 2)
    matrix, _ = class_matrix(
        partial(target.express_cochain, i),
        transport(multiple).forward[i] @ transport(weights).backward[i]
        @ IntMatrix.from_columns(list(stage.reps), stage.dim_cochain),
        target.e_dim(i))
    return matrix


def ordered_identification(weights: tuple, p: int, k: int):
    """The page identification of the block pair (w, p^k w): the unit
    cochains of p^k w, moved by forward[i] of its transport, on page k of
    the tower of its key; its first failure as (check, degree), or None."""
    multiple = tuple(p ** k * w for w in weights)
    d = [koszul_d(multiple, i) for i in range(len(weights) + 1)]
    for i, d_i in enumerate(d):
        if not d_i.mod(p).is_zero():
            return "cocycle", i
    failure = _page_isomorphism_failure(
        _block_level(block_key(multiple), p, k), transport(multiple).forward,
        partial(koszul_d, weights))
    return None if failure is None else failure[:2]


def euler_checks(r: int, n: int):
    """The Euler-identity checks of verify_annihilation(r, n), multiplied
    out: kappa d + d kappa against |w| times the identity on each distinct
    block, in every degree.  Returns the (name, passed) pairs and the
    witness of the first failure, or None."""
    blocks = koszul_blocks(r, n)
    checks, witness = [], None
    for i in range(min(n, r) + 1):
        failures = []
        for blk in (blocks[b] for b in distinct_blocks(blocks)):
            if i > len(blk.weights):
                continue
            euler = blk.kappa(i + 1) @ blk.d(i) + blk.d(i - 1) @ blk.kappa(i)
            if not euler.is_identity(sum(blk.weights)):
                failures.append({"degree": i, "beta": list(blk.beta),
                                 "matrix": euler.to_lists()})
        checks.append((f"euler identity degree {i}", not failures))
        if failures and witness is None:
            witness = failures[0]
    return checks, witness


def hnf_z_basis(weights: tuple, p: int, j: int, i: int) -> IntMatrix:
    """Z_j = {x : dx in p^j C} in degree i of the block of the ordered
    weights, on the oracle's own block d: the top rows of the kernel of
    [d | p^j I], from its Hermite form."""
    d = _oracle_d(weights)[i]
    if j == 0:
        return IntMatrix.identity(d.ncols)
    return preimage_basis(d, (p ** j) * IntMatrix.identity(d.nrows))


def hnf_page_dims(weights: tuple, p: int, k: int) -> tuple:
    """The dims of Z_k / (p Z_(k-1) + p^(1-k) d Z_(k-1)) in each degree of
    the block, every lattice from hnf_z_basis and every denominator column
    solved in Z_k by lattice_solve (a Hermite form of the Z_k basis)."""
    d = _oracle_d(weights)
    dims = []
    for i in range(len(weights) + 1):
        N = hnf_z_basis(weights, p, k, i)
        den = [[p * v for v in col]
               for col in hnf_z_basis(weights, p, k - 1, i).columns()]
        if i >= 1:
            for col in hnf_z_basis(weights, p, k - 1, i - 1).columns():
                dv = d[i - 1].apply(col)
                assert not any(v % p ** (k - 1) for v in dv)
                den.append([v // p ** (k - 1) for v in dv])
        relations, failed = class_matrix(
            partial(lattice_solve, N), IntMatrix.from_columns(den, N.nrows),
            N.ncols)
        assert failed is None
        G, _, _ = quotient(relations)
        assert set(G.entries) <= {1, p}, G.entries
        dims.append(G.entries.count(p))
    return tuple(dims)


@lru_cache(maxsize=None)
def _smith(weights: tuple, i: int) -> tuple:
    """(s, V, V^-1) for a Smith form U d^i V = S of the oracle's block d:
    s[t] = S[t, t] for each column t of d^i, 0 past the diagonal."""
    d = _oracle_d(weights)[i]
    S, U, V = snf(d)
    assert U @ d @ V == S
    return (tuple(S[t, t] if t < S.nrows else 0 for t in range(S.ncols)),
            V, unimodular_inverse(V))


def _smith_page_degree(weights: tuple, p: int, k: int, i: int):
    """Z_k / (p Z_(k-1) + p^(1-k) d Z_(k-1)) in degree i of the block, with
    Z_j = V diag(p^j / gcd(p^j, s_t)): the generators of the page, the
    solver of Z_k coordinates, the U of quotient and the kept indices."""
    s, V, Vinv = _smith(weights, i)
    scales = tuple(p ** k // gcd(p ** k, v) for v in s)

    def solve(v):
        y = Vinv.apply(v)
        if any(a % c for a, c in zip(y, scales)):
            return None
        return tuple(a // c for a, c in zip(y, scales))

    # p Z_(k-1) on the basis of Z_k: diag(gcd(p^k, s_t) / gcd(p^(k-1), s_t))
    rel_cols = [(0,) * t + (gcd(p ** k, v) // gcd(p ** (k - 1), v),)
                + (0,) * (len(s) - 1 - t) for t, v in enumerate(s)]
    if i >= 1:
        d = _oracle_d(weights)[i - 1]
        s_prev, V_prev, _ = _smith(weights, i - 1)
        scale = p ** (k - 1)
        for col, v in zip(V_prev.columns(), s_prev):
            dv = d.apply([scale // gcd(scale, v) * x for x in col])
            assert not any(x % scale for x in dv)
            coords = solve([x // scale for x in dv])
            assert coords is not None
            rel_cols.append(coords)
    G, U, Uinv = quotient(IntMatrix.from_columns(rel_cols, len(s)))
    assert set(G.entries) <= {1, p}, G.entries
    kept = tuple(idx for idx, e in enumerate(G.entries) if e == p)
    gens = [V.apply([c * v for c, v in zip(scales, Uinv.col(idx))])
            for idx in kept]
    return gens, solve, U, kept


def smith_closed_form_block(weights: tuple, p: int, k: int) -> tuple:
    """Page k of the block of the ordered weights, as (dims, diffs): each
    degree an integer quotient in Smith coordinates (_smith_page_degree)
    and diffs[i] the matrix of d_k[x] = [dx / p^k] on the kept quotient
    generators, from degree i to i+1."""
    d = _oracle_d(weights)
    data = [_smith_page_degree(weights, p, k, i)
            for i in range(len(weights) + 1)]
    dims = tuple(len(kept) for (_, _, _, kept) in data)
    diffs = []
    for i in range(len(weights)):
        _, solve_next, U_next, kept_next = data[i + 1]
        cols = []
        for x in data[i][0]:
            dv = d[i].apply(x)
            assert not any(v % p ** k for v in dv)
            y = solve_next([v // p ** k for v in dv])
            assert y is not None
            full = U_next.apply(y)
            cols.append([full[t] % p for t in kept_next])
        diffs.append(IntMatrix.from_columns(cols, dims[i + 1]))
    return dims, diffs


def pairwise_invariant_chain(entries) -> tuple:
    """Invariant factors d1 | d2 | ... of the sum of the cyclic groups Z/d,
    d > 1.

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


def unshared_modp_homology(d_in: IntMatrix, d_out: IntMatrix, p: int):
    """ker(d_out) / im(d_in) over the p-element field, a new ModpDegree on
    every call."""
    if not (d_out @ d_in).mod(p).is_zero():
        raise ValueError("d_out @ d_in is nonzero mod p: not a complex")
    return ModpDegree(d_in, tuple(nullspace(d_out, p)), p)


class UnsharedCouple:
    """An exact couple that builds everything its content fixes itself: E,
    i = p, the j and k maps (each checked well defined) and the page
    differentials (j k) mod p, certified to square to zero.  The same
    interface as bockstein.ExactCouple, with no record shared by content."""

    def __init__(self, weights, p, level, D, stages, j_matrices, k_matrices,
                 parent=None):
        self.weights = weights
        self.p = p
        self.level = level
        self.D = tuple(D)
        self.stages = tuple(stages)
        self.parent = parent
        self.imax = len(self.D) - 1
        self.dims = tuple(st.dim for st in self.stages)
        self.E = tuple(FgAbGroup((p,) * dim) for dim in self.dims)
        self.i_maps = tuple(Homomorphism(G, G, diagonal_matrix((p,) * G.ngens))
                            for G in self.D)
        self.j_maps = tuple(map(Homomorphism, self.D, self.E, j_matrices))
        self.k_maps = tuple(map(Homomorphism, self.E,
                                self.D[1:] + (FgAbGroup.zero(),), k_matrices))
        self._d = tuple((j.matrix @ k.matrix).mod(p)
                        for j, k in zip(self.j_maps[1:], self.k_maps))
        if any(not (d1 @ d0).mod(p).is_zero()
               for d0, d1 in zip(self._d, self._d[1:])):
            raise RuntimeError("page differential does not square to zero")

    def e_dim(self, i: int) -> int:
        return self.dims[i] if 0 <= i <= self.imax else 0

    def d_matrix(self, i: int) -> IntMatrix:
        if not 0 <= i < self.imax:
            return IntMatrix.zeros(self.e_dim(i + 1), self.e_dim(i))
        return self._d[i]

    def express_cochain(self, i: int, z):
        tower, c = [], self
        while c is not None:
            tower.append(c.stages[i])
            c = c.parent
        for stage in reversed(tower):
            z = stage.express(z)
            if z is None:
                return None
        return z

    def exactness_failures(self) -> list:
        failures = []
        zero_E = FgAbGroup.zero()
        for i in range(self.imax + 1):
            if i >= 1:
                k_in = self.k_maps[i - 1]
            else:
                k_in = Homomorphism.zero(zero_E, self.D[0])
            for label, (f, g) in (
                ("ker i = im k", (k_in, self.i_maps[i])),
                ("ker j = im i", (self.i_maps[i], self.j_maps[i])),
                ("ker k = im j", (self.j_maps[i], self.k_maps[i])),
            ):
                ok, witness = is_exact_at(f, g)
                if not ok:
                    failures.append((label, i, witness))
        return failures


def unshared_derive(c: UnsharedCouple) -> UnsharedCouple:
    """The derived couple of an exact UnsharedCouple, every certificate and
    check computed afresh: D' = pD, E' = ker(jk)/im(jk), j' on the
    i-preimages (checked independent of the choice) and k' on the
    surviving classes."""
    failures = c.exactness_failures()
    if failures:
        label, i, witness = failures[0]
        raise ExactnessError(
            f"couple level {c.level} of weights {c.weights} at "
            f"p={c.p} fails {label} in degree {i}; witness {witness}")
    p = c.p
    stages = [unshared_modp_homology(c.d_matrix(i - 1), c.d_matrix(i), p)
              for i in range(c.imax + 1)]
    j_matrices = []
    for D, j, stage in zip(c.D, c.j_maps, stages):
        j_cols = j.matrix.columns()
        for t, m in p_torsion(D, p):
            coords = stage.express([m * v for v in j_cols[t]])
            if coords is None or any(v % p for v in coords):
                raise ExactnessError(
                    "j' is not independent of the preimage choice")
        cols = []
        for j_e in j_cols:
            coords = stage.express(j_e)
            if coords is None:
                raise ExactnessError("j' value does not survive to E'")
            cols.append(tuple(v % p for v in coords))
        j_matrices.append(IntMatrix.from_columns(cols, stage.dim))
    k_matrices = []
    for k, stage in zip(c.k_maps, stages):
        G = k.target
        matrix, _ = class_matrix(
            partial(express_through, diagonal_matrix((p,) * G.ngens),
                    G.relations),
            k.matrix @ stage.rep_matrix(), G.ngens)
        if matrix is None:
            raise ExactnessError("k of a surviving class misses im(i)")
        k_matrices.append(matrix)
    return UnsharedCouple(c.weights, p, c.level + 1,
                          [FgAbGroup(d // gcd(d, p) for d in D.entries)
                           for D in c.D], stages, j_matrices, k_matrices,
                          parent=c)


def unshared_tower(key: tuple, p: int, levels: int) -> list:
    """Levels 1..levels of the tower of the canonical block of the key, as
    UnsharedCouples: level 1 from the j and k matrices of _block_couple on
    fresh mod-p homology, each later level by unshared_derive."""
    weights = canonical_weights(key)
    d = [koszul_d(weights, i) for i in range(-1, len(weights) + 1)]
    mp = [unshared_modp_homology(d_in, d_out, p)
          for d_in, d_out in zip(d, d[1:])]
    first = _block_couple(weights, p, block_homology(key), mp)
    tower = [UnsharedCouple(weights, p, 1, first.D, mp,
                            [j.matrix for j in first.j_maps],
                            [k.matrix for k in first.k_maps])]
    while len(tower) < levels:
        tower.append(unshared_derive(tower[-1]))
    return tower
