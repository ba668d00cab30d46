"""Linear algebra over the prime field with p elements, p small.

Everything works on residues 0..p-1 with p <= 13 enforced; no modular
lifting tricks.  Vectors are tuples, matrices lists of row lists.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .intlinalg import IntMatrix

MAX_PRIME = 13


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the supported bound {MAX_PRIME}")
    return p


def valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of 0")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def primes_dividing(n: int) -> list:
    out = []
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primes_up_to(n: int) -> list:
    return [p for p in range(2, n + 1) if is_prime(p)]


def _to_rows(M: IntMatrix, p: int) -> list:
    return [[a % p for a in row] for row in M._rows]


def rref(rows: list, ncols: int, p: int):
    """Reduced row echelon form mod p.  Returns (R, pivot_columns)."""
    R = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(R)):
            if R[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [(inv * x) % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivots


def rank(M: IntMatrix, p: int) -> int:
    _, pivots = rref(_to_rows(M, p), M.ncols, p)
    return len(pivots)


def nullspace(M: IntMatrix, p: int) -> list:
    """Deterministic basis of the mod-p kernel, one vector per free column."""
    n = M.ncols
    R, pivots = rref(_to_rows(M, p), n, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r][f]) % p
        basis.append(tuple(v))
    return basis


class Solver:
    """Repeated-solve helper for A @ x = b mod p.

    Precomputes the row reduction of [A | I] so each solve is a single
    matrix-vector product plus consistency checks.
    """

    def __init__(self, A: IntMatrix, p: int):
        self.p = p
        self.nrows = m = A.nrows
        self.ncols = A.ncols
        aug = [row + [1 if i == j else 0 for j in range(m)]
               for i, row in enumerate(_to_rows(A, p))]
        R, pivots = rref(aug, A.ncols + m, p)
        # rows are fully reduced; pivots beyond ncols mean pure rank conditions
        self.rows = []
        for r, row in enumerate(R):
            piv = pivots[r] if r < len(pivots) else None
            if piv is not None and piv < A.ncols:
                self.rows.append((piv, row[A.ncols:]))
            else:
                self.rows.append((None, row[A.ncols:]))

    def solve(self, b: Sequence[int]) -> Optional[tuple]:
        if len(b) != self.nrows:
            raise ValueError("right-hand side of wrong length")
        p = self.p
        x = [0] * self.ncols
        for piv, trans in self.rows:
            v = 0
            for t, bv in zip(trans, b):
                if t and bv:
                    v += t * bv
            v %= p
            if piv is None:
                if v:
                    return None
            else:
                x[piv] = v
        return tuple(x)

