"""Exact integer matrices, Hermite and Smith normal forms, lattice solving.

All arithmetic is exact on unbounded Python ints; there are no overflow
semantics anywhere.  Matrices are immutable once built, and matrices with
zero rows or zero columns are legal everywhere (they denote zero modules
and zero maps).
"""

from __future__ import annotations

from functools import lru_cache
from operator import index as _int
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """Dense immutable matrix of exact integers, row-major."""

    __slots__ = ("nrows", "ncols", "_rows", "_hash")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        data = tuple(tuple(map(_int, row)) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows of unequal length")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        if ncols < 0:
            raise ValueError("negative ncols")
        self.nrows = len(data)
        self.ncols = ncols
        self._rows = data
        self._hash = None

    @classmethod
    def _raw(cls, rows: tuple, ncols: int) -> "IntMatrix":
        # trusted fast path: rows must already be a tuple of equal-width
        # tuples of Python ints
        obj = object.__new__(cls)
        obj.nrows = len(rows)
        obj.ncols = ncols
        obj._rows = rows
        obj._hash = None
        return obj

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw_columns(cls, cols: Sequence[tuple], nrows: int) -> "IntMatrix":
        # trusted fast path: cols must already be tuples of nrows Python ints
        return cls._raw(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        if nrows < 0 or ncols < 0:
            raise ValueError("negative shape")
        return cls._raw(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("negative shape")
        return cls._raw(tuple((0,) * i + (1,) + (0,) * (n - 1 - i)
                              for i in range(n)), n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        if any(len(c) != nrows for c in cols):
            raise ValueError("column of wrong length")
        return cls._raw_columns([tuple(map(_int, c)) for c in cols], nrows)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def col(self, j: int) -> tuple:
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        return tuple(row[j] for row in self._rows)

    def columns(self) -> list:
        """Every column as a tuple, in one pass over the rows."""
        if not self._rows:
            return [()] * self.ncols
        return list(zip(*self._rows))

    def top_rows(self, k: int) -> "IntMatrix":
        return IntMatrix._raw(self._rows[:k], self.ncols)

    def to_lists(self) -> list:
        return [list(row) for row in self._rows]

    # -- arithmetic --------------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        orows = other._rows
        ncols = other.ncols
        out = []
        for arow in self._rows:
            acc = [0] * ncols
            for k, a in enumerate(arow):
                if a:
                    brow = orows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix._raw(tuple(out), ncols)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError("vector of wrong length")
        out = []
        for row in self._rows:
            s = 0
            for a, b in zip(row, vec):
                if a and b:
                    s += a * b
            out.append(s)
        return tuple(out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._raw(tuple(tuple(a + b for a, b in zip(r1, r2))
                                    for r1, r2 in zip(self._rows, other._rows)),
                              self.ncols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix._raw(tuple(tuple(a - b for a, b in zip(r1, r2))
                                    for r1, r2 in zip(self._rows, other._rows)),
                              self.ncols)

    def __rmul__(self, c: int) -> "IntMatrix":
        c = _int(c)
        return IntMatrix._raw(tuple(tuple(c * a for a in row) for row in self._rows),
                              self.ncols)

    def mod(self, p: int) -> "IntMatrix":
        if p <= 0:
            raise ValueError("modulus must be positive")
        return IntMatrix._raw(tuple(tuple(a % p for a in row) for row in self._rows),
                              self.ncols)

    # -- predicates ----------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(not a for row in self._rows for a in row)

    def is_identity(self, scale: int = 1) -> bool:
        """Whether the matrix is scale times the identity: square, with
        scale on the diagonal and zeros elsewhere, tested entrywise."""
        return self.nrows == self.ncols and all(
            a == (scale if i == j else 0) for i, row in enumerate(self._rows)
            for j, a in enumerate(row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ncols, self._rows))
        return self._hash

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"IntMatrix(zeros {self.nrows}x{self.ncols})"
        body = ", ".join(str(list(row)) for row in self._rows)
        return f"IntMatrix([{body}])"


def hstack(*mats: IntMatrix) -> IntMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack: row counts differ")
    rows = tuple(sum((m._rows[i] for m in mats), ()) for i in range(nrows))
    return IntMatrix._raw(rows, sum(m.ncols for m in mats))


@lru_cache(maxsize=None)
def augmented(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Cached two-block [a | b]: one object per (a, b), so _hnf_cached
    hashes it once (IntMatrix keeps its hash) and hits it by identity."""
    return hstack(a, b)


# -- Hermite normal form (column style) ------------------------------------------


@lru_cache(maxsize=None)
def _hnf_cached(M: IntMatrix):
    # reductions run over the nonzero (index, entry) pairs of a pivot column
    m, n = M.nrows, M.ncols
    cols = [list(col) for col in M.columns()]
    ucols = [[0] * n for _ in range(n)]
    for j in range(n):
        ucols[j][j] = 1
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
            base = [(t, x) for t, x in enumerate(cols[j0]) if x]
            ubase = [(t, x) for t, x in enumerate(ucols[j0]) if x]
            for j in live:
                if j == j0:
                    continue
                q = cols[j][i] // a
                if q:
                    cj, uj = cols[j], ucols[j]
                    for t, x in base:
                        cj[t] -= q * x
                    for t, x in ubase:
                        uj[t] -= q * x
            live = [j for j in live if cols[j][i]]
        j0 = live[0]
        if j0 != c:
            cols[c], cols[j0] = cols[j0], cols[c]
            ucols[c], ucols[j0] = ucols[j0], ucols[c]
        if cols[c][i] < 0:
            cols[c] = [-x for x in cols[c]]
            ucols[c] = [-x for x in ucols[c]]
        piv = cols[c][i]
        base = [(t, x) for t, x in enumerate(cols[c]) if x]
        ubase = [(t, x) for t, x in enumerate(ucols[c]) if x]
        for j in range(c):
            q = cols[j][i] // piv
            if q:
                cj, uj = cols[j], ucols[j]
                for t, x in base:
                    cj[t] -= q * x
                for t, x in ubase:
                    uj[t] -= q * x
        pivots.append((i, c))
        c += 1
    hcols = tuple(map(tuple, cols))
    ucols_t = tuple(map(tuple, ucols))
    return (IntMatrix._raw_columns(hcols, m), IntMatrix._raw_columns(ucols_t, n),
            tuple(pivots), hcols, ucols_t)


def hnf(M: IntMatrix):
    """Column Hermite normal form.

    Returns (H, U) with M @ U = H and U unimodular.  H is column echelon:
    pivot rows strictly increase left to right, pivots are positive, the
    entries left of a pivot in its row lie in [0, pivot), and zero columns
    are collected on the right.  H is the canonical form of the column
    lattice of M, so two matrices span the same lattice iff their H agree.
    """
    H, U, _, _, _ = _hnf_cached(M)
    return H, U


def lattice_solve(M: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """Solve M @ x = b over the integers.

    Returns a coefficient vector x when b lies in the column lattice of M,
    and None otherwise (a definite answer either way).
    """
    b = tuple(b)
    if len(b) != M.nrows:
        raise ValueError("right-hand side of wrong length")
    _, _, pivots, hcols, ucols = _hnf_cached(M)
    res = list(b)
    support = []
    for (i, c) in pivots:
        v = res[i]
        if v:
            col = hcols[c]
            piv = col[i]
            if v % piv:
                return None
            q = v // piv
            for idx, entry in enumerate(col):
                if entry:
                    res[idx] -= q * entry
            support.append((c, q))
    if any(res):
        return None
    out = [0] * M.ncols
    for c, q in support:
        ucol = ucols[c]
        for idx, entry in enumerate(ucol):
            if entry:
                out[idx] += q * entry
    return tuple(out)


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice {x : M @ x = 0}, as columns."""
    _, _, pivots, _, ucols = _hnf_cached(M)
    return IntMatrix._raw_columns(ucols[len(pivots):], M.ncols)


def preimage_basis(f: IntMatrix, rel: IntMatrix) -> IntMatrix:
    """Columns spanning {x : f @ x lies in the column lattice of rel}."""
    if f.nrows != rel.nrows:
        raise ValueError("row counts differ")
    K = kernel_basis(augmented(f, rel))
    return K.top_rows(f.ncols)


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (via its Hermite form)."""
    if M.nrows != M.ncols:
        raise ValueError("matrix is not square")
    H, U = hnf(M)
    if not H.is_identity():
        raise ValueError("matrix is not unimodular")
    return U


# -- Smith normal form -------------------------------------------------------------


def _transpose(M: IntMatrix) -> IntMatrix:
    return IntMatrix._raw(tuple(M.columns()), M.nrows)


@lru_cache(maxsize=None)
def _snf_cached(M: IntMatrix):
    # Alternate column Hermite forms (A @ W) with row Hermite forms (the
    # Hermite form of the transpose) until A is diagonal, then fold a row
    # whose entry the pivot does not divide into the pivot row and start
    # again.  A pass either leaves A diagonal or shrinks a positive pivot to
    # the gcd of its row or column, and an unchanged pivot has its row and
    # column cleared for good, so the loop ends.
    A, U, V = M, IntMatrix.identity(M.nrows), IntMatrix.identity(M.ncols)
    on_rows = False
    while True:
        if on_rows:
            H, W = hnf(_transpose(A))
            A, U = _transpose(H), _transpose(W) @ U
        else:
            A, W = hnf(A)
            V = V @ W
        on_rows = not on_rows
        if any(a for i, row in enumerate(A._rows)
               for j, a in enumerate(row) if i != j):
            continue
        diag = [A[t, t] for t in range(min(A.shape))]
        fold = next(((t, s) for t, d in enumerate(diag) if d
                     for s in range(t + 1, len(diag)) if diag[s] % d), None)
        if fold is None:
            return A, U, V
        t, s = fold
        A, U = (IntMatrix._raw(tuple(
            tuple(a + b for a, b in zip(row, X.row(s))) if k == t else row
            for k, row in enumerate(X._rows)), X.ncols) for X in (A, U))
        on_rows = False


def snf(M: IntMatrix):
    """Smith normal form.

    Returns (S, U, V) with U @ M @ V = S, U and V unimodular, S diagonal
    with nonnegative entries d1 | d2 | ... (zeros last).  It is built from
    Hermite forms of M and of its transpose (Kannan and Bachem), so hnf is
    the one integer elimination of the package.
    """
    return _snf_cached(M)
