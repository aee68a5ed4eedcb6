"""Exact linear algebra over the integers.

Matrices are immutable and hold Python ints only, and every routine is
exact.  Spans come from the integer row Hermite form, which is unique, so
derived bases are reproducible across runs and platforms.  The Hermite
form is one echelon pass and one pass that reduces above the pivots
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
section 2.4.3).  A kernel takes the echelon pass of [m^T | I] on its left
block and the Hermite form of the rows it leaves with a zero left block
only, and the echelon pivots give the index of the image.  ``solve``
reads the integer solution of B X = Y off the Hermite form of [B | Y].
The Smith form keeps its own elimination: D is unique but V is not, and
``lattice info`` prints the q-values of V's columns.  One built from
alternating echelon passes changed U or V on 1624 of 3000 random
matrices and the q-values on 57 of 246 lattices (H5: 8/5 to 2/5), and
was 2.1x slower on the table's Gram matrices, 1.6x on the engine's 4x4.
It returns D and the column transform V only, and builds no row
transform: a discriminant form reads D and V, and the Lefschetz engine
takes its row transform of 1 - H as the transposed V of 1 - H^T.

Each job has one implementation, which the rest of the package calls:
``@`` is the matrix product (matrix powers, 1 - h, Gram matrices such as
the V^T G V of the discriminant form), and ``exact_det`` the
determinant (det(1 - Psi^s), and the generation check of the finite
quadratic form search, taken mod p).

The integer kernels skip the work that zero entries and unit pivots make
redundant: a product is a sum of row combinations over the nonzero
entries of the left factor, Bareiss elimination updates whole rows and
rescales a row with zeros in the pivot columns once, when a pivot column
next reaches it (an exact quotient by Sylvester's identity), Hermite
elimination rewrites one row when the pivot divides the entry it clears, back
substitution divides by no unit pivot, and the Smith form ends its pivot
search at an entry +-1 and skips the divisibility scan at a unit pivot.
None of these shortcuts changes an output.

Rational matrices appear nowhere: an overlattice basis is kept as the
integer matrix den * B, whose scale cancels in B^-1 phi B, and the
Fraction references that cross-check the determinant and the inverse are
kept with the tests (``tests/matrix_reference.py``).

Entries are checked once, when a matrix is built by the public
constructor.  Sums, products, transposes and stacks, and the outputs of
the Smith, Hermite, kernel and solve routines, hold plain ints by
construction, so they are built without checking their rows a second
time.

``_Frozen``, the base of the package's immutable value classes (lattices,
isometries, reports), builds each from its ``__slots__`` by one constructor
and one trusted path.  It lives here, with ``_is_int`` (the one test of an
integer input: an int, not a bool) and the trial-division ``factorize``
that ``moebius`` and ``is_prime`` read, because every part of the package
imports this module, the one module that sets the fields of a value class.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, attrgetter, neg, sub
from typing import Iterable

_INT_ONLY = frozenset({int})

_new = object.__new__


class _Frozen:
    """Base of an immutable value class whose fields are its ``__slots__``.

    The constructor takes the fields in slot order, positionally or by
    keyword, and the class's ``_defaults`` for those left out; a missing
    field, an unknown keyword, a field given twice or a value too many
    raises TypeError.  A class that validates its input keeps its own
    ``__init__``, which ends in ``super().__init__(...)``.
    ``cls._trusted(*fields)``, the path of copies and pickles, takes fields
    valid by construction and runs no ``__init__``.  Both set the fields by
    the slot descriptors' ``__set__``, collected once per class.

    Two objects are equal when they are of the same class and agree on the
    compared fields, ``_compare`` (all the slots unless the class names
    fewer), and hash by the same fields.  ``repr`` shows every slot as
    ``name=value``.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._key = attrgetter(*getattr(cls, "_compare", cls.__slots__))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *fields, **named):
        setters = self._setters
        if named or len(fields) != len(setters):
            fields = self._bind(fields, named)
        for put, value in zip(setters, fields):
            put(self, value)

    def _bind(self, fields, named):
        """One value per slot, in slot order, from ``fields``, ``named`` and ``_defaults``."""
        cls, names = type(self).__name__, self.__slots__
        if len(fields) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(fields)} were given")
        given = dict(zip(names, fields))
        for name in named:
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected field {name!r}")
            if name in given:
                raise TypeError(f"{cls}() got multiple values for field {name!r}")
        values = {**self._defaults, **given, **named}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing fields {', '.join(missing)}")
        return [values[name] for name in names]

    @classmethod
    def _trusted(cls, *fields):
        """The object on ``fields``, in slot order and valid by construction, taken as they are."""
        obj = _new(cls)
        for put, value in zip(cls._setters, fields):
            put(obj, value)
        return obj

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._trusted, tuple(getattr(self, name) for name in self.__slots__)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def factorize(n: int) -> dict[int, int]:
    """{p: v} with n = prod p^v over the primes p | n, in increasing p, for n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    exponents = factorize(n).values()
    return 0 if any(v > 1 for v in exponents) else (-1) ** len(exponents)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def _normalize_entry(x):
    if _is_int(x):
        return int(x)  # an int subclass such as IntEnum is stored as a plain int
    raise TypeError(f"matrix entries must be int, got {type(x).__name__}")


class Matrix:
    """Immutable rectangular matrix of Python ints.

    An int subclass entry is stored as a plain int; a bool, Fraction, float
    or any other entry raises TypeError.  The private ``_of_ints`` builds a
    matrix from rows that are plain ints already, without checking them
    again, and is the path of copies and pickles.  As in ``_Frozen``, both
    set the fields by the slot descriptors' ``__set__``, and assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable], cols: int | None = None):
        data = []
        for row in rows:
            row = tuple(row)
            # a row of plain ints is kept as it is; any other row is checked entry by entry
            if not _INT_ONLY.issuperset(map(type, row)):
                row = tuple(map(_normalize_entry, row))
            data.append(row)
        if data:
            widths = set(map(len, data))
            if len(widths) != 1:
                raise ValueError("rows have unequal lengths")
            (width,) = widths
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row data")
        else:
            width = cols if cols is not None else 0
        _set_data(self, tuple(data))
        _set_rows(self, len(data))
        _set_cols(self, width)

    @classmethod
    def _of_ints(cls, data: tuple, cols: int) -> "Matrix":
        """A matrix on ``data``, a tuple of ``cols``-tuples of plain ints, taken as it is."""
        m = _new(cls)
        _set_data(m, data)
        _set_rows(m, len(data))
        _set_cols(m, cols)
        return m

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    def __reduce__(self):
        return self._of_ints, (self.data, self.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_symmetric(self):
        return self.is_square and self.data == tuple(zip(*self.data))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._of_ints(data, self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product as row combinations over the nonzero entries of ``self``.

        Row i of the result is the sum of v * (row k of other) over the
        entries v = self[i, k] != 0; a row is added for v = 1 and subtracted
        for v = -1 without a multiplication.  Zero entries cost nothing,
        which suits the sparse Gram, rotation and permutation matrices the
        library multiplies.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        zero = (0,) * other.cols
        out = []
        for row in self.data:
            acc = zero
            for v, orow in zip(row, other.data):
                if not v:
                    continue
                if v == 1:
                    acc = list(map(add, acc, orow))
                elif v == -1:
                    acc = list(map(sub, acc, orow))
                else:
                    acc = [x + v * y for x, y in zip(acc, orow)]
            out.append(tuple(acc))
        return Matrix._of_ints(tuple(out), other.cols)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        data = tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.data, other.data))
        return Matrix._of_ints(data, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "Matrix":
        return Matrix._of_ints(tuple(tuple(map(neg, row)) for row in self.data), self.cols)

    def scale(self, k) -> "Matrix":
        return Matrix([[k * x for x in row] for row in self.data], cols=self.cols)

    def __pow__(self, n: int) -> "Matrix":
        if not self.is_square or n < 0:
            raise ValueError("matrix power needs a square matrix and n >= 0")
        if n == 0:
            return identity(self.rows)
        # left-to-right binary ladder: square per bit, multiply by self per set bit
        result = self
        for bit in bin(n)[3:]:
            result = result @ result
            if bit == "1":
                result = result @ self
        return result

    def to_lists(self):
        return [list(row) for row in self.data]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data and self.shape == other.shape

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        return f"Matrix({self.to_lists()!r})"


# the slot descriptors' setters, the one way to set the fields of a Matrix
_set_data, _set_rows, _set_cols = (getattr(Matrix, name).__set__ for name in Matrix.__slots__)


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity; memoized, since matrices are immutable."""
    return Matrix._of_ints(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix._of_ints(((0,) * cols,) * rows, cols)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    return Matrix._of_ints(tuple(ra + rb for ra, rb in zip(a.data, b.data)), a.cols + b.cols)


def block_diag(*mats: Matrix) -> Matrix:
    cols = sum(m.cols for m in mats)
    data = []
    c0 = 0
    for m in mats:
        left, right = (0,) * c0, (0,) * (cols - c0 - m.cols)
        data += [left + row + right for row in m.data]
        c0 += m.cols
    return Matrix._of_ints(tuple(data), cols)


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def exact_det(m: Matrix) -> int:
    """Exact determinant of an integer matrix, by Bareiss elimination."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    if m.rows == 0:
        return 1
    return _det_bareiss(m)


def _det_bareiss(m: Matrix) -> int:
    """Fraction-free Gaussian elimination (Bareiss) with lazy rescaling of rows.

    Step k with pivot p_k turns each row below into
    (p_k x - lead y) / p_(k-1), with lead its entry in the pivot column and
    y the pivot row, and every such quotient is exact.  A row with a zero
    lead is only multiplied by p_k / p_(k-1); after the zero leads of steps
    t .. k - 1 it is its row of step t times p_(k-1) / p_(t-1), an exact
    quotient by Sylvester's identity, as both are minors (Bareiss, Math.
    Comp. 22, 1968).  So each row keeps ``scale[i]``, the pivot of the last
    step that wrote it, and is left untouched until a pivot column reaches
    it: a row with a nonzero lead then becomes (p_k x - lead y) / scale[i]
    at once, and the pivot row is brought to its true entries by
    prev / scale[i] first.  A row untouched by the steps costs one lookup
    of its lead per step, and a dense matrix, whose rows are all written at
    every step, costs what eager rescaling costs.

    Rows are replaced, never written in place, and a row written at step j
    holds the columns right of j only, so column k is entry k - n of every
    row.
    """
    a = list(m.data)
    n = len(a)
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        c = k - n  # column k, counted from the end of every row
        row = a[k]
        if not row[c]:
            swap = next((i for i in range(k + 1, n) if a[i][c]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], row
            scale[k], scale[swap] = scale[swap], scale[k]
            row = a[k]
            sign = -sign
        pivot, tail, s = row[c], row[c + 1:], scale[k]
        if s != prev:
            pivot = pivot * prev // s
            tail = [x * prev // s for x in tail]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[c]
            if lead:
                s = scale[i]
                a[i] = [(x * pivot - lead * y) // s for x, y in zip(row[c + 1:], tail)]
                scale[i] = pivot
        prev = pivot
    return sign * a[-1][-1] * prev // scale[-1]


def smith_normal_form(m: Matrix):
    """Return (D, V): D = U @ m @ V for some unimodular U, and V unimodular.

    D is diagonal with nonnegative entries satisfying d_i | d_{i+1}.  Pivot
    selection: smallest absolute value among nonzero entries of the
    remaining block, ties broken by lowest row, then column.  A pivot of 1
    ends the search at once and needs no divisibility scan of the remaining
    block, since 1 divides every entry.

    U is never built.  A caller that needs a left transform of m takes the
    transposed V of the Smith form of m^T: from U1 m^T V1 = D it follows
    that V1^T m U1^T = D.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.data]
    right = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in right:
                r[i], r[j] = r[j], r[i]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best  # no entry is smaller, and ties go to the first
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        a[t], a[best[1]] = a[best[1]], a[t]
        swap_cols(t, best[2])
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            pivot = a[t][t]
            # clear column t, then row t, one entry per pass; a remainder left
            # in the pivot position starts the next pass
            for i in range(t + 1, rows):
                if a[i][t]:
                    c = a[i][t] // pivot
                    a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                    break
            else:
                for j in range(t + 1, cols):
                    if a[t][j]:
                        c = a[t][j] // pivot
                        for r in a:
                            r[j] -= c * r[t]
                        for r in right:
                            r[j] -= c * r[t]
                        if a[t][j]:
                            swap_cols(t, j)
                        break
                else:
                    if pivot == 1:
                        break  # 1 divides every entry of the remaining block
                    offender = next((i for i in range(t + 1, rows)
                                     if any(a[i][j] % pivot for j in range(t + 1, cols))), None)
                    if offender is None:
                        break
                    a[t] = [x + y for x, y in zip(a[t], a[offender])]
        t += 1
    # as Matrix(a) would: a matrix with no rows has no columns
    return (Matrix._of_ints(tuple(map(tuple, a)), cols if rows else 0),
            Matrix._of_ints(tuple(map(tuple, right)), cols))


def _echelon_rows(a: list, cols: int) -> list:
    """Bring the integer rows ``a`` to echelon form on their first ``cols`` columns, in place.

    Returns the pivot columns, one per leading row; the rows after them are
    zero on the first ``cols`` columns afterwards.  The pivot is the least
    nonzero entry of the column in absolute value (the scan stops at +-1),
    which keeps the entries small on dense inputs, and it is made positive.
    An entry that the current pivot divides is cleared by subtracting a
    multiple of the pivot row, which rewrites one row; any other entry is
    combined with the pivot by the 2x2 xgcd transform, which rewrites both.
    Whole rows are combined, so the row span is kept.  Nothing above a
    pivot is reduced; ``_hermite_rows`` does that for callers that need it.
    """
    rows = len(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv, least = None, 0
        for i in range(r, rows):
            e = abs(a[i][c])
            if e and (piv is None or e < least):
                piv, least = i, e
                if e == 1:
                    break
        if piv is None:
            continue
        for i in range(r, rows):
            e = a[i][c]
            if not e or i == piv:
                continue
            rp, ri = a[piv], a[i]
            p = rp[c]
            if e % p == 0:
                q = e // p
                a[i] = [t_ - q * s for s, t_ in zip(rp, ri)]
            else:
                g, x, y = _xgcd(p, e)
                p_, q_ = p // g, e // g
                a[piv] = [x * s + y * t_ for s, t_ in zip(rp, ri)]
                a[i] = [-q_ * s + p_ * t_ for s, t_ in zip(rp, ri)]
        a[r], a[piv] = a[piv], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        pivots.append(c)
    return pivots


def _hermite_rows(a: list, cols: int) -> int:
    """Bring the integer rows ``a`` to row Hermite form in place; return the rank.

    The echelon pass leaves the nonzero rows first, then each pivot row, in
    increasing order, reduces the entries above its pivot into [0, pivot).
    A pivot row is final in the echelon pass once placed, and a reduction
    against pivot r changes no column left of it, so the rows above every
    pivot end reduced.  The Hermite form is unique.
    """
    pivots = _echelon_rows(a, cols)
    for r, c in enumerate(pivots):
        pivot_row = a[r]
        for i in range(r):
            q = a[i][c] // pivot_row[c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
    return len(pivots)


def row_hermite(m: Matrix) -> Matrix:
    """Canonical row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and pivot columns strictly increase down the rows.  The
    output depends only on the row span of the input.
    """
    a = [list(r) for r in m.data]
    rank = _hermite_rows(a, m.cols)
    return Matrix._of_ints(tuple(map(tuple, a[:rank])), m.cols)


def column_hermite_basis(m: Matrix) -> Matrix:
    """Canonical basis (as columns) of the column span of an integer matrix."""
    return row_hermite(m.transpose()).transpose()


def solve(b: Matrix, y: Matrix, not_integral: str = "solution is not integral") -> Matrix:
    """The integer matrix X with B X = Y, for a square nonsingular B.

    The row Hermite form of [B | Y] is [H | U Y] with H = U B upper
    triangular and U unimodular, so X solves H X = U Y and is found by back
    substitution with exact integer division; a unit pivot divides nothing.
    A singular B leaves H with a zero on its diagonal ("matrix is
    singular"), and a nonzero remainder means that X is not integral, which
    raises ValueError(not_integral).  (Cohen, A Course in Computational
    Algebraic Number Theory, GTM 138, section 2.4.)
    """
    n = b.rows
    if not b.is_square or y.rows != n:
        raise ValueError(f"solve needs a square B and Y with as many rows, got {b.shape}, {y.shape}")
    hermite = row_hermite(hstack(b, y)).data
    if len(hermite) < n or not all(hermite[i][i] for i in range(n)):
        raise ValueError("matrix is singular")
    x = [None] * n
    for i in reversed(range(n)):
        h = hermite[i]
        acc = h[n:]
        for k in range(i + 1, n):
            c = h[k]
            if c:
                acc = [s - c * t for s, t in zip(acc, x[k])]
        pivot = h[i]
        if pivot != 1:
            row = []
            for s in acc:
                q, r = divmod(s, pivot)
                if r:
                    raise ValueError(not_integral)
                row.append(q)
            acc = row
        x[i] = tuple(acc)
    return Matrix._of_ints(tuple(x), y.cols)


def integer_kernel(m: Matrix, with_index: bool = False):
    """Canonical basis of the saturated kernel sublattice, as columns.

    The rows of [m^T | I] are (x^T m^T, x^T) for the unit vectors x, so their
    integer span is {((m x)^T, x^T)}.  An echelon pass on the left block
    leaves r = rank(m) rows with a pivot there, whose left blocks are an
    echelon basis of the image m Z^cols, and below them rows with a zero
    left block, whose right blocks span {x : m x = 0}.  Only those rows are
    brought to row Hermite form, the canonical Hermite basis of ker(m),
    which is returned transposed.  The image rows are never reduced above
    their pivots: a kernel does not read them, and on dense inputs that
    reduction made most of the work and of the coefficient growth.  The
    kernel of an integer matrix is saturated, so the columns always extend
    to a basis of Z^cols.

    With ``with_index`` the result is (K, h), where h = [Z^rows : m Z^cols]
    is the product of the r echelon pivots if m has full row rank, and 0
    (an infinite index) otherwise.
    """
    rows, cols = m.rows, m.cols
    left = zip(*m.data) if rows else [()] * cols
    a = [[*col, *unit] for col, unit in zip(left, identity(cols).data)]
    pivots = _echelon_rows(a, rows)
    kernel = [row[rows:] for row in a[len(pivots):]]
    _hermite_rows(kernel, cols)
    k = Matrix._of_ints(tuple(zip(*kernel)), len(kernel)) if kernel else zeros(cols, 0)
    if not with_index:
        return k
    return k, (prod(a[r][c] for r, c in enumerate(pivots)) if len(pivots) == rows else 0)
