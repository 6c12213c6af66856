"""Affine expressions and vector-valued affine functions.

An :class:`AffineExpr` is ``(c . x + k) / den`` with integer
coefficients and a positive integer denominator.  The folding stage
fits these exactly to observed ``(point, value)`` streams; the
scheduler manipulates them when composing transformations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple


class AffineExpr:
    """``value(x) = (coeffs . x + const) / den`` with ``den >= 1``."""

    __slots__ = ("coeffs", "const", "den")

    def __init__(self, coeffs: Sequence[int], const: int, den: int = 1) -> None:
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            coeffs = [-c for c in coeffs]
            const, den = -const, -den
        g = abs(den)
        for c in coeffs:
            g = gcd(g, abs(int(c)))
        g = gcd(g, abs(int(const)))
        if g > 1:
            coeffs = [int(c) // g for c in coeffs]
            const, den = int(const) // g, den // g
        self.coeffs: Tuple[int, ...] = tuple(int(c) for c in coeffs)
        self.const: int = int(const)
        self.den: int = int(den)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_normalized(
        cls, coeffs: Sequence[int], const: int, den: int
    ) -> "AffineExpr":
        """Construct from an already-reduced ``(coeffs, const, den)``
        triple (``den >= 1``, gcd 1) -- the form ``__init__`` produces
        and the artifact codec serializes.  Skips the gcd reduction,
        which dominates artifact decode."""
        e = object.__new__(cls)
        e.coeffs = tuple(coeffs)
        e.const = const
        e.den = den
        return e

    @classmethod
    def constant(cls, value: int, dim: int) -> "AffineExpr":
        return cls((0,) * dim, value)

    @classmethod
    def var(cls, index: int, dim: int) -> "AffineExpr":
        c = [0] * dim
        c[index] = 1
        return cls(c, 0)

    # -- evaluation -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __call__(self, point: Sequence[int]) -> Fraction:
        num = sum(c * int(p) for c, p in zip(self.coeffs, point)) + self.const
        return Fraction(num, self.den)

    def eval_int(self, point: Sequence[int]) -> int:
        """Evaluate, requiring an integer result."""
        v = self(point)
        if v.denominator != 1:
            raise ValueError(f"non-integer value {v} at {tuple(point)}")
        return int(v)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_constant(self) -> bool:
        return not any(self.coeffs)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        self._same_dim(other)
        d = self.den * other.den
        return AffineExpr(
            [a * other.den + b * self.den for a, b in zip(self.coeffs, other.coeffs)],
            self.const * other.den + other.const * self.den,
            d,
        )

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scale(-1)

    def scale(self, k: int) -> "AffineExpr":
        return AffineExpr([c * k for c in self.coeffs], self.const * k, self.den)

    def _same_dim(self, other: "AffineExpr") -> None:
        if self.dim != other.dim:
            raise ValueError("arity mismatch")

    def substitute(self, exprs: Sequence["AffineExpr"]) -> "AffineExpr":
        """Compose: this expression applied to ``x_i = exprs[i](y)``."""
        if len(exprs) != self.dim:
            raise ValueError("arity mismatch")
        out_dim = exprs[0].dim if exprs else 0
        acc = AffineExpr.constant(0, out_dim)
        for c, e in zip(self.coeffs, exprs):
            if c:
                acc = acc + e.scale(c)
        acc = acc + AffineExpr.constant(self.const, out_dim)
        if self.den != 1:
            acc = AffineExpr(acc.coeffs, acc.const, acc.den * self.den)
        return acc

    # -- misc --------------------------------------------------------------------

    def as_row(self) -> Tuple[int, ...]:
        """Constraint-row form ``coeffs + (const,)`` (requires den == 1)."""
        if self.den != 1:
            raise ValueError("as_row() requires an integral expression")
        return self.coeffs + (self.const,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.const == other.const
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.const, self.den))

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        names = list(names) if names else [f"i{j}" for j in range(self.dim)]
        parts: List[str] = []
        for c, n in zip(self.coeffs, names):
            if c == 0:
                continue
            if c == 1:
                parts.append(n)
            elif c == -1:
                parts.append(f"-{n}")
            else:
                parts.append(f"{c}{n}")
        if self.const or not parts:
            parts.append(str(self.const))
        s = " + ".join(parts).replace("+ -", "- ")
        if self.den != 1:
            s = f"({s})/{self.den}"
        return s

    def __repr__(self) -> str:
        return f"AffineExpr({self.pretty()})"


class AffineFunction:
    """A vector of affine expressions sharing one input space."""

    __slots__ = ("exprs",)

    def __init__(self, exprs: Sequence[AffineExpr]) -> None:
        self.exprs: Tuple[AffineExpr, ...] = tuple(exprs)
        if len({len(e.coeffs) for e in self.exprs}) > 1:
            raise ValueError("mixed arities")

    @property
    def in_dim(self) -> int:
        return self.exprs[0].dim if self.exprs else 0

    @property
    def out_dim(self) -> int:
        return len(self.exprs)

    def __call__(self, point: Sequence[int]) -> Tuple[Fraction, ...]:
        return tuple(e(point) for e in self.exprs)

    def eval_int(self, point: Sequence[int]) -> Tuple[int, ...]:
        return tuple(e.eval_int(point) for e in self.exprs)

    def compose(self, inner: "AffineFunction") -> "AffineFunction":
        """``self o inner``."""
        return AffineFunction([e.substitute(inner.exprs) for e in self.exprs])

    def __getitem__(self, i: int) -> AffineExpr:
        return self.exprs[i]

    def __len__(self) -> int:
        return len(self.exprs)

    def __iter__(self):
        return iter(self.exprs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineFunction):
            return NotImplemented
        return self.exprs == other.exprs

    def __hash__(self) -> int:
        return hash(self.exprs)

    def pretty(self, names: Optional[Sequence[str]] = None) -> str:
        return "(" + ", ".join(e.pretty(names) for e in self.exprs) + ")"

    def __repr__(self) -> str:
        return f"AffineFunction{self.pretty()}"


def fit_affine(
    points: Sequence[Sequence[int]], values: Sequence[int]
) -> Optional[AffineExpr]:
    """Fit one exact affine expression through ``(point, value)`` pairs.

    Returns ``None`` when no affine expression interpolates the data
    exactly.  This is the workhorse of SCEV recognition and of label
    folding; it is the one-column case of :func:`fit_affine_many`.
    """
    return fit_affine_many(points, [values])[0]


def fit_affine_many(
    points: Sequence[Sequence[int]], value_columns: Sequence[Sequence[int]]
) -> List[Optional[AffineExpr]]:
    """Fit one exact affine expression per value column, all over the
    same sample points (``None`` where a column has no exact fit).

    Integer-only: an affinely independent basis of the samples is
    picked in sample order by fraction-free echelon reduction of the
    rows ``[1, *p | values]`` (stopping at rank ``d + 1``), the basis
    rows are then reduced Gauss-Jordan style, and each column's
    solution is put in canonical ``(coeffs, const, den)`` form and
    verified against *every* sample, so a returned expression is exact
    by construction.  The constant column comes first and coordinates
    without a pivot are pinned to 0: underdetermined samples prefer the
    constant solution (a single sample ``(7,) -> 8`` fits as ``8``, not
    ``(8/7) i0``).

    The pinned solution depends only on the row space (it is read off
    the reduced row echelon form), and the basis spans the row space,
    so on a consistent system it equals the pinned solution of the
    all-rows system; an inconsistent column fails verification.
    """
    if not points:
        return [None] * len(value_columns)
    pts = [tuple(map(int, p)) for p in points]
    cols = [list(map(int, col)) for col in value_columns]
    n = len(pts[0]) + 1
    # 1. basis + forward elimination, right-hand sides carried along
    rows: List[List[int]] = []
    pivots: List[int] = []
    for p, vals in zip(pts, zip(*cols)):
        v = [1, *p, *vals]
        for row, pc in zip(rows, pivots):
            b = v[pc]
            if b:
                a = row[pc]
                v = [a * x - b * y for x, y in zip(v, row)]
        for pc in range(n):
            if v[pc]:
                rows.append(v)
                pivots.append(pc)
                break
        if len(rows) == n:
            break
    # 2. back elimination: each row keeps one nonzero pivot column
    for r, pc in enumerate(pivots):
        prow = rows[r]
        a = prow[pc]
        for i, row in enumerate(rows):
            b = row[pc]
            if b and i != r:
                rows[i] = [a * x - b * y for x, y in zip(row, prow)]
    # 3. canonical form per column, 4. verification on every sample
    out: List[Optional[AffineExpr]] = []
    for j, col in enumerate(cols):
        rhs = n + j
        # x[pc] = nums[pc] / dens[pc] in lowest terms; den = lcm(dens)
        nums = [0] * n
        dens = [1] * n
        den = 1
        for row, pc in zip(rows, pivots):
            b = row[rhs]
            if b:
                a = row[pc]
                g = gcd(a, b)
                if a < 0:
                    g = -g
                a //= g
                nums[pc] = b // g
                dens[pc] = a
                den = den * a // gcd(den, a)
        coeffs = [x * (den // q) for x, q in zip(nums, dens)]
        const = coeffs.pop(0)
        ok = True
        for p, v in zip(pts, col):
            num = const
            for c, x in zip(coeffs, p):
                num += c * x
            if num != v * den:
                ok = False
                break
        out.append(AffineExpr.from_normalized(coeffs, const, den) if ok else None)
    return out


def fit_affine_function(
    points: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]
) -> Optional[AffineFunction]:
    """Fit an affine function for vector labels; all-or-nothing."""
    if not vectors:
        return None
    exprs = fit_affine_many(
        points, [[v[j] for v in vectors] for j in range(len(vectors[0]))]
    )
    if any(e is None for e in exprs):
        return None
    return AffineFunction(exprs)
