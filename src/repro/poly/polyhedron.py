"""Integer polyhedra with exact Fourier-Motzkin elimination.

A :class:`Polyhedron` is the set of integer points ``x`` in ``Z^d``
satisfying a conjunction of affine constraints with integer
coefficients.  Constraint rows are tuples of length ``d + 1``::

    (c_0, ..., c_{d-1}, k)   meaning   c . x + k  (== 0 | >= 0)

This is deliberately a small library: the polyhedra produced by the
folding stage of POLY-PROF have single-digit dimensionality, so exact
Fourier-Motzkin projection -- despite its worst-case blowup -- is both
simple and fast enough, and avoids any dependence on external ILP
machinery.

Emptiness is decided exactly over the rationals (FM elimination down to
a constant system) strengthened with an integrality test on the
equality lattice; for the sets this reproduction manipulates (folded
iteration domains and dependence relations, which are built from
actually-executed integer points) this is exact in practice.

A polyhedron may carry a ``witness``: one integer point the folder
observed inside it.  ``is_empty`` first evaluates the constraint rows
at the witness.  If the witness satisfies them, the set is non-empty
-- the answer the exact path gives, since elimination only derives
constraints every integer point satisfies -- and the elimination is
skipped.  The witness lives in memory only: ``__eq__``, ``__hash__``,
``repr`` and the codecs ignore it, so a decoded piece has none and
takes the exact path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import dot, integer_solvable, normalize_row, vec_gcd

Row = Tuple[int, ...]


class Polyhedron:
    """A conjunction of integer affine constraints over ``d`` variables."""

    __slots__ = ("dim", "eqs", "ineqs", "witness")

    def __init__(
        self,
        dim: int,
        eqs: Iterable[Sequence[int]] = (),
        ineqs: Iterable[Sequence[int]] = (),
    ) -> None:
        #: an integer point known to lie inside (see the module notes)
        self.witness: Optional[Tuple[int, ...]] = None
        self.dim = int(dim)
        self.eqs: Tuple[Row, ...] = tuple(
            self._check(normalize_row(r)) for r in eqs
        )
        self.ineqs: Tuple[Row, ...] = tuple(
            self._check(self._norm_ineq(r)) for r in ineqs
        )

    # -- construction helpers ------------------------------------------------

    def _check(self, row: Sequence[int]) -> Row:
        if len(row) != self.dim + 1:
            raise ValueError(
                f"constraint row of length {len(row)} for dim {self.dim}"
            )
        return tuple(int(x) for x in row)

    @staticmethod
    def _norm_ineq(row: Sequence[int]) -> Row:
        """Normalize ``c.x + k >= 0``: divide coeffs by their gcd g and
        tighten the constant to floor(k/g) (valid over the integers)."""
        coeffs, k = list(row[:-1]), int(row[-1])
        g = vec_gcd(coeffs)
        if g > 1:
            coeffs = [c // g for c in coeffs]
            k = k // g  # floor division tightens toward feasibility
        return tuple(coeffs) + (k,)

    @classmethod
    def from_normalized(
        cls,
        dim: int,
        eqs: Iterable[Sequence[int]] = (),
        ineqs: Iterable[Sequence[int]] = (),
    ) -> "Polyhedron":
        """Construct from rows that are *already* normalized -- i.e.
        rows read back from a :class:`Polyhedron` built through
        ``__init__`` (whose normalization is idempotent).  Skips the
        per-row gcd work, which dominates artifact decode; row lengths
        are still checked so a structurally wrong payload fails fast.
        """
        p = object.__new__(cls)
        p.witness = None
        p.dim = dim = int(dim)
        p.eqs = eqs = tuple(map(tuple, eqs))
        p.ineqs = ineqs = tuple(map(tuple, ineqs))
        # one C-level pass over the row lengths
        lengths = set(map(len, eqs))
        lengths.update(map(len, ineqs))
        lengths.discard(dim + 1)
        if lengths:
            raise ValueError(
                f"constraint row of length {lengths.pop()} for dim {dim}"
            )
        return p

    @classmethod
    def universe(cls, dim: int) -> "Polyhedron":
        return cls(dim)

    @classmethod
    def from_point(cls, point: Sequence[int]) -> "Polyhedron":
        d = len(point)
        eqs = []
        for i, v in enumerate(point):
            row = [0] * (d + 1)
            row[i] = 1
            row[d] = -int(v)
            eqs.append(row)
        return cls(d, eqs=eqs)

    @classmethod
    def box(cls, bounds: Sequence[Tuple[int, int]]) -> "Polyhedron":
        """Axis-aligned box ``lo_i <= x_i <= hi_i``."""
        d = len(bounds)
        ineqs = []
        for i, (lo, hi) in enumerate(bounds):
            row = [0] * (d + 1)
            row[i] = 1
            row[d] = -int(lo)
            ineqs.append(tuple(row))
            row = [0] * (d + 1)
            row[i] = -1
            row[d] = int(hi)
            ineqs.append(tuple(row))
        return cls(d, ineqs=ineqs)

    # -- basic queries --------------------------------------------------------

    def contains(self, point: Sequence[int]) -> bool:
        p = tuple(int(x) for x in point) + (1,)
        return all(dot(e, p) == 0 for e in self.eqs) and all(
            dot(i, p) >= 0 for i in self.ineqs
        )

    def constraints(self) -> Iterator[Tuple[Row, bool]]:
        """Yield ``(row, is_eq)`` pairs."""
        for e in self.eqs:
            yield e, True
        for i in self.ineqs:
            yield i, False

    def __repr__(self) -> str:
        return f"Polyhedron(dim={self.dim}, eqs={list(self.eqs)}, ineqs={list(self.ineqs)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        return self.is_subset(other) and other.is_subset(self)

    def __hash__(self) -> int:  # structural hash (not canonical)
        return hash((self.dim, frozenset(self.eqs), frozenset(self.ineqs)))

    # -- set operations --------------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Polyhedron(
            self.dim, eqs=self.eqs + other.eqs, ineqs=self.ineqs + other.ineqs
        )

    def add_constraint(self, row: Sequence[int], is_eq: bool = False) -> "Polyhedron":
        if is_eq:
            return Polyhedron(self.dim, eqs=self.eqs + (tuple(row),), ineqs=self.ineqs)
        return Polyhedron(self.dim, eqs=self.eqs, ineqs=self.ineqs + (tuple(row),))

    # -- elimination -----------------------------------------------------------

    def _substitute_eqs(self) -> Optional[Tuple[List[Row], List[Row]]]:
        """Gaussian-eliminate equalities; returns (eqs, ineqs) with the
        equality system triangularized, or ``None`` if an immediate
        contradiction (0 == k, k != 0) is found."""
        eqs = [list(e) for e in self.eqs]
        ineqs = [list(i) for i in self.ineqs]
        used: List[Tuple[int, List[int]]] = []  # (pivot var, row)
        for row in eqs:
            cur = list(row)
            for (pv, prow) in used:
                if cur[pv]:
                    a, b = prow[pv], cur[pv]
                    cur = [a * x - b * y for x, y in zip(cur, prow)]
            cur = list(normalize_row(cur))
            piv = next((j for j in range(self.dim) if cur[j]), None)
            if piv is None:
                if cur[self.dim] != 0:
                    return None
                continue
            used.append((piv, cur))
        out_eqs = [tuple(r) for (_, r) in used]
        # substitute pivots into inequalities
        out_ineqs: List[Row] = []
        for row in ineqs:
            cur = list(row)
            for (pv, prow) in used:
                if cur[pv]:
                    a, b = prow[pv], cur[pv]
                    # scale so pivot cancels; keep inequality direction:
                    # multiply cur by |a| and subtract sign-matched prow
                    if a > 0:
                        cur = [a * x - b * y for x, y in zip(cur, prow)]
                    else:
                        cur = [-a * x + b * y for x, y in zip(cur, prow)]
            out_ineqs.append(self._norm_ineq(cur))
        return out_eqs, out_ineqs

    def eliminate(self, var: int) -> "Polyhedron":
        """Project out variable ``var`` (exact over the rationals; the
        result is the rational shadow, a safe over-approximation of the
        integer projection)."""
        eqs = list(self.eqs)
        ineqs = list(self.ineqs)
        # prefer elimination through an equality
        pivot_eq = next((e for e in eqs if e[var]), None)
        if pivot_eq is not None:
            new_eqs = []
            for e in eqs:
                if e is pivot_eq:
                    continue
                if e[var]:
                    a, b = pivot_eq[var], e[var]
                    e = tuple(a * x - b * y for x, y in zip(e, pivot_eq))
                new_eqs.append(e)
            new_ineqs = []
            for i in ineqs:
                if i[var]:
                    a, b = pivot_eq[var], i[var]
                    if a > 0:
                        i = tuple(a * x - b * y for x, y in zip(i, pivot_eq))
                    else:
                        i = tuple(-a * x + b * y for x, y in zip(i, pivot_eq))
                new_ineqs.append(i)
            return self._drop_var(var, new_eqs, new_ineqs)
        # Fourier-Motzkin on inequalities
        pos = [i for i in ineqs if i[var] > 0]
        neg = [i for i in ineqs if i[var] < 0]
        rest = [i for i in ineqs if i[var] == 0]
        combos: List[Row] = []
        for p in pos:
            for n in neg:
                row = tuple(
                    (-n[var]) * x + p[var] * y for x, y in zip(p, n)
                )
                combos.append(row)
        return self._drop_var(var, eqs, rest + combos)

    def _drop_var(
        self, var: int, eqs: Iterable[Sequence[int]], ineqs: Iterable[Sequence[int]]
    ) -> "Polyhedron":
        def drop(row: Sequence[int]) -> Tuple[int, ...]:
            return tuple(row[:var]) + tuple(row[var + 1 :])

        new_eqs = {normalize_row(drop(e)) for e in eqs}
        new_ineqs = {self._norm_ineq(drop(i)) for i in ineqs}
        # prune trivially-true inequalities (0 >= -k)
        new_ineqs = {
            i for i in new_ineqs if any(i[:-1]) or i[-1] < 0
        }
        new_eqs = {e for e in new_eqs if any(e)}
        return Polyhedron(self.dim - 1, eqs=new_eqs, ineqs=new_ineqs)

    def project_onto(self, keep: Sequence[int]) -> "Polyhedron":
        """Project onto the listed variables (in the given order)."""
        keep = list(keep)
        p = self
        # eliminate in descending index order so indices stay valid
        mapping = list(range(self.dim))
        for v in sorted(set(range(self.dim)) - set(keep), reverse=True):
            p = p.eliminate(mapping.index(v))
            mapping.remove(v)
        if mapping != keep:
            # permute remaining dims to the requested order
            perm = [mapping.index(k) for k in keep]
            p = p.permute(perm)
        return p

    def permute(self, perm: Sequence[int]) -> "Polyhedron":
        """Reorder variables: new var ``i`` is old var ``perm[i]``."""
        def permrow(row: Row) -> Row:
            return tuple(row[p] for p in perm) + (row[self.dim],)

        return Polyhedron(
            self.dim,
            eqs=[permrow(e) for e in self.eqs],
            ineqs=[permrow(i) for i in self.ineqs],
        )

    # -- emptiness / bounds -----------------------------------------------------

    def is_empty(self) -> bool:
        """Exact rational emptiness + equality-lattice integrality test,
        skipped when the witness lies inside."""
        w = self.witness
        if w is not None and self.contains(w):
            return False
        sub = self._substitute_eqs()
        if sub is None:
            return True
        eqs, _ = sub
        if eqs and not integer_solvable(eqs):
            return True
        p = self
        for v in range(self.dim - 1, -1, -1):
            p = p.eliminate(v)
            # early contradiction check on constant rows
            for i in p.ineqs:
                if not any(i[:-1]) and i[-1] < 0:
                    return True
            for e in p.eqs:
                if not any(e[:-1]) and e[-1] != 0:
                    return True
        for i in p.ineqs:
            if i[-1] < 0:
                return True
        for e in p.eqs:
            if e[-1] != 0:
                return True
        return False

    def is_subset(self, other: "Polyhedron") -> bool:
        """``self`` subset-of ``other`` (rational test per constraint)."""
        if self.is_empty():
            return True
        for row, is_eq in other.constraints():
            if is_eq:
                # self must satisfy row == 0 everywhere: both >= 0 and <= 0
                neg = tuple(-x for x in row)
                if not self._implies(row) or not self._implies(neg):
                    return False
            else:
                if not self._implies(row):
                    return False
        return True

    def _implies(self, row: Sequence[int]) -> bool:
        """Does every point of self satisfy ``row . (x,1) >= 0``?

        Checked as emptiness of ``self AND (row . (x,1) <= -1)``.
        """
        neg = tuple(-x for x in row[:-1]) + (-int(row[-1]) - 1,)
        return self.add_constraint(neg).is_empty()

    def bounds(self, expr: Sequence[int]) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Rational (min, max) of the affine expression ``expr . (x, 1)``
        over the polyhedron; ``None`` marks unboundedness.  Raises
        ``ValueError`` on an empty polyhedron."""
        if len(expr) != self.dim + 1:
            raise ValueError("expression arity mismatch")
        # introduce t as a fresh last variable with t - expr = 0
        d = self.dim
        eqs = [e[:d] + (0,) + e[d:] for e in self.eqs]
        ineqs = [i[:d] + (0,) + i[d:] for i in self.ineqs]
        t_eq = tuple(-int(c) for c in expr[:d]) + (1, -int(expr[d]))
        p = Polyhedron(d + 1, eqs=eqs + [t_eq], ineqs=ineqs)
        for v in range(d - 1, -1, -1):
            p = p.eliminate(v)
        # p is now 1-D over t
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        feasible = True
        for e in p.eqs:
            c, k = e[0], e[1]
            if c == 0:
                if k != 0:
                    feasible = False
                continue
            v = Fraction(-k, c)
            lo = v if lo is None or v > lo else lo
            hi = v if hi is None or v < hi else hi
        for i in p.ineqs:
            c, k = i[0], i[1]
            if c == 0:
                if k < 0:
                    feasible = False
                continue
            if c > 0:
                v = Fraction(-k, c)
                lo = v if lo is None or v > lo else lo
            else:
                v = Fraction(-k, c)
                hi = v if hi is None or v < hi else hi
        if not feasible or (lo is not None and hi is not None and lo > hi):
            raise ValueError("bounds() on empty polyhedron")
        return lo, hi

    def var_bounds(self, var: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        expr = [0] * (self.dim + 1)
        expr[var] = 1
        return self.bounds(expr)

    # -- integer points -----------------------------------------------------------

    def fix(self, var: int, value: int) -> "Polyhedron":
        """Substitute an integer value for a variable (dim shrinks by 1)."""
        def subst(row: Row) -> Tuple[int, ...]:
            out = list(row[:var]) + list(row[var + 1 :])
            out[-1] = row[self.dim] + row[var] * int(value)
            return tuple(out)

        return Polyhedron(
            self.dim - 1,
            eqs=[subst(e) for e in self.eqs],
            ineqs=[subst(i) for i in self.ineqs],
        )

    def points(self, limit: int = 2_000_000) -> Iterator[Tuple[int, ...]]:
        """Enumerate all integer points (requires boundedness).

        Points are produced in lexicographic order.  ``limit`` guards
        against runaway enumeration.
        """
        count = [0]

        def rec(p: Polyhedron, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
            if p.dim == 0:
                ok = all(e[-1] == 0 for e in p.eqs) and all(
                    i[-1] >= 0 for i in p.ineqs
                )
                if ok:
                    count[0] += 1
                    if count[0] > limit:
                        raise RuntimeError("points(): enumeration limit exceeded")
                    yield prefix
                return
            if p.is_empty():
                return
            lo, hi = p.var_bounds(0)
            if lo is None or hi is None:
                raise ValueError("points() on unbounded polyhedron")
            import math

            lo_i = math.ceil(lo)
            hi_i = math.floor(hi)
            for v in range(lo_i, hi_i + 1):
                yield from rec(p.fix(0, v), prefix + (v,))

        yield from rec(self, ())

    def card(self) -> int:
        """Number of integer points (bounded polyhedra only).

        Enumerates outer dimensions recursively and closes the innermost
        dimension in constant time, so counting an ``n``-point 2-D
        triangle costs O(sqrt(n)) recursion steps.
        """
        import math

        def rec(p: Polyhedron) -> int:
            if p.dim == 0:
                ok = all(e[-1] == 0 for e in p.eqs) and all(
                    i[-1] >= 0 for i in p.ineqs
                )
                return 1 if ok else 0
            if p.dim == 1:
                try:
                    lo, hi = p.var_bounds(0)
                except ValueError:
                    return 0
                if lo is None or hi is None:
                    raise ValueError("card() on unbounded polyhedron")
                lo_i, hi_i = math.ceil(lo), math.floor(hi)
                if hi_i < lo_i:
                    return 0
                # account for equality/lattice constraints in 1-D
                if p.eqs:
                    total = 0
                    for v in range(lo_i, hi_i + 1):
                        if p.contains((v,)):
                            total += 1
                    return total
                return hi_i - lo_i + 1
            if p.is_empty():
                return 0
            lo, hi = p.var_bounds(0)
            if lo is None or hi is None:
                raise ValueError("card() on unbounded polyhedron")
            total = 0
            for v in range(math.ceil(lo), math.floor(hi) + 1):
                total += rec(p.fix(0, v))
            return total

        return rec(self)

    def sample(self) -> Optional[Tuple[int, ...]]:
        """One integer point (lexicographically smallest), or None."""
        import math

        def rec(p: Polyhedron, prefix: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
            if p.dim == 0:
                ok = all(e[-1] == 0 for e in p.eqs) and all(
                    i[-1] >= 0 for i in p.ineqs
                )
                return prefix if ok else None
            if p.is_empty():
                return None
            lo, hi = p.var_bounds(0)
            if lo is None:
                lo = Fraction(-(10 ** 9))
            if hi is None:
                hi = Fraction(10 ** 9)
            for v in range(math.ceil(lo), math.floor(hi) + 1):
                r = rec(p.fix(0, v), prefix + (v,))
                if r is not None:
                    return r
            return None

        return rec(self, ())
