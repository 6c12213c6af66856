"""Dependence vectors from the folded DDG.

Bridges the compact polyhedral DDG to classic dependence-based loop
analysis: for every transformation-relevant dependence we determine
the *common loop nest* of its endpoints (via the dynamic-IIV contexts)
and the exact sign pattern / rational bounds of the dependence
distance along each common dimension.

Sign patterns per dimension:

=======  ===============================================
``'0'``  distance is exactly 0 (loop-independent here)
``'+'``  strictly positive (carried forward)
``'-'``  strictly negative
``'+0'`` non-negative, zero attained
``'-0'`` non-positive, zero attained
``'*'``  unknown / both signs (incl. non-affine deps)
=======  ===============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..ddg.graph import Statement
from ..folding.folder import FoldedDDG, FoldedDep
from ..poly.affine import AffineExpr
from ..poly.pmap import _sign_pattern
from ..poly.polyhedron import Polyhedron

Bound = Tuple[Optional[Fraction], Optional[Fraction]]


def loop_path(stmt: Statement) -> Tuple[Tuple[str, ...], ...]:
    """The loop identities enclosing a statement, outermost first.

    Each element is the statement's *full* context entry for that
    dimension -- calling-context elements plus the loop id as the last
    component (set there by the ``E``/``Ec`` loop events).  Using the
    full entry keeps two invocations of the same static loop from
    different call sites distinct (the paper's backprop feedback treats
    the two ``bpnn_layerforward`` calls separately), while recursion
    still folds (recursive components keep contexts bounded).
    """
    return tuple(stmt.context[:-1])


def common_depth(src: Statement, dst: Statement) -> int:
    """Number of loop dimensions shared by two statements.

    Contexts matching on a prefix of length ``k`` share the loops of
    the first ``k`` dimensions (the k-th context entry pins the k-th
    loop id as its last element).
    """
    k = 0
    for a, b in zip(src.context, dst.context):
        if a != b:
            break
        k += 1
    return min(k, src.depth, dst.depth)


#: opcodes whose self-recurrences are reassociable reductions
ASSOCIATIVE_OPS = frozenset(
    "add mul fadd fmul fmin fmax and or xor".split()
)


@dataclass
class DepVector:
    """One dependence with its distance signature on the common nest."""

    dep: FoldedDep
    src_path: Tuple[str, ...]
    dst_path: Tuple[str, ...]
    common: int
    signs: Tuple[str, ...]       # per common dimension
    bounds: Tuple[Bound, ...]    # rational (lo, hi) per common dimension
    #: a register self-recurrence through an associative operation: an
    #: OpenMP reduction clause (or the paper's array expansion of
    #: ``sum``) removes it, so it does not block parallelization --
    #: though the loop is not plainly parallel either (Table 3 reports
    #: L_layer's k loop as non-parallel)
    is_reduction: bool = False

    @property
    def kind(self) -> str:
        return self.dep.key.kind

    def may_be_zero(self, dim: int) -> bool:
        return self.signs[dim] in ("0", "+0", "-0", "*")

    def may_be_nonzero(self, dim: int) -> bool:
        return self.signs[dim] != "0"

    def may_be_negative(self, dim: int) -> bool:
        return self.signs[dim] in ("-", "-0", "*")

    def may_be_carried_at(self, level: int) -> bool:
        """Can this dependence be carried exactly at ``level`` (0-based
        dimension index): all outer distances zero, this one nonzero?"""
        if level >= self.common:
            return False
        return all(self.may_be_zero(j) for j in range(level)) and \
            self.may_be_nonzero(level)


def _distance_bounds(piece: Polyhedron, e: AffineExpr) -> Bound:
    """Rational (lo, hi) of the distance ``e`` over a non-empty piece.

    A constant (uniform) distance ``k`` is ``(k, k)`` on any non-empty
    piece -- exactly what the projection would return -- so only a
    distance that varies over the piece pays for ``bounds()``."""
    if not e.is_integral():
        # scaling by the (positive) denominator preserves signs
        e = AffineExpr(e.coeffs, e.const, 1)
    if not any(e.coeffs):
        k = Fraction(e.const)
        return k, k
    return piece.bounds(e.as_row())


def _hull(ranges: List[Bound]) -> Bound:
    """The union of per-piece ranges; ``None`` on either side stays
    unbounded."""
    los = [lo for lo, _ in ranges]
    his = [hi for _, hi in ranges]
    lo = None if None in los else min(los)
    hi = None if None in his else max(his)
    return lo, hi


def _delta_info(dep: FoldedDep, common: int) -> Tuple[Tuple[str, ...], Tuple[Bound, ...]]:
    """Sign pattern and bounds of (dst_j - src_j) for each common dim."""
    if common == 0:
        return (), ()
    if dep.relation is None:
        # the full relation did not fold, but individual producer
        # components may have (paper: one affine function per label
        # component) -- use them for exact per-dimension signs
        if dep.partial_src is not None:
            return _partial_delta_info(dep, common)
        return ("*",) * common, ((None, None),) * common
    live = [(p, fn) for p, fn in dep.relation.pieces if not p.is_empty()]
    if not live:
        return ("0",) * common, ((Fraction(0), Fraction(0)),) * common
    signs: List[str] = []
    bounds: List[Bound] = []
    d = dep.dst_depth
    for j in range(common):
        var = AffineExpr.var(j, d)
        lo, hi = _hull(
            [_distance_bounds(piece, var - fn[j]) for piece, fn in live]
        )
        signs.append(_sign_pattern(lo, hi))
        bounds.append((lo, hi))
    return tuple(signs), tuple(bounds)


def _partial_delta_info(
    dep: FoldedDep, common: int
) -> Tuple[Tuple[str, ...], Tuple[Bound, ...]]:
    d = dep.dst_depth
    live = [piece for piece in dep.domain.pieces if not piece.is_empty()]
    signs: List[str] = []
    bounds: List[Bound] = []
    for j in range(common):
        expr = dep.partial_src[j] if j < len(dep.partial_src) else None
        if expr is None or not live:
            signs.append("*")
            bounds.append((None, None))
            continue
        e = AffineExpr.var(j, d) - expr
        lo, hi = _hull([_distance_bounds(piece, e) for piece in live])
        signs.append(_sign_pattern(lo, hi))
        bounds.append((lo, hi))
    return tuple(signs), tuple(bounds)


def dep_vector(
    ddg: FoldedDDG,
    dep: FoldedDep,
    delta: Optional[Tuple[Tuple[str, ...], Tuple[Bound, ...]]] = None,
) -> DepVector:
    """The vector of one dependence of ``ddg``.

    Only the distance signs and bounds cost polyhedral work; the paths,
    the common depth and the reduction flag are read off the two
    statements.  ``delta`` is a stored ``(signs, bounds)`` pair (the
    artifact codec passes one), else it is computed."""
    src_stmt = ddg.statements[dep.key.src].stmt
    dst_stmt = ddg.statements[dep.key.dst].stmt
    common = common_depth(src_stmt, dst_stmt)
    signs, bounds = delta if delta is not None else _delta_info(dep, common)
    if len(signs) != common or len(bounds) != common:
        raise ValueError(
            f"dependence {dep.key}: {len(signs)} signs and {len(bounds)} "
            f"bounds on {common} common dimensions"
        )
    return DepVector(
        dep=dep,
        src_path=loop_path(src_stmt),
        dst_path=loop_path(dst_stmt),
        common=common,
        signs=signs,
        bounds=bounds,
        is_reduction=(
            dep.key.kind == "reg"
            and dep.key.src == dep.key.dst
            and dst_stmt.instr.opcode in ASSOCIATIVE_OPS
        ),
    )


def analyze_deps(ddg: FoldedDDG) -> List[DepVector]:
    """Dependence vectors for every transformation-relevant dependence."""
    return [dep_vector(ddg, dep) for dep in ddg.transform_deps()]
