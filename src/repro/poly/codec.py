"""JSON-safe codecs for the polyhedral value types.

The artifact store serializes folded DDGs, whose leaves are all built
from the types here: constraint rows (tuples of ints), polyhedra,
named integer sets, affine expressions/functions and affine maps.
Every encoder emits plain lists/dicts of ints and strings; decoders
rebuild through the ``from_normalized`` trusted constructors -- the
encoders emit the (idempotently) normalized internal form, so
re-normalizing on decode would only repeat gcd work that dominates
warm-path cost.  ``encode(decode(encode(x))) ==
encode(x)`` and decoded values compare equal to the originals.
Trusting content (not structure: row lengths are still checked) is
sound because the store reads through gzip, whose CRC32 already turns
any on-disk corruption into a cache miss.
"""

from __future__ import annotations

from typing import Sequence

from .affine import AffineExpr, AffineFunction
from .pmap import IMap
from .polyhedron import Polyhedron
from .pset import ISet, Space


def encode_polyhedron(p: Polyhedron) -> dict:
    return {
        "d": p.dim,
        "eq": [list(r) for r in p.eqs],
        "ge": [list(r) for r in p.ineqs],
    }


def decode_polyhedron(data: dict) -> Polyhedron:
    return Polyhedron.from_normalized(
        data["d"], eqs=data["eq"], ineqs=data["ge"]
    )


def encode_iset(s: ISet) -> dict:
    return {
        "names": list(s.space.names),
        "pieces": [encode_polyhedron(p) for p in s.pieces],
    }


def decode_iset(data: dict) -> ISet:
    return ISet(
        Space([str(n) for n in data["names"]]),
        [decode_polyhedron(p) for p in data["pieces"]],
    )


def encode_expr(e: AffineExpr) -> list:
    return [list(e.coeffs), e.const, e.den]


def decode_expr(data: Sequence) -> AffineExpr:
    coeffs, const, den = data
    return AffineExpr.from_normalized(coeffs, const, den)


def encode_function(fn: AffineFunction) -> list:
    return [encode_expr(e) for e in fn.exprs]


def decode_function(data: Sequence) -> AffineFunction:
    return AffineFunction([decode_expr(e) for e in data])


def encode_imap(m: IMap) -> dict:
    return {
        "in": list(m.in_space.names),
        "out": list(m.out_space.names),
        "pieces": [
            [encode_polyhedron(dom), encode_function(fn)]
            for dom, fn in m.pieces
        ],
    }


def decode_imap(data: dict) -> IMap:
    return IMap(
        Space([str(n) for n in data["in"]]),
        Space([str(n) for n in data["out"]]),
        [
            (decode_polyhedron(dom), decode_function(fn))
            for dom, fn in data["pieces"]
        ],
    )
