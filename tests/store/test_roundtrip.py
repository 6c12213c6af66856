"""Codec round trips: decoded artifacts must equal what was encoded.

Two properties per codec:

* **faithfulness** -- the decoded value is semantically identical to
  the original (same rendering, same downstream behavior);
* **fixpoint** -- ``encode(decode(encode(x))) == encode(x)``, so a
  cached artifact re-encodes to the same bytes forever (no drift).
"""

import json

import pytest

from repro.pipeline import analyze, profile_control
from repro.poly.affine import AffineExpr, AffineFunction
from repro.poly.codec import (
    decode_expr,
    decode_imap,
    decode_iset,
    decode_polyhedron,
    encode_expr,
    encode_imap,
    encode_iset,
    encode_polyhedron,
)
from repro.poly.pmap import IMap
from repro.poly.polyhedron import Polyhedron
from repro.poly.pset import ISet, Space
from repro.folding.codec import encode_folded_ddg
from repro.store.artifacts import (
    decode_control_profile,
    decode_schedule_tree,
    encode_control_profile,
    encode_schedule_tree,
)
from repro.store.stage2 import (
    VECTOR_FIELDS,
    PayloadMismatch,
    decode_dep_vectors,
    decode_stage2,
    encode_dep_vectors,
    encode_regions,
    encode_stage2,
    ordinal_uids,
    stitch_folded,
    uid_to_ordinal,
)
from repro.store import ArtifactStore, keys_for_spec
from repro.workloads import all_workloads

#: enough variety to cover every codec path: loops, recursion
#: (btree), multi-piece domains, reductions, SCEV streams
SAMPLE = ("backprop", "nw", "lud", "b+tree")


# -- poly leaf codecs ---------------------------------------------------------------


def test_polyhedron_roundtrip():
    p = Polyhedron(
        2, eqs=[(2, -2, 4)], ineqs=[(3, 0, 9), (0, -1, 7), (1, 1, 0)]
    )
    enc = encode_polyhedron(p)
    dec = decode_polyhedron(enc)
    assert dec.dim == p.dim
    assert dec.eqs == p.eqs
    assert dec.ineqs == p.ineqs
    assert encode_polyhedron(dec) == enc


def test_iset_roundtrip():
    s = ISet(
        Space(["i", "j"]),
        [
            Polyhedron(2, ineqs=[(1, 0, 0), (-1, 0, 9)]),
            Polyhedron(2, eqs=[(1, -1, 0)]),
        ],
    )
    enc = encode_iset(s)
    dec = decode_iset(enc)
    assert str(dec) == str(s)
    assert encode_iset(dec) == enc


def test_expr_roundtrip():
    e = AffineExpr([2, -3], 7, 2)
    enc = encode_expr(e)
    dec = decode_expr(enc)
    assert (dec.coeffs, dec.const, dec.den) == (e.coeffs, e.const, e.den)
    assert encode_expr(dec) == enc


def test_imap_roundtrip():
    m = IMap(
        Space(["i"]),
        Space(["o"]),
        [
            (
                Polyhedron(1, ineqs=[(1, 0), (-1, 5)]),
                AffineFunction([AffineExpr([1], 1)]),
            )
        ],
    )
    enc = encode_imap(m)
    dec = decode_imap(enc)
    assert str(dec.in_space) == str(m.in_space)
    assert str(dec.out_space) == str(m.out_space)
    assert len(dec.pieces) == len(m.pieces)
    assert encode_imap(dec) == enc


# -- stage 1: control profile -------------------------------------------------------


@pytest.mark.parametrize("name", SAMPLE)
def test_control_profile_roundtrip(name):
    spec = all_workloads()[name]()
    control = profile_control(spec)
    enc = encode_control_profile(control)
    dec = decode_control_profile(enc)

    assert set(dec.cfgs) == set(control.cfgs)
    for f, cfg in control.cfgs.items():
        assert dec.cfgs[f].entry == cfg.entry
        assert set(dec.cfgs[f].nodes) == set(cfg.nodes)
        assert set(dec.cfgs[f].edges) == set(cfg.edges)
    assert dec.callgraph.root == control.callgraph.root
    assert set(dec.callgraph.nodes) == set(control.callgraph.nodes)
    assert set(dec.callgraph.edges) == set(control.callgraph.edges)
    # recomputed derived structures match (pure functions of the graphs)
    assert set(dec.forests) == set(control.forests)
    for f in control.forests:
        want = sorted(repr(lp) for lp in control.forests[f].all_loops)
        got = sorted(repr(lp) for lp in dec.forests[f].all_loops)
        assert got == want
    assert sorted(repr(c) for c in dec.rcs.components) == sorted(
        repr(c) for c in control.rcs.components
    )
    assert dec.stats.dyn_instrs == control.stats.dyn_instrs
    assert dict(dec.stats.per_opcode) == dict(control.stats.per_opcode)
    # fixpoint
    assert encode_control_profile(dec) == enc


# -- stage 2: folded DDG + meta + dependence vectors --------------------------------


@pytest.mark.parametrize("name", SAMPLE)
def test_folded_ddg_fixpoint(name):
    """The stored per-function regions decode back to the very DDG
    the folder built (same order, same resolved instructions)."""
    spec = all_workloads()[name]()
    result = analyze(spec)
    enc = encode_folded_ddg(result.folded)
    regions = encode_regions(spec.program, result.folded)
    dec = stitch_folded(spec.program, regions)

    assert list(dec.statements) == list(result.folded.statements)
    assert list(dec.deps) == list(result.folded.deps)
    for key, fs in result.folded.statements.items():
        got = dec.statements[key]
        assert got.stmt.instr is fs.stmt.instr  # resolved, not copied
        assert got.count == fs.count
        assert got.exact == fs.exact
        assert got.is_scev == fs.is_scev
        assert str(got.domain) == str(fs.domain)
    assert encode_folded_ddg(dec) == enc


@pytest.mark.parametrize("name", SAMPLE)
def test_dep_vectors_roundtrip(name):
    spec = all_workloads()[name]()
    result = analyze(spec)
    ord_of = uid_to_ordinal(spec.program)
    enc = encode_dep_vectors(result.forest.deps, ord_of)
    # stored in reverse: the decoder restores transform_deps() order
    dec = decode_dep_vectors(
        {"bounds": enc["bounds"], "rows": enc["rows"][::-1]},
        result.folded,
        ordinal_uids(spec.program),
    )
    assert len(dec) == len(result.forest.deps)
    for got, want in zip(dec, result.forest.deps):
        assert got.dep.key == want.dep.key
        # shares the FoldedDDG's dep object, as on the cold path
        assert got.dep is result.folded.deps[want.dep.key]
        assert got.signs == want.signs
        assert got.bounds == want.bounds
        # not stored: read off the decoded statements
        assert got.src_path == want.src_path
        assert got.dst_path == want.dst_path
        assert got.common == want.common
        assert got.is_reduction == want.is_reduction
    assert encode_dep_vectors(dec, ord_of) == enc


def _nw_vectors():
    spec = all_workloads()["nw"]()
    result = analyze(spec)
    enc = encode_dep_vectors(
        result.forest.deps, uid_to_ordinal(spec.program)
    )
    return enc, result.folded, ordinal_uids(spec.program)


def test_dep_vectors_unknown_stream_raises():
    enc, folded, uid_of = _nw_vectors()
    row = enc["rows"][0]
    src = row[VECTOR_FIELDS.index("src")]
    # an ordinal past the function's end
    row[VECTOR_FIELDS.index("src")] = [src[0], 999999, src[2]]
    with pytest.raises(ValueError, match="not in program"):
        decode_dep_vectors(enc, folded, uid_of)
    # endpoints in the program, but no such stream
    row[VECTOR_FIELDS.index("src")] = src
    row[VECTOR_FIELDS.index("dst")] = src
    row[VECTOR_FIELDS.index("kind")] = "output"
    with pytest.raises(ValueError, match="no dependence vector"):
        decode_dep_vectors(enc, folded, uid_of)
    # no such dependence kind at all
    row[VECTOR_FIELDS.index("kind")] = "sideways"
    with pytest.raises(ValueError, match="no dependence vector"):
        decode_dep_vectors(enc, folded, uid_of)


@pytest.mark.parametrize("how", ["missing", "repeated"])
def test_dep_vectors_must_match_the_ddg_one_to_one(how):
    enc, folded, uid_of = _nw_vectors()
    rows = enc["rows"]
    enc["rows"] = rows[1:] if how == "missing" else rows + rows[:1]
    with pytest.raises(ValueError):
        decode_dep_vectors(enc, folded, uid_of)


@pytest.mark.parametrize("index", [10**6, -1])
def test_bound_index_outside_the_table_is_a_mismatch(index):
    """A vector bound that names an entry outside the payload's
    ``bounds`` table fails the stage-2 decode with PayloadMismatch
    (which the store's load turns into a miss)."""
    spec = all_workloads()["nw"]()
    result = analyze(spec)
    enc = encode_stage2(
        spec.program, result.folded, result.ddg_profile, result.forest.deps
    )
    field = VECTOR_FIELDS.index("bounds")
    row = next(r for r in enc["dep_vectors"]["rows"] if r[field])
    row[field][0][1] = index
    with pytest.raises(PayloadMismatch, match="dependence vectors"):
        decode_stage2(enc, spec.program)


@pytest.mark.parametrize("name", SAMPLE)
def test_schedule_tree_roundtrip(name):
    spec = all_workloads()[name]()
    result = analyze(spec)
    tree = result.schedule_tree
    enc = encode_schedule_tree(tree)
    dec = decode_schedule_tree(enc)
    assert dec.render_text() == tree.render_text()
    assert encode_schedule_tree(dec) == enc
    assert decode_schedule_tree(None) is None
    assert encode_schedule_tree(None) is None


@pytest.mark.parametrize("name", list(all_workloads()))
def test_stage2_roundtrip(name):
    spec = all_workloads()[name]()
    result = analyze(spec)
    enc = encode_stage2(
        spec.program, result.folded, result.ddg_profile, result.forest.deps
    )
    # decode what the store would read back: the JSON of the payload
    folded, ddgp, vectors = decode_stage2(
        json.loads(json.dumps(enc)), spec.program
    )
    assert encode_folded_ddg(folded) == encode_folded_ddg(result.folded)
    assert (
        ddgp.builder.instr_count
        == result.ddg_profile.builder.instr_count
    )
    assert ddgp.stats.dyn_instrs == result.ddg_profile.stats.dyn_instrs
    assert (
        ddgp.builder.schedule_tree.render_text()
        == result.schedule_tree.render_text()
    )
    assert len(vectors) == len(result.forest.deps)
    # fixpoint down to the bytes the store writes
    again = encode_stage2(spec.program, folded, ddgp, vectors)
    assert json.dumps(again) == json.dumps(enc)



@pytest.mark.parametrize("name", list(all_workloads()))
def test_stored_regions_share_each_value_once(tmp_path, name):
    """The stored regions spell each set, map, expression and context
    out once, and the dependence vectors each bound; the decoded
    statements, label pieces, dependences and vectors share one object
    per table entry, and the decode re-encodes to the stored JSON byte
    for byte."""
    spec = all_workloads()[name]()
    store = ArtifactStore(str(tmp_path))
    analyze(spec, store=store)
    key = keys_for_spec(spec, fuel=50_000_000, clamp=None).stage2
    payload = store.get(key)
    regions = payload["regions"]
    for region in regions.values():
        for table in ("sets", "maps", "exprs", "ctxs"):
            entries = [json.dumps(e) for e in region[table]]
            assert len(set(entries)) == len(entries), table
    bounds = [json.dumps(b) for b in payload["dep_vectors"]["bounds"]]
    assert len(set(bounds)) == len(bounds)

    folded, _ddgp, vectors = decode_stage2(payload, spec.program)
    shared = {}
    for fs in folded.statements.values():
        func = fs.stmt.func
        value = (func, json.dumps(encode_iset(fs.domain)))
        assert shared.setdefault(value, fs.domain) is fs.domain
        for _dom, fn, _cnt in fs.label_pieces or ():
            for e in fn.exprs:
                value = (func, e.coeffs, e.const, e.den)
                assert shared.setdefault(value, e) is e
    for dkey, fd in folded.deps.items():
        func = folded.statements[dkey.dst].stmt.func
        for e in fd.partial_src or ():
            if e is not None:
                value = (func, e.coeffs, e.const, e.den)
                assert shared.setdefault(value, e) is e
    fractions = {}
    for dv in vectors:
        for pair in dv.bounds:
            for f in pair:
                if f is not None:
                    assert fractions.setdefault(f, f) is f
    assert json.dumps(encode_regions(spec.program, folded)) == json.dumps(
        regions
    )
