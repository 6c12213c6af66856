"""Region carving and stitching: a lossless, guarded round trip.

``encode_regions`` must carve a folded DDG so that decoding every
region back (verbatim context ids) reproduces it exactly; every
inconsistency must raise :class:`PayloadMismatch` rather than
silently produce a wrong graph.
"""

import pytest

from repro.pipeline import analyze
from repro.store.stage2 import (
    DEP_FIELDS,
    STMT_FIELDS,
    PayloadMismatch,
    encode_regions,
    stitch_folded,
    uid_to_ordinal,
)
from repro.workloads import all_workloads


@pytest.fixture(scope="module")
def kmeans_result():
    return analyze(all_workloads()["kmeans"]())


def test_uid_to_ordinal_total_and_local(kmeans_result):
    program = kmeans_result.spec.program
    ord_of = uid_to_ordinal(program)
    uids = {ins.uid for _f, _b, ins in program.all_instrs()}
    assert set(ord_of) == uids
    for fname, fn in program.functions.items():
        ords = sorted(
            o for (f, o) in ord_of.values() if f == fname
        )
        n = sum(len(bb.instrs) for bb in fn.blocks.values())
        assert ords == list(range(n))


def test_encode_covers_every_function(kmeans_result):
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    assert set(regions) == set(program.functions)
    # the store version is the payload's only version, and the dict key
    # names the function
    assert all(
        set(p) == {"sets", "maps", "exprs", "ctxs", "statements", "deps"}
        for p in regions.values()
    )
    total_stmts = sum(len(p["statements"]) for p in regions.values())
    assert total_stmts == len(kmeans_result.folded.statements)
    total_deps = sum(len(p["deps"]) for p in regions.values())
    assert total_deps == len(kmeans_result.folded.deps)


def test_stitch_all_regions_is_identity(kmeans_result):
    """Verbatim-id stitch of every region == the original fold, down
    to iteration order (both sides are canonically ordered)."""
    program = kmeans_result.spec.program
    folded = kmeans_result.folded
    regions = encode_regions(program, folded)
    stitched = stitch_folded(program, regions)
    assert list(stitched.statements.keys()) == list(folded.statements.keys())
    assert list(stitched.deps.keys()) == list(folded.deps.keys())
    # strongest available equality: re-carving the stitched DDG yields
    # byte-equal region payloads
    assert encode_regions(program, stitched) == regions


def test_ordinal_out_of_range_raises(kmeans_result):
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    regions["main"]["statements"][0][STMT_FIELDS.index("ord")] = 10**6
    with pytest.raises(PayloadMismatch, match="ordinal"):
        stitch_folded(program, regions)


@pytest.mark.parametrize("rows", ["statements", "deps"])
def test_row_of_wrong_length_raises(kmeans_result, rows):
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    regions["main"][rows][0].append(0)
    with pytest.raises(PayloadMismatch, match="malformed"):
        stitch_folded(program, regions)
    regions["main"][rows][0][-2:] = []
    with pytest.raises(PayloadMismatch, match="malformed"):
        stitch_folded(program, regions)


@pytest.mark.parametrize(
    "rows, field",
    [
        ("statements", STMT_FIELDS.index("ctx")),
        ("statements", STMT_FIELDS.index("domain")),
        ("deps", DEP_FIELDS.index("src_ctx")),
        ("deps", DEP_FIELDS.index("domain")),
    ],
)
@pytest.mark.parametrize("index", [10**6, -1])
def test_table_index_out_of_range_raises(kmeans_result, rows, field, index):
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    regions["main"][rows][0][field] = index
    with pytest.raises(PayloadMismatch, match="malformed"):
        stitch_folded(program, regions)


@pytest.mark.parametrize("where", ["label_pieces", "partial_src"])
@pytest.mark.parametrize("index", [10**6, -1])
def test_expr_index_out_of_range_raises(kmeans_result, where, index):
    """A label-piece function or a ``partial_src`` entry that names an
    expression outside the region's ``exprs`` table is refused."""
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    main = regions["main"]
    if where == "label_pieces":
        field = STMT_FIELDS.index("label_pieces")
        row = next(r for r in main["statements"] if r[field])
        row[field][0][1][0] = index
    else:
        field = DEP_FIELDS.index("partial_src")
        row = next(r for r in main["deps"] if r[field])
        row[field] = [index] * len(row[field])
    with pytest.raises(PayloadMismatch, match="malformed"):
        stitch_folded(program, regions)


@pytest.mark.parametrize("table", ["sets", "maps", "exprs", "ctxs"])
def test_missing_table_raises(kmeans_result, table):
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    del regions["main"][table]
    with pytest.raises(PayloadMismatch, match="region 'main': malformed"):
        stitch_folded(program, regions)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_regions_must_be_the_programs_functions(kmeans_result, change):
    """One region per function, no more and no fewer: a payload that
    lost a region (or names a function the program lacks) is refused
    even when no remaining dependence dangles."""
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    if change == "missing":
        del regions["main"]
    else:
        regions["not_a_function"] = regions["main"]
    with pytest.raises(PayloadMismatch, match="program's functions"):
        stitch_folded(program, regions)


def test_overlap_with_fresh_raises(kmeans_result):
    """A statement or dependence row that appears twice in a payload
    must be refused, not double-counted."""
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    main = regions["main"]
    main["statements"].append(list(main["statements"][0]))
    with pytest.raises(PayloadMismatch, match="statement .* repeated"):
        stitch_folded(program, regions)
    main["statements"].pop()
    main["deps"].append(list(main["deps"][0]))
    with pytest.raises(PayloadMismatch, match="dep .* repeated"):
        stitch_folded(program, regions)


def test_dangling_cross_region_source_raises(kmeans_result):
    """Stitching one region's rows, with every other region's
    statements gone, must fail the dangling-source check: its deps
    reach into other functions."""
    program = kmeans_result.spec.program
    regions = encode_regions(program, kmeans_result.folded)
    for func, region in regions.items():
        if func != "update_centers":
            region["statements"] = []
            region["deps"] = []
    with pytest.raises(PayloadMismatch, match="outside the decoded DDG"):
        stitch_folded(program, regions)
