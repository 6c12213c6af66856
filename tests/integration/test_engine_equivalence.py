"""Engine equivalence: the fast path must be invisible in the results.

The block-compiled VM + batched DDG builder + fast folding backend
(``engine="fast"``) and the reference per-instruction interpreter +
reference folder (``engine="reference"``) must produce *identical*
analyses for every workload: same run statistics, same folded
statements and dependence relations (domains, counts, exactness,
label pieces, SCEV flags, partial fits), same schedule tree, same
plans and rendered report.
"""

import pytest

from repro.feedback.report import render_report
from repro.pipeline import analyze
from repro.workloads import all_workloads

WORKLOADS = sorted(all_workloads())


def stmt_sig(fs):
    label_pieces = None
    if fs.label_pieces is not None:
        label_pieces = [
            (str(dom), str(fn), cnt) for dom, fn, cnt in fs.label_pieces
        ]
    return (
        fs.count,
        str(fs.domain),
        fs.exact,
        label_pieces,
        fs.had_label,
        fs.is_scev,
    )


def dep_sig(fd):
    relation = None
    if fd.relation is not None:
        # IMap has no __eq__; compare its pieces structurally
        relation = (
            str(fd.relation.in_space),
            str(fd.relation.out_space),
            [(str(poly), str(fn)) for poly, fn in fd.relation.pieces],
        )
    partial = None
    if fd.partial_src is not None:
        partial = [None if e is None else str(e) for e in fd.partial_src]
    return (
        fd.count,
        str(fd.domain),
        fd.domain_exact,
        relation,
        partial,
        fd.src_depth,
        fd.dst_depth,
    )


def stats_sig(stats):
    return (
        stats.dyn_instrs,
        stats.dyn_branches,
        stats.dyn_calls,
        stats.mem_ops,
        stats.fp_ops,
        dict(stats.per_opcode),
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_engines_identical(name):
    spec_fast = all_workloads()[name]()
    spec_ref = all_workloads()[name]()
    fast = analyze(spec_fast, engine="fast")
    ref = analyze(spec_ref, engine="reference")

    # run statistics of both instrumented executions
    assert stats_sig(fast.control.stats) == stats_sig(ref.control.stats)
    assert stats_sig(fast.ddg_profile.stats) == stats_sig(
        ref.ddg_profile.stats
    )
    assert (
        fast.ddg_profile.builder.instr_count
        == ref.ddg_profile.builder.instr_count
    )

    # folded statements
    assert set(fast.folded.statements) == set(ref.folded.statements)
    for key, fs in fast.folded.statements.items():
        assert stmt_sig(fs) == stmt_sig(ref.folded.statements[key]), key

    # folded dependence relations
    assert set(fast.folded.deps) == set(ref.folded.deps)
    for key, fd in fast.folded.deps.items():
        assert dep_sig(fd) == dep_sig(ref.folded.deps[key]), key

    # dynamic schedule tree
    assert (
        fast.schedule_tree.render_text() == ref.schedule_tree.render_text()
    )

    # downstream feedback: plans and the rendered report
    assert len(fast.plans) == len(ref.plans)
    assert render_report(fast.forest, fast.plans) == render_report(
        ref.forest, ref.plans
    )


# -- engine x fold_jobs matrix -------------------------------------------------
#
# Parallel sharded folding (repro.parallel) promises the same
# invisibility the fast engine does: analyze(fold_jobs=N) must be
# codec-identical to the serial fold for every N.  Only the fast
# engine folds in parallel (the reference engine is serial); the
# single-valued engine axis keeps the test ids stable.
# The full matrix over every workload would dominate suite runtime;
# two structurally different small workloads suffice here -- the whole
# registry is already pinned serial-vs-serial above, and
# tests/parallel covers the parallel machinery itself.

MATRIX_WORKLOADS = ("nn", "backprop")


@pytest.mark.parametrize("engine", ("fast",))
@pytest.mark.parametrize("fold_jobs", (2, 3))
@pytest.mark.parametrize("name", MATRIX_WORKLOADS)
def test_parallel_fold_matrix(name, fold_jobs, engine):
    from repro.folding.codec import encode_folded_ddg

    serial = analyze(all_workloads()[name](), engine=engine)
    par = analyze(
        all_workloads()[name](), engine=engine, fold_jobs=fold_jobs
    )
    assert encode_folded_ddg(par.folded) == encode_folded_ddg(serial.folded)
    assert set(par.folded.statements) == set(serial.folded.statements)
    for key, fs in par.folded.statements.items():
        assert stmt_sig(fs) == stmt_sig(serial.folded.statements[key]), key
    for key, fd in par.folded.deps.items():
        assert dep_sig(fd) == dep_sig(serial.folded.deps[key]), key
    assert render_report(par.forest, par.plans) == render_report(
        serial.forest, serial.plans
    )


@pytest.mark.parametrize("option", ["store", "baseline", "fold_jobs"])
def test_reference_engine_is_serial_and_uncached(tmp_path, option):
    from repro.store import ArtifactStore

    value = {
        "store": ArtifactStore(str(tmp_path)),
        "baseline": "ab" * 32,
        "fold_jobs": 2,
    }[option]
    with pytest.raises(ValueError, match="serial and uncached"):
        analyze(all_workloads()["nn"](), engine="reference", **{option: value})
