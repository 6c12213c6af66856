"""Ablations of the pipeline's key design choices.

DESIGN.md commits to three mechanisms whose value the paper argues
qualitatively; these ablations measure them:

1. **SCEV recognition off** (paper section 5: without it, the
   induction/address chains "greatly and unnecessarily constrain
   possible code transformations") -- parallel loops should largely
   disappear because every loop carries its own counter recurrence.
2. **Piecewise label folding off** (single affine piece per stream,
   the 2019 prototype's limitation) -- boundary-clamped and blocked
   benchmarks lose their %Aff.
3. **Storage (anti/output) dependence tracking off** -- profiling gets
   cheaper, but the legality analysis loses the write-after-read
   constraints that, e.g., make in-place stencils require skewing.
"""


from _harness import emit, format_table, once
from repro.folding import FastFoldingSink, FoldingSink
from repro.pipeline import analyze, profile_control, profile_ddg
from repro.schedule import analyze_forest, build_nest_forest
from repro.workloads import rodinia_workloads

BENCHES = ("backprop", "srad_v1", "hotspot3D", "nw")


def parallel_fraction(folded, forest):
    from repro.schedule.deps import loop_path

    total = 0
    par = 0
    for fs in folded.statements.values():
        path = loop_path(fs.stmt)
        if not path:
            continue
        total += fs.count
        chain = [forest.node_at(path[: k + 1]) for k in range(len(path))]
        if any(n is not None and n.parallel for n in chain):
            par += fs.count
    return 100.0 * par / total if total else 0.0


def fold_with(spec, control, sink, **ddg_options):
    """Stage 2 alone, into ``sink``, with non-default builder options."""
    profile_ddg(spec, control, sink=sink, **ddg_options)
    return sink.finalize()


def run_ablations():
    rows = []
    for name in BENCHES:
        spec = rodinia_workloads()[name]()

        # baseline
        base = analyze(spec)
        base_par = parallel_fraction(base.folded, base.forest)
        base_aff = 100.0 * base.folded.affine_ops() / base.folded.dyn_ops()

        # 1. SCEV recognition off: readmit the induction chains
        control = profile_control(spec)
        noscev = fold_with(spec, control, FoldingSink())
        for fs in noscev.statements.values():
            fs.is_scev = False
        forest_ns = analyze_forest(build_nest_forest(noscev))
        noscev_par = parallel_fraction(noscev, forest_ns)

        # 2. single-piece label folding (the paper-era folder)
        single = fold_with(spec, control, FastFoldingSink(max_pieces=1))
        single_aff = 100.0 * single.affine_ops() / single.dyn_ops()

        # 3. no anti/output tracking: fewer dependences to fold
        lean = fold_with(
            spec, control, FastFoldingSink(), track_anti_output=False
        )
        lean_deps = len(lean.deps)
        full_deps = len(base.folded.deps)

        rows.append([
            name,
            f"{base_par:.0f}%",
            f"{noscev_par:.0f}%",
            f"{base_aff:.0f}%",
            f"{single_aff:.0f}%",
            full_deps,
            lean_deps,
        ])
    return rows


def test_design_choice_ablations(benchmark):
    rows = once(benchmark, run_ablations)
    table = format_table(
        ["benchmark", "par% (base)", "par% (no SCEV)",
         "%Aff (base)", "%Aff (1-piece)",
         "deps (full)", "deps (no anti/out)"],
        rows,
        title="Ablations: SCEV recognition, piecewise folding, storage deps",
    )
    emit("ablation.txt", table)

    by = {r[0]: r for r in rows}

    def pct(s):
        return int(s.rstrip("%"))

    # 1. without SCEV recognition, parallelism collapses everywhere
    # (nw has none to lose: its DP is wavefront-only even at baseline)
    for name in ("backprop", "srad_v1", "hotspot3D"):
        assert pct(by[name][2]) < pct(by[name][1]), name
    assert all(pct(by[n][2]) <= 5 for n in BENCHES)

    # 2. single-piece folding loses affinity on boundary-clamped codes
    # (srad_v1's iN/iS/jW/jE index arrays need piecewise labels)
    assert pct(by["srad_v1"][4]) < pct(by["srad_v1"][3])

    # 3. dropping storage deps never grows the dependence set, and
    # shrinks it where in-program writes are re-read (the stencils);
    # kernels whose arrays are written at most once per location have
    # no storage dependences to drop (backprop, nw)
    for name in BENCHES:
        assert by[name][6] <= by[name][5], name
    assert by["srad_v1"][6] < by["srad_v1"][5]
    assert by["hotspot3D"][6] < by["hotspot3D"][5]
