"""Declarative workload param registry tests (sweep satellite).

Declaring params must be free: a factory called with no bindings must
build the byte-identical program and initial state it always built.
"""

import pytest

from repro.store.keys import keys_for_spec as _keys_for_spec
from repro.workloads import (
    RODINIA_ORDER,
    all_params,
    all_workloads,
    params_of,
    registry,
)


def fingerprint(spec) -> str:
    return _keys_for_spec(
        spec,
        fuel=50_000_000,
        clamp=None,
    ).stage2


class TestDeclarations:
    def test_every_rodinia_workload_declares_params(self):
        declared = all_params()
        for name in RODINIA_ORDER:
            assert declared.get(name), f"{name} declares no params"

    def test_every_declaration_has_a_sweepable_axis(self):
        for name in RODINIA_ORDER:
            sweeps = [p for p in params_of(name) if p.sweep]
            assert sweeps, f"{name} has no sweep-able param"
            for p in sweeps:
                assert len(p.sweep) >= 2
                assert p.default > 0

    def test_paramless_workloads_report_empty(self):
        assert params_of("mm") == ()
        assert params_of("no_such_workload") == ()


class TestDefaultsAreByteIdentical:
    @pytest.mark.parametrize("name", RODINIA_ORDER)
    def test_explicit_defaults_match_implicit(self, name):
        """Binding every param to its declared default must produce
        the same content fingerprints as binding nothing."""
        factory = registry()[name]
        defaults = {p.name: p.default for p in params_of(name)}
        assert fingerprint(factory()) == fingerprint(
            factory(**defaults)
        )


class TestBindings:
    def test_unknown_param_raises(self):
        with pytest.raises(TypeError, match="no param"):
            registry()["nw"](depth=3)

    def test_binding_changes_the_fingerprint(self):
        factory = registry()["nw"]
        assert fingerprint(factory(n=8)) != fingerprint(
            factory(n=12)
        )

    def test_values_coerced_to_int(self):
        factory = registry()["nw"]
        assert fingerprint(factory(n="8")) == fingerprint(
            factory(n=8)
        )

    def test_registry_matches_all_workloads(self):
        assert set(registry()) == set(all_workloads())
