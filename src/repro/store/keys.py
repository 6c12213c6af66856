"""Artifact key derivation: fingerprints + pipeline options + salt.

Two cache levels mirror the pipeline's stage structure:

* the **stage-1 key** covers everything Instrumentation I depends on:
  the program IR, the initial state, and the fuel budget;
* the **stage-2 key** extends it with the folding clamp (``clamp``)
  and the constant :data:`STAGE2_SUFFIX`.

Changing only the clamp therefore invalidates the folded DDG but
still reuses the cached :class:`~repro.pipeline.ControlProfile`.
Both keys are salted with :data:`~repro.store.store.STORE_FORMAT_VERSION`
so a format bump makes every old artifact an orderly miss.

One further level serves ``analyze(baseline=...)`` (:mod:`repro.incr`):
the **manifest key** (``man-``) covers the static program manifest --
per-function and per-block fingerprints -- and depends on the program
digest alone.  The per-function regions of the folded DDG that a twin
reuses live inside the stage-2 artifact, so they need no key of their
own.

Only the production (fast) pipeline reads or writes the store, so no
execution-path choice enters the key material.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..isa.fingerprint import fingerprint_program, fingerprint_state
from .store import STORE_FORMAT_VERSION


@dataclass(frozen=True)
class ArtifactKeys:
    """The content-addressed keys of one (workload, options) pair."""

    stage1: str          # ControlProfile artifact ("cp-<sha256>")
    stage2: str          # FoldedDDG + profile-meta + dep-vector artifact
    program_digest: str
    state_digest: str
    #: program manifest artifact ("man-<sha256>"); static-only, so it
    #: depends on the program digest alone (see manifest_key)
    manifest: str = ""


#: the fixed folding and instrumentation settings of every analysis,
#: in the form every stage-2 key has carried since format 4; any
#: change to it changes every ``ddg-`` key and needs a
#: ``STORE_FORMAT_VERSION`` bump
STAGE2_SUFFIX = "|max_pieces=6|clamp={clamp}|anti_output=True|schedule_tree=True"


def _hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_key(program_digest: str) -> str:
    """Program-manifest artifact key ("man-<sha256>").

    Keyed by the program digest alone: the manifest is pure static
    analysis (per-function and per-block fingerprints), so
    it is shared across states, fuel budgets, and folding
    options.  Dynamic mismatches surface naturally as ddg- misses.
    """
    return "man-" + _hex(f"v{STORE_FORMAT_VERSION}|manifest={program_digest}")


def derive_keys(
    program_digest: str,
    state_digest: str,
    *,
    fuel: int,
    clamp: Optional[int],
) -> ArtifactKeys:
    base = (
        f"v{STORE_FORMAT_VERSION}|prog={program_digest}"
        f"|state={state_digest}|fuel={fuel}"
    )
    stage2 = base + STAGE2_SUFFIX.format(clamp=clamp)
    return ArtifactKeys(
        stage1="cp-" + _hex(base),
        stage2="ddg-" + _hex(stage2),
        program_digest=program_digest,
        state_digest=state_digest,
        manifest=manifest_key(program_digest),
    )


def keys_for_spec(
    spec,
    *,
    fuel: int,
    clamp: Optional[int],
) -> ArtifactKeys:
    """Fingerprint one :class:`~repro.pipeline.ProgramSpec` and derive
    its artifact keys.  Materializes (and discards) one fresh state --
    cheap next to even a single instrumented execution."""
    args, memory = spec.make_state()
    return derive_keys(
        fingerprint_program(spec.program),
        fingerprint_state(args, memory),
        fuel=fuel,
        clamp=clamp,
    )
