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

Both hash the program by its **canonical** digest
(:func:`~repro.isa.fingerprint.program_digests`): uids replaced by
function-local ordinals, functions in name order, every other field
kept.  The ``cp-``/``ddg-`` payloads are uid-free and decoded against
the submitted program, so a *twin* -- a program that differs from an
analyzed one only in its uid numbering or function listing order --
shares its keys and is an ordinary warm hit.  A renamed function or
block, or any changed instruction field, still gets new keys, because
the payloads name functions and blocks.

One further level serves ``analyze(baseline=...)`` (:mod:`repro.incr`):
the **manifest key** (``man-``) covers the static program manifest --
per-function and per-block fingerprints -- and depends on the exact
program digest alone.

Only the production (fast) pipeline reads or writes the store, so no
execution-path choice enters the key material.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..isa.fingerprint import fingerprint_state, program_digests
from .store import STORE_FORMAT_VERSION


@dataclass(frozen=True)
class ArtifactKeys:
    """The content-addressed keys of one (workload, options) pair."""

    stage1: str          # ControlProfile artifact ("cp-<sha256>")
    stage2: str          # FoldedDDG + profile-meta + dep-vector artifact
    #: exact program digest (:func:`~repro.isa.fingerprint_program`):
    #: what the manifest key and the service's job key hash, because a
    #: twin's rendered documents name its own uids
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
    program_digest, canonical_digest = program_digests(spec.program)
    state_digest = fingerprint_state(args, memory)
    base = (
        f"v{STORE_FORMAT_VERSION}|prog={canonical_digest}"
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
