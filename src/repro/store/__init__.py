"""Content-addressed analysis artifact store (warm-path caching).

Fingerprint the inputs (:mod:`repro.isa.fingerprint`), derive staged
keys (:mod:`repro.store.keys`), persist/recover stage artifacts
(stage 1 in :mod:`repro.store.artifacts`, the stage-2 ``ddg-`` payload
in :mod:`repro.store.stage2`) through a size-capped atomic store
(:mod:`repro.store.store`).
"""

from .artifacts import decode_control_profile, encode_control_profile
from .keys import ArtifactKeys, keys_for_spec, manifest_key
from .stage2 import PayloadMismatch, decode_stage2, encode_stage2
from .store import STORE_FORMAT_VERSION, ArtifactStore, StoreStats

__all__ = [
    "ArtifactKeys",
    "ArtifactStore",
    "PayloadMismatch",
    "STORE_FORMAT_VERSION",
    "StoreStats",
    "decode_control_profile",
    "decode_stage2",
    "encode_control_profile",
    "encode_stage2",
    "keys_for_spec",
    "manifest_key",
]
