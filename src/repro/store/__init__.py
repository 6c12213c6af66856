"""Content-addressed analysis artifact store (warm-path caching).

Fingerprint the inputs (:mod:`repro.isa.fingerprint`), derive staged
keys (:mod:`repro.store.keys`), persist/recover stage artifacts
(:mod:`repro.store.artifacts`) through a size-capped atomic store
(:mod:`repro.store.store`).
"""

from .artifacts import (
    decode_control_profile,
    decode_stage2,
    encode_control_profile,
    encode_stage2,
)
from .keys import ArtifactKeys, keys_for_spec, manifest_key
from .store import STORE_FORMAT_VERSION, ArtifactStore, StoreStats

__all__ = [
    "ArtifactKeys",
    "ArtifactStore",
    "STORE_FORMAT_VERSION",
    "StoreStats",
    "decode_control_profile",
    "decode_stage2",
    "encode_control_profile",
    "encode_stage2",
    "keys_for_spec",
    "manifest_key",
]
