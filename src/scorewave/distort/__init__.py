"""Programmatic speech degradation: weighted random chains of distortion
primitives with bit-exact replay from the logged specs (within one
ENGINE_VERSION)."""

from .biquad import (
    apply_biquad,
    band_pass,
    high_pass,
    high_shelf,
    low_pass,
    low_shelf,
    magnitude_at,
    notch,
    peaking,
    two_pole,
)
from .chain import (
    CLIP_LEVEL,
    DEFAULT_COUNT_PROBS,
    ENGINE_VERSION,
    ChainConfig,
    DistortedPair,
    DistortionSpec,
    SoftClipWarning,
    apply_chain,
    chain_from_json,
    chain_from_record,
    chain_to_json,
    default_weights,
    sample_chain,
)
from .primitives import DEFAULT_BOUNDS, PRIMITIVES, Primitive

__all__ = [
    "CLIP_LEVEL",
    "DEFAULT_BOUNDS",
    "DEFAULT_COUNT_PROBS",
    "ENGINE_VERSION",
    "PRIMITIVES",
    "ChainConfig",
    "DistortedPair",
    "DistortionSpec",
    "Primitive",
    "SoftClipWarning",
    "apply_biquad",
    "apply_chain",
    "band_pass",
    "chain_from_json",
    "chain_from_record",
    "chain_to_json",
    "default_weights",
    "high_pass",
    "high_shelf",
    "low_pass",
    "low_shelf",
    "magnitude_at",
    "notch",
    "peaking",
    "sample_chain",
    "two_pole",
]
