"""Programmatic speech degradation: weighted random chains of distortion
primitives with bit-exact replay from the logged specs (within one
ENGINE_VERSION). Re-exports what the CLI, the benchmark and the README use;
the rest is imported from ``.biquad``, ``.primitives`` or ``.chain``."""

from .chain import (
    ENGINE_VERSION,
    ChainConfig,
    DistortionSpec,
    apply_chain,
    chain_from_json,
    chain_from_record,
    sample_chain,
)
from .primitives import PRIMITIVES

__all__ = [
    "ENGINE_VERSION",
    "PRIMITIVES",
    "ChainConfig",
    "DistortionSpec",
    "apply_chain",
    "chain_from_json",
    "chain_from_record",
    "sample_chain",
]
