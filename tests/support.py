"""Helpers only the tests call, kept out of the package: the one-at-a-time
splitmix64 that the array sampler of ``manifest.sample_box`` is compared
against, and vector fields of constant components."""

from confsub.expr import Const
from confsub.geometry import VectorFieldSpec

MASK = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 output for the given 64-bit state."""
    z = (state + 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E9B5) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def constant_field(values):
    """The vector field whose components are the constants ``values``."""
    return VectorFieldSpec(tuple(Const(float(v)) for v in values))
