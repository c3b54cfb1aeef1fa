"""Gate constants every backend shares: 1/sqrt2 and phase factors.

What each gate does to a basis state is the kernels' op table,
``_kernels._GATE_OPS``; the tests keep their own readable reference
semantics and pin the two against each other kind by kind, bit for bit.
"""
from __future__ import annotations

import math

# Correctly rounded sqrt(0.5); shared by every backend so that identical
# queries produce bit-identical floats regardless of backend.
INV_SQRT2 = math.sqrt(0.5)


def phase_factor(theta: float) -> complex:
    """e**(i*theta) built from cos/sin so all backends agree bitwise."""
    return complex(math.cos(theta), math.sin(theta))
