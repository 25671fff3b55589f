"""Seeded pseudo-random stream for reproducible experiments.

SplitMix64 (documented so independent implementations produce identical
streams):

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z ^ (z >> 31)

uniform() maps the top 53 bits to [0, 1): (output >> 11) * 2^-53.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def random_modes(rng: SplitMix64, kmax: int, slope: float) -> dict:
    """Hermitian mode table over 0 < |j| <= kmax with power-law amplitudes.

    Modes are visited in the documented order (jx ascending, then jy) over the
    lexicographically positive half-plane; each draws two uniforms (amplitude
    jitter and phase).  Returns {(jx, jy): coefficient} including conjugates.
    """
    table: dict = {}
    for jx in range(0, kmax + 1):
        for jy in range(-kmax, kmax + 1):
            if jx == 0 and jy <= 0:
                continue
            amp = (1.0 + jx * jx + jy * jy) ** (slope / 2.0)
            mag = amp * (0.5 + rng.uniform())
            phase = 2.0 * math.pi * rng.uniform()
            c = 0.5 * mag * complex(math.cos(phase), math.sin(phase))
            table[(jx, jy)] = c
            table[(-jx, -jy)] = c.conjugate()
    return table
