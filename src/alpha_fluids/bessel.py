"""Modified Bessel functions K0 and K1 of the blob kernel (scipy.special)."""

from scipy.special import k0, k1  # noqa: F401
