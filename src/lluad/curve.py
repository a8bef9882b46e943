"""x-only scalar multiplication on the prime-order subgroup of curve25519.

The mix network blinds ephemeral public keys by repeated scalar
multiplication, so scalars must compose multiplicatively:

    mult(a, mult(b, P)) == mult(a*b mod L, P)

X25519 (RFC 7748 section 5, decodeScalar25519) clamps every scalar: it
clears bits 0-2 and 255 and sets bit 254.  Clamping breaks that identity
for arbitrary scalars, but it leaves a scalar k unchanged when k = 0 mod 8
and 2^254 <= k < 2^255.  On a point of prime order L the result depends
only on k mod L, and an x-only result is the same for k and -k.  So
``mult`` hands OpenSSL's X25519 (through ``cryptography``) the scalar
k = CRT(0 mod 8, s mod L), or 8L - k, whichever lies in that range.  A
scalar that is already clamp-invariant goes through as it is.  When
neither stand-in is in range (about 2^-125 of random scalars, but also
small multiples of 8 such as 8 itself), ``mult`` splits s mod L into two
factors that both have stand-ins, c and s * c^-1 mod L, with c taken
from a short fixed list of hash-derived constants, and runs both
through X25519; s = 0 mod L gives the identity.

The contract of ``mult(s, u)``:

- exact for any point when s is clamp-invariant, so RFC 7748 vectors and
  the clamped library cross-check hold;
- exact on the prime-order subgroup for any s, which is all that honest
  traffic ever produces: the base point (u=9) generates that subgroup;
- for a point outside the subgroup and a scalar that is not
  clamp-invariant, the product is taken with the stand-in k (k = +-s
  mod L, k = 0 mod 8), or with the two stand-ins of a split scalar in
  turn.  A curve point P = Q + T with a torsion component T therefore
  yields x(s*Q): the torsion is cleared.  A twist point yields x(k*P)
  on the twist.  The low-order points yield 0.  ``decode_element``
  already rejects the low-order list.

Twist points are not rejected on decode, and need not be.  The twist of
curve25519 has order 4*p' with p' a large prime, and every scalar that
reaches X25519 here is a multiple of 8, so k*P for a twist point P lies
in the subgroup of order p' (or is the identity).  A peer who sends one
learns k*P in a group of prime order about 2^253, where the discrete
logarithm is as hard as on the curve itself: no small subgroup exists to
leak k modulo a small factor.  Rejecting them would take a
Legendre-symbol test on every decode, and every hop decodes each element
twice (in ``derive_shared`` and again in ``blind``); one test costs more
than a ``mult``.

The identity is returned as 0; OpenSSL reports it by refusing an all-zero
output.
"""

from __future__ import annotations

import hashlib
import secrets
from random import Random

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

FIELD_PRIME = 2**255 - 19
GROUP_ORDER = 2**252 + 27742317777372353535851937790883648493
BASE_U = 9
ELEMENT_LEN = 32

_CLAMP_LOW = 1 << 254
_CLAMP_HIGH = 1 << 255
_EIGHT_L = 8 * GROUP_ORDER
_INV8 = pow(8, -1, GROUP_ORDER)

# u-coordinates of all canonical points with order dividing 8 (curve and
# twist).  Feeding any of these into DH would yield a predictable shared
# key, so they are rejected on decode.
LOW_ORDER_U = frozenset(
    {
        0,
        1,
        325606250916557431795983626356110631294008115727848805560023387167927233504,
        39382357235489614581723060781553021112529911719440698176882885853963445705823,
        FIELD_PRIME - 1,
    }
)


class InvalidElement(ValueError):
    """Raised for non-canonical, low-order, or otherwise unusable elements."""


def _clamp_invariant(scalar: int) -> int | None:
    """A scalar X25519 clamping leaves unchanged that acts like `scalar`
    on the prime-order subgroup, or None when no such scalar exists."""
    if scalar % 8 == 0 and _CLAMP_LOW <= scalar < _CLAMP_HIGH:
        return scalar
    k = 8 * (scalar * _INV8 % GROUP_ORDER)  # k = 0 mod 8, k = scalar mod L
    for candidate in (k, _EIGHT_L - k):
        if _CLAMP_LOW <= candidate < _CLAMP_HIGH:
            return candidate
    return None


def _split_factor(i: int) -> int:
    digest = hashlib.sha256(b"lluad curve split factor %d" % i).digest()
    return int.from_bytes(digest, "little") % GROUP_ORDER


# (stand-in of c, c^-1 mod L) for the factors a scalar with no stand-in
# is split by; each c has a stand-in of its own
_SPLITS = [
    (_clamp_invariant(c), pow(c, -1, GROUP_ORDER))
    for c in map(_split_factor, range(4))
]


def _x25519(k: int, u: int) -> int:
    """X25519 of a clamp-invariant scalar k; 0 for the identity."""
    priv = X25519PrivateKey.from_private_bytes(k.to_bytes(ELEMENT_LEN, "little"))
    peer = X25519PublicKey.from_public_bytes(
        (u % FIELD_PRIME).to_bytes(ELEMENT_LEN, "little")
    )
    try:
        shared = priv.exchange(peer)
    except ValueError:  # OpenSSL refuses the all-zero output: the identity
        return 0
    return int.from_bytes(shared, "little")


def mult(scalar: int, u: int) -> int:
    """u-coordinate of scalar * (point with coordinate u).

    The scalar is not clamped; any value in [1, 2^255) is accepted.  See
    the module docstring for which inputs are exact.  Returns 0 for the
    identity.
    """
    if scalar <= 0 or scalar >= _CLAMP_HIGH:
        raise ValueError("scalar out of range")
    k = _clamp_invariant(scalar)
    if k is not None:
        return _x25519(k, u)
    if scalar % GROUP_ORDER == 0:
        return 0
    for k_c, inv_c in _SPLITS:
        k_rest = _clamp_invariant(scalar * inv_c % GROUP_ORDER)
        if k_rest is not None:
            return _x25519(k_rest, _x25519(k_c, u))
    raise ArithmeticError("no split of the scalar has stand-ins")


def mult_base(scalar: int) -> int:
    """u-coordinate of scalar * base point."""
    return mult(scalar, BASE_U)


def encode_element(u: int) -> bytes:
    """32-byte little-endian encoding of a u-coordinate."""
    if not 0 <= u < FIELD_PRIME:
        raise ValueError("coordinate out of field range")
    return u.to_bytes(ELEMENT_LEN, "little")


def decode_element(data: bytes) -> int:
    """Decode and validate a 32-byte element.

    Rejects wrong lengths, non-canonical encodings (high bit set or value
    >= field prime), and the low-order blacklist.
    """
    if len(data) != ELEMENT_LEN:
        raise InvalidElement(f"element must be {ELEMENT_LEN} bytes, got {len(data)}")
    u = int.from_bytes(data, "little")
    if u >> 255:
        raise InvalidElement("non-canonical element (high bit set)")
    if u >= FIELD_PRIME:
        raise InvalidElement("non-canonical element (not reduced)")
    if u in LOW_ORDER_U:
        raise InvalidElement("low-order element")
    return u


def random_scalar(rng: Random | None = None) -> int:
    """Uniform nonzero scalar mod GROUP_ORDER.

    Pass a seeded Random for reproducible runs; the default draws from the
    OS entropy pool.
    """
    if rng is None:
        return 1 + secrets.randbelow(GROUP_ORDER - 1)
    return rng.randrange(1, GROUP_ORDER)
