"""Group math checks for the x-only scalar multiplication.

The widely deployed X25519 implementations clamp scalars, so they can only
serve as an oracle when we clamp the scalar ourselves before comparing.
``mult`` runs on such an implementation through a clamp-invariant stand-in
scalar, so it is also compared with the pure-Python ``ladder`` oracle
(``conftest``) over unclamped scalars, including those with no stand-in
that ``mult`` splits into two factors, and points outside the prime-order
subgroup.  The properties the mix network relies
on (prime subgroup order, multiplicative composition of unclamped scalars)
are asserted directly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    PublicFormat,
)

from conftest import ladder
from lluad.curve import (
    BASE_U,
    FIELD_PRIME,
    GROUP_ORDER,
    LOW_ORDER_U,
    InvalidElement,
    decode_element,
    encode_element,
    mult,
    mult_base,
    random_scalar,
)


def clamp(raw: bytes) -> int:
    v = bytearray(raw)
    v[0] &= 248
    v[31] &= 127
    v[31] |= 64
    return int.from_bytes(v, "little")


def test_rfc7748_vector_one():
    scalar = clamp(
        bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
        )
    )
    u_in = (
        int.from_bytes(
            bytes.fromhex(
                "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
            ),
            "little",
        )
        & ((1 << 255) - 1)
    )
    expected = bytes.fromhex(
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    )
    assert encode_element(mult(scalar, u_in)) == expected


def test_rfc7748_iterated_vector():
    k = (9).to_bytes(32, "little")
    u = k
    for _ in range(1000):
        k, u = encode_element(mult(clamp(k), int.from_bytes(u, "little"))), k
    assert k == bytes.fromhex(
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    )


def test_matches_x25519_library_with_clamped_scalars():
    rng = random.Random(11)
    for _ in range(8):
        raw = rng.randbytes(32)
        priv = X25519PrivateKey.from_private_bytes(raw)
        pub = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        assert encode_element(mult_base(clamp(raw))) == pub

        peer_raw = rng.randbytes(32)
        peer = X25519PrivateKey.from_private_bytes(peer_raw)
        peer_pub = peer.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        shared = priv.exchange(X25519PublicKey.from_public_bytes(peer_pub))
        ours = encode_element(mult(clamp(raw), int.from_bytes(peer_pub, "little")))
        assert ours == shared


def test_base_point_has_group_order():
    assert mult(GROUP_ORDER, BASE_U) == 0
    # no smaller prime factor: L is prime, so any 1 < k < L keeps us off identity
    rng = random.Random(12)
    for _ in range(4):
        assert mult(random_scalar(rng), BASE_U) != 0


def test_unclamped_multiplicativity():
    rng = random.Random(13)
    for _ in range(6):
        a = random_scalar(rng)
        b = random_scalar(rng)
        lhs = mult(a, mult(b, BASE_U))
        rhs = mult(a * b % GROUP_ORDER, BASE_U)
        assert lhs == rhs


def test_dh_symmetry():
    rng = random.Random(14)
    a = random_scalar(rng)
    b = random_scalar(rng)
    assert mult(a, mult_base(b)) == mult(b, mult_base(a))


def test_encode_decode_round_trip():
    rng = random.Random(15)
    for _ in range(6):
        u = mult_base(random_scalar(rng))
        assert decode_element(encode_element(u)) == u


def test_decode_rejects_bad_lengths():
    with pytest.raises(InvalidElement):
        decode_element(b"\x01" * 31)
    with pytest.raises(InvalidElement):
        decode_element(b"\x01" * 33)


def test_decode_rejects_non_canonical():
    high_bit = bytearray(encode_element(mult_base(5)))
    high_bit[31] |= 0x80
    with pytest.raises(InvalidElement):
        decode_element(bytes(high_bit))
    with pytest.raises(InvalidElement):
        decode_element(FIELD_PRIME.to_bytes(32, "little"))


def test_decode_rejects_low_order_blacklist():
    for u in LOW_ORDER_U:
        with pytest.raises(InvalidElement):
            decode_element(int(u).to_bytes(32, "little"))


def test_low_order_blacklist_is_actually_low_order():
    # every blacklisted coordinate lands on the identity within 8 steps
    for u in LOW_ORDER_U:
        assert mult(8, u) == 0


def test_random_scalar_deterministic_with_seed():
    a = random_scalar(random.Random(99))
    b = random_scalar(random.Random(99))
    assert a == b
    assert 1 <= a < GROUP_ORDER


SCALARS = st.integers(min_value=1, max_value=(1 << 255) - 1)
SUBGROUP_SCALARS = st.integers(min_value=1, max_value=GROUP_ORDER - 1)

# Scalars with no clamp-invariant stand-in: k = CRT(0 mod 8, s mod L) and
# 8L - k both fall outside [2^254, 2^255), so mult splits them in two.
FALLBACK_SCALARS = [8, 16, 24, 64, 8 * 1000, GROUP_ORDER - 8, GROUP_ORDER + 8]


def _stand_ins(scalar: int) -> list[int]:
    """Clamp-invariant k with k = 0 mod 8 and k = +-scalar mod L."""
    k = 8 * (scalar * pow(8, -1, GROUP_ORDER) % GROUP_ORDER)
    return [c for c in (k, 8 * GROUP_ORDER - k) if (1 << 254) <= c < (1 << 255)]


def _is_square(v: int) -> bool:
    return pow(v % FIELD_PRIME, (FIELD_PRIME - 1) // 2, FIELD_PRIME) == 1


def _on_curve(u: int) -> bool:
    return _is_square(u * u * u + 486662 * u * u + u)


def _curve_point_with_torsion() -> int:
    u = 2
    while not (_on_curve(u) and ladder(GROUP_ORDER, u) != 0):
        u += 1
    return u


def _twist_point() -> int:
    u = 2
    while _on_curve(u):
        u += 1
    return u


@settings(max_examples=60, deadline=None)
@given(scalar=SCALARS, point_scalar=SUBGROUP_SCALARS)
def test_mult_matches_ladder_on_subgroup(scalar, point_scalar):
    u = ladder(point_scalar, BASE_U)
    assert mult(scalar, u) == ladder(scalar, u)
    assert mult(scalar, BASE_U) == ladder(scalar, BASE_U)


@pytest.mark.parametrize("scalar", FALLBACK_SCALARS)
def test_fallback_scalars_match_ladder(scalar):
    assert _stand_ins(scalar) == []
    u = ladder(random_scalar(random.Random(scalar)), BASE_U)
    assert mult(scalar, BASE_U) == ladder(scalar, BASE_U) != 0
    assert mult(scalar, u) == ladder(scalar, u) != 0


def test_group_order_multiples_give_identity():
    u = mult_base(random_scalar(random.Random(20)))
    for m in (1, 2, 3, 5):
        assert mult(m * GROUP_ORDER, BASE_U) == 0
        assert mult(m * GROUP_ORDER, u) == 0


def test_scalar_above_group_order_reduces():
    rng = random.Random(16)
    u = mult_base(random_scalar(rng))
    for _ in range(4):
        t = random_scalar(rng)
        for scalar in (GROUP_ORDER + t, 3 * GROUP_ORDER + t):
            assert mult(scalar, u) == mult(t, u) == ladder(scalar, u)


def test_low_order_points_give_all_zero_output():
    rng = random.Random(17)
    for _ in range(4):
        scalar = rng.randrange(1, 1 << 255)
        for u in LOW_ORDER_U:
            assert mult(scalar, u) == 0


def test_torsion_component_is_cleared():
    # P = Q + T with T of order dividing 8.  8P = 8Q, so Q = (8^-1 mod L) 8P,
    # and mult gives x(s Q) where the ladder gives x(s P) = x(s Q + s T).
    u = _curve_point_with_torsion()
    q = ladder(pow(8, -1, GROUP_ORDER), ladder(8, u))
    rng = random.Random(18)
    for _ in range(4):
        scalar = random_scalar(rng) | 1  # odd: s T is never the identity
        assert mult(scalar, u) == ladder(scalar, q)
        assert mult(scalar, u) != ladder(scalar, u)


def test_twist_point_uses_clamp_invariant_scalar():
    u = _twist_point()
    rng = random.Random(19)
    for _ in range(4):
        scalar = random_scalar(rng)
        (stand_in,) = _stand_ins(scalar)
        assert mult(scalar, u) == ladder(stand_in, u)
        assert mult(scalar, u) != ladder(scalar, u)
