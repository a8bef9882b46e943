"""Cryptographic core of the voting mix network.

Every packet in the mix carries exactly three fields:

    p  32-byte ephemeral key element, blinded at every hop
    h  16-byte next-hop hash, advanced at every hop
    d  32-byte payload, one XOR layer peeled at every hop

A relay node holding private key k derives s = KDF(DH(p, k)) and from s
alone computes its payload layer, the next hop hash, and the blinding
factor for p.  The sender can precompute every per-hop value because the
blinded element seen by hop i equals (x0 * b_1 * ... * b_{i-1}) * B, so
s_i = DH(that accumulated scalar, node i's public key).  The sender keeps
that running scalar as a ``curve.Key``: p_i is the key's public half, and
the same key then serves hop i's DH.  Relays and the round server build
their long-lived key once, not once per packet.

All hashes are SHA-256 under per-use domain-separation prefixes.  The
payload cipher is a 32-byte XOR keystream; votes and acks use distinct
keystream roles so the two directions never share cipher state.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from random import Random

from .curve import (
    GROUP_ORDER,
    InvalidElement,
    Key,
    decode_element,
    encode_element,
    mult,
    mult_base,
    random_scalar,
)

KEY_ELEMENT_LEN = 32
NEXT_HOP_HASH_LEN = 16
PAYLOAD_LEN = 32

_PREFIX_HOP = b"LLUAD-hop"
_PREFIX_BLIND = b"LLUAD-blind"
_PREFIX_ACK = b"LLUAD-ack"
_PREFIX_KDF = b"LLUAD-kdf"
_PREFIX_ENC = b"LLUAD-enc"

ROLE_VOTE = b"vote"
ROLE_ACK = b"ack"


def _sha(*parts: bytes) -> bytes:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def _t_bytes(t_timestamp: int) -> bytes:
    return t_timestamp.to_bytes(8, "big")


def _kdf(shared: int) -> bytes:
    if shared == 0:
        raise InvalidElement("shared secret is the identity")
    return _sha(_PREFIX_KDF, encode_element(shared))


def derive_shared(key_element: bytes, k_priv: int | Key) -> bytes:
    """Shared symmetric key between a packet's element and a node key.

    Raises InvalidElement for malformed or low-order elements and for the
    (unreachable with valid inputs) identity result.
    """
    return _kdf(mult(k_priv, decode_element(key_element)))


def blind_factor(key_element: bytes, sym_key: bytes) -> int:
    """Deterministic nonzero blinding scalar from (element, shared key)."""
    counter = 0
    while True:
        suffix = b"" if counter == 0 else bytes([counter])
        b = int.from_bytes(_sha(_PREFIX_BLIND, key_element, sym_key, suffix), "big")
        b %= GROUP_ORDER
        if b != 0:
            return b
        counter += 1  # pragma: no cover - probability ~2^-252


def blind(key_element: bytes, sym_key: bytes) -> bytes:
    """Next-hop key element: the current one multiplied by the blind factor."""
    b = blind_factor(key_element, sym_key)
    return encode_element(mult(b, decode_element(key_element)))


def next_hash(hop_hash: bytes, sym_key: bytes, t_timestamp: int) -> bytes:
    """Advance the 16-byte hop hash chain by one hop."""
    if len(hop_hash) != NEXT_HOP_HASH_LEN:
        raise ValueError("hop hash must be 16 bytes")
    return _sha(_PREFIX_HOP, hop_hash, sym_key, _t_bytes(t_timestamp))[
        :NEXT_HOP_HASH_LEN
    ]


def keystream(sym_key: bytes, role: bytes, t_timestamp: int) -> bytes:
    return _sha(_PREFIX_ENC, role, _t_bytes(t_timestamp), sym_key)


def peel_layer(
    payload: bytes, sym_key: bytes, t_timestamp: int, role: bytes = ROLE_VOTE
) -> bytes:
    """Remove (or, XOR being its own inverse, add) one payload layer."""
    if len(payload) != PAYLOAD_LEN:
        raise ValueError("payload must be 32 bytes")
    stream = keystream(sym_key, role, t_timestamp)
    return (int.from_bytes(payload, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        PAYLOAD_LEN, "big"
    )


def layer_encrypt(
    payload: bytes,
    sym_keys: list[bytes] | tuple[bytes, ...],
    t_timestamp: int,
    role: bytes = ROLE_VOTE,
) -> bytes:
    """Wrap a payload so that peeling with sym_keys[0], sym_keys[1], ...
    in order recovers it.  Zero keys is the identity."""
    out = payload
    for key in reversed(sym_keys):
        out = peel_layer(out, key, t_timestamp, role)
    return out


def ack_tag(payload: bytes, sym_key_final: bytes, t_timestamp: int) -> bytes:
    """Delivery receipt the exit hop computes over the decrypted payload."""
    return _sha(_PREFIX_ACK, payload, sym_key_final, _t_bytes(t_timestamp))


def transform_packet(
    key_element: bytes,
    hop_hash: bytes,
    payload: bytes,
    k_priv: int | Key,
    t_timestamp: int,
) -> tuple[bytes, bytes, bytes, bytes]:
    """One relay hop: returns (next element, next hash, peeled payload, s).

    The shared key is returned so the caller can remember the flow for the
    ack path.
    """
    u = decode_element(key_element)
    s = _kdf(mult(k_priv, u))
    out_p = encode_element(mult(blind_factor(key_element, s), u))
    out_h = next_hash(hop_hash, s, t_timestamp)
    out_d = peel_layer(payload, s, t_timestamp, ROLE_VOTE)
    return out_p, out_h, out_d, s


@dataclass(frozen=True)
class PlanHop:
    """Sender-side view of one hop: who routes it and with which secrets."""

    node_index: int | None  # None marks the terminal (exit) hop
    key_element: bytes  # p_i as that hop will see it
    hop_hash: bytes  # h_i as that hop will see it
    sym_key: bytes  # s_i


@dataclass(frozen=True)
class SenderPathPlan:
    """Everything a sender precomputes for one packet's forward path."""

    t_timestamp: int
    hops: tuple[PlanHop, ...]

    @property
    def entry_element(self) -> bytes:
        return self.hops[0].key_element

    @property
    def entry_hash(self) -> bytes:
        return self.hops[0].hop_hash

    @property
    def sym_keys(self) -> tuple[bytes, ...]:
        return tuple(hop.sym_key for hop in self.hops)

    @property
    def relay_node_indexes(self) -> tuple[int, ...]:
        return tuple(h.node_index for h in self.hops if h.node_index is not None)

    def wrap_payload(self, payload: bytes) -> bytes:
        """Layer the payload for injection at the first hop."""
        return layer_encrypt(payload, self.sym_keys, self.t_timestamp, ROLE_VOTE)

    def unwrap_ack(self, ack_payload: bytes) -> bytes:
        """Peel all layers off a received ack payload."""
        out = ack_payload
        for key in self.sym_keys:
            out = peel_layer(out, key, self.t_timestamp, ROLE_ACK)
        return out

    def expected_ack(self, payload: bytes) -> bytes:
        """The tag the exit hop should have produced for this payload."""
        return ack_tag(payload, self.hops[-1].sym_key, self.t_timestamp)


class PathPlanBuilder:
    """Incremental plan construction.

    The hash chain decides which node serves the next hop, and the chain
    itself depends on each hop's shared key, so callers alternate between
    reading `pending_hash` (to pick the node) and `add_hop`.  The terminal
    hop is added like any other, with node_index None.
    """

    def __init__(self, t_timestamp: int, rng: Random | None = None):
        self.t_timestamp = t_timestamp
        self._accum = Key(random_scalar(rng))
        self._element = encode_element(mult_base(self._accum))
        draw = rng.randbytes if rng else secrets.token_bytes
        self._hash = draw(NEXT_HOP_HASH_LEN)
        self._hops: list[PlanHop] = []

    @property
    def pending_hash(self) -> bytes:
        """The hop hash the next added hop will see."""
        return self._hash

    def add_hop(self, node_index: int | None, node_pub: bytes) -> None:
        s = derive_shared(node_pub, self._accum)
        b = blind_factor(self._element, s)
        self._hops.append(
            PlanHop(
                node_index=node_index,
                key_element=self._element,
                hop_hash=self._hash,
                sym_key=s,
            )
        )
        self._hash = next_hash(self._hash, s, self.t_timestamp)
        # p_{i+1} = (accum * b) * B: the public half of the next hop's key
        self._accum = Key(self._accum.scalar * b % GROUP_ORDER)
        self._element = encode_element(mult_base(self._accum))

    def finish(self) -> SenderPathPlan:
        if not self._hops:
            raise ValueError("plan needs at least the terminal hop")
        return SenderPathPlan(t_timestamp=self.t_timestamp, hops=tuple(self._hops))


def build_path_plan(
    relay_keys: list[tuple[int, bytes]],
    terminal_pub: bytes,
    t_timestamp: int,
    rng: Random | None = None,
) -> SenderPathPlan:
    """Plan a fixed path: relays in the given order, then the terminal hop.

    Most callers want hash-driven node selection and should drive
    PathPlanBuilder themselves; this wrapper exists for tests and for
    paths whose node sequence is already decided.
    """
    builder = PathPlanBuilder(t_timestamp, rng=rng)
    for node_index, pub in relay_keys:
        builder.add_hop(node_index, pub)
    builder.add_hop(None, terminal_pub)
    return builder.finish()
