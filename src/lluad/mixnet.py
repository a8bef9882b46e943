"""Voting round protocol: payload codec, hash-driven routing, shuffler
behaviour, server batch relay with tally, and reverse-path acks.

A round moves every packet through a fixed number of synchronized hops.
The relaying server never picks paths: each packet's next node is the
hop hash modulo the online-shuffler count, and only the sender can
predict the whole chain.  The ack phase walks the recorded flows
backwards, and a shuffler answers every flow that received no ack with
a cover ack, so dropping one ack cannot reveal which sender was hit.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict, defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random
from typing import Iterable, Mapping, Protocol, Sequence

from .curve import InvalidElement, Key
from .dnsmsg import DomainName, RecordKey, RecordType, UnsupportedType
from .mixcrypto import (
    KEY_ELEMENT_LEN,
    NEXT_HOP_HASH_LEN,
    PAYLOAD_LEN,
    ROLE_ACK,
    ROLE_VOTE,
    PathPlanBuilder,
    SenderPathPlan,
    ack_tag,
    derive_shared,
    peel_layer,
    transform_packet,
)

PACKET_LEN = KEY_ELEMENT_LEN + NEXT_HOP_HASH_LEN + PAYLOAD_LEN

FLAG_HASHED = 0x01
FLAG_FRAGMENT = 0x02
FLAG_DUMMY = 0x04

_BODY_LEN = PAYLOAD_LEN - 1
MAX_DIRECT_NAME_LEN = _BODY_LEN - 2  # dotted form, alongside the 2-byte type
DIGEST_LEN = 29
FRAGMENT_CHUNK_LEN = 27
MAX_FRAGMENTS = 15  # index and total each fit in a nibble
DIGEST_MEMORY_CAP = 4096  # a Voter's remembered digests, and its queued groups

DEFAULT_N_SHUFFLE = 10
# what a ROUND_START frame can carry: a one-byte hop count and a
# 16-bit bitmap length
MAX_N_SHUFFLE = 255
MAX_AVAILABILITY_LEN = 65_535


class InsufficientShufflers(Exception):
    """Too few online shufflers for paths to have enough distinct nodes."""


@dataclass(frozen=True)
class MixPacket:
    """One fixed-size unit of mix traffic.

    The same three fields travel in both directions and at every hop,
    so packet shape never betrays position along the path.
    """

    p: bytes  # key element
    h: bytes  # hop hash
    d: bytes  # payload

    def __post_init__(self):
        if len(self.p) != KEY_ELEMENT_LEN:
            raise ValueError("key element must be 32 bytes")
        if len(self.h) != NEXT_HOP_HASH_LEN:
            raise ValueError("hop hash must be 16 bytes")
        if len(self.d) != PAYLOAD_LEN:
            raise ValueError("payload must be 32 bytes")

    def to_bytes(self) -> bytes:
        return self.p + self.h + self.d

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MixPacket":
        if len(raw) != PACKET_LEN:
            raise ValueError(f"mix packet must be exactly {PACKET_LEN} bytes")
        return cls(raw[:32], raw[32:48], raw[48:])


def availability_bits(online: Iterable[int], total: int) -> bytes:
    """Bitstream with bit j set when shuffler j is online; MSB first."""
    bits = bytearray((total + 7) // 8)
    for j in online:
        if not 0 <= j < total:
            raise ValueError(f"shuffler index {j} outside registry of {total}")
        bits[j // 8] |= 0x80 >> (j % 8)
    return bytes(bits)


@dataclass(frozen=True)
class RoundContext:
    """Round parameters every participant derives routing from."""

    t_timestamp: int
    availability: bytes
    n_shuffle: int = DEFAULT_N_SHUFFLE

    def __post_init__(self):
        if not 0 <= self.t_timestamp < 2**64:
            raise ValueError("round id must fit an unsigned 64-bit field")
        if self.n_shuffle < 1:
            raise ValueError("need at least one shuffle hop")
        if self.n_shuffle > MAX_N_SHUFFLE:
            raise ValueError(f"at most {MAX_N_SHUFFLE} shuffle hops fit a round start")
        if len(self.availability) > MAX_AVAILABILITY_LEN:
            raise ValueError(
                f"availability bitmap over {MAX_AVAILABILITY_LEN} bytes"
                " does not fit a round start"
            )

    @classmethod
    def for_online(
        cls,
        t_timestamp: int,
        online: Iterable[int],
        total: int,
        n_shuffle: int = DEFAULT_N_SHUFFLE,
    ) -> "RoundContext":
        return cls(t_timestamp, availability_bits(online, total), n_shuffle)

    @cached_property
    def online_indexes(self) -> tuple[int, ...]:
        out = []
        for j in range(len(self.availability) * 8):
            if self.availability[j // 8] >> (7 - j % 8) & 1:
                out.append(j)
        return tuple(out)

    @property
    def active_count(self) -> int:
        return len(self.online_indexes)

    @property
    def can_run(self) -> bool:
        return self.active_count >= self.n_shuffle + 1


def hash_to_node(hop_hash: bytes, ctx: RoundContext) -> int:
    """The shuffler index a packet carrying this hop hash is routed to.

    A pure function of broadcast state, so sender, server, and every
    shuffler agree on it without coordination.
    """
    online = ctx.online_indexes
    if not online:
        raise InsufficientShufflers("no shufflers online")
    return online[int.from_bytes(hop_hash, "big") % len(online)]


def select_shufflers(
    t_timestamp: int,
    registry_digest: bytes,
    candidates: Iterable[int],
    count: int | None = None,
) -> tuple[int, ...]:
    """Deterministic public choice of the round's shuffling subset.

    Seeded by the round id and a digest of the registry so any client
    can recompute it; the relaying server gets no say in who mixes.
    """
    pool = sorted(candidates)
    if count is None or count >= len(pool):
        return tuple(pool)
    seed = hashlib.sha256(t_timestamp.to_bytes(8, "big") + registry_digest).digest()
    rng = Random(int.from_bytes(seed, "big"))
    return tuple(sorted(rng.sample(pool, count)))


# -- payload codec ---------------------------------------------------------


def _vote_cleartext(key: RecordKey) -> bytes:
    return int(key.rtype).to_bytes(2, "big") + key.name.dotted.encode("ascii")


def record_digest(key: RecordKey) -> bytes:
    """29-byte stand-in for records whose name is too long to vote in
    the clear."""
    return hashlib.sha256(_vote_cleartext(key)).digest()[:DIGEST_LEN]


def encode_vote_payload(key: RecordKey) -> bytes:
    """Direct form when the name fits, hashed stand-in otherwise."""
    raw = _vote_cleartext(key)
    if len(raw) <= _BODY_LEN:
        return bytes([0]) + raw + bytes(_BODY_LEN - len(raw))
    return bytes([FLAG_HASHED]) + record_digest(key) + bytes(2)


def encode_dummy_payload(rng: Random) -> bytes:
    return bytes([FLAG_DUMMY]) + rng.randbytes(_BODY_LEN)


def fragment_payloads(key: RecordKey, rng: Random) -> list[bytes]:
    """Split a record's cleartext into chunked payloads for reassembly.

    Sent after the server asks about a digest it cannot resolve.  All
    pieces share one random id and must land in the same round.
    """
    raw = _vote_cleartext(key)
    chunks = [
        raw[i : i + FRAGMENT_CHUNK_LEN] for i in range(0, len(raw), FRAGMENT_CHUNK_LEN)
    ]
    if len(chunks) > MAX_FRAGMENTS:
        raise ValueError("record too long to fragment")
    frag_id = rng.randrange(1 << 16)
    out = []
    for index, chunk in enumerate(chunks):
        body = (
            frag_id.to_bytes(2, "big")
            + bytes([(index << 4) | len(chunks)])
            + chunk.ljust(FRAGMENT_CHUNK_LEN, b"\0")
        )
        out.append(bytes([FLAG_FRAGMENT]) + body + bytes(1))
    return out


@dataclass(frozen=True)
class DirectVote:
    key: RecordKey


@dataclass(frozen=True)
class HashedVote:
    digest: bytes


@dataclass(frozen=True)
class FragmentPiece:
    frag_id: int
    index: int
    total: int
    chunk: bytes


@dataclass(frozen=True)
class DummyVote:
    pass


DecodedPayload = DirectVote | HashedVote | FragmentPiece | DummyVote


def parse_record_cleartext(raw: bytes) -> RecordKey | None:
    if len(raw) < 3:
        return None
    try:
        rtype = RecordType.from_code(int.from_bytes(raw[:2], "big"))
        name = DomainName.from_text(raw[2:].decode("ascii"))
    except (UnsupportedType, UnicodeDecodeError, ValueError):
        return None
    return RecordKey(name, rtype)


def decode_payload(payload: bytes) -> DecodedPayload | None:
    """Classify a decrypted payload; None means undecodable noise."""
    if len(payload) != PAYLOAD_LEN:
        raise ValueError("payload must be 32 bytes")
    flag = payload[0]
    if flag == FLAG_DUMMY:
        return DummyVote()
    if flag == FLAG_FRAGMENT:
        index, total = payload[3] >> 4, payload[3] & 0x0F
        if total == 0 or index >= total or payload[31] != 0:
            return None
        frag_id = int.from_bytes(payload[1:3], "big")
        return FragmentPiece(frag_id, index, total, payload[4:31])
    if flag == FLAG_HASHED:
        if payload[30:] != bytes(2):
            return None
        return HashedVote(payload[1:30])
    if flag == 0:
        key = parse_record_cleartext(payload[1:].rstrip(b"\0"))
        return DirectVote(key) if key is not None else None
    return None


# -- sender side -----------------------------------------------------------


@dataclass(frozen=True)
class PlannedVote:
    """A packet as injected, plus everything needed to verify its ack."""

    payload: bytes
    packet: MixPacket
    plan: SenderPathPlan


def plan_vote_packet(
    payload: bytes,
    ctx: RoundContext,
    shuffler_pubs: Mapping[int, bytes],
    terminal_pub: bytes,
    rng: Random | None = None,
) -> PlannedVote:
    """Plan one packet's path: each hop hash picks the next node."""
    if not ctx.can_run:
        raise InsufficientShufflers(
            f"need {ctx.n_shuffle + 1} online shufflers, have {ctx.active_count}"
        )
    builder = PathPlanBuilder(ctx.t_timestamp, rng=rng)
    for _ in range(ctx.n_shuffle):
        j = hash_to_node(builder.pending_hash, ctx)
        builder.add_hop(j, shuffler_pubs[j])
    builder.add_hop(None, terminal_pub)
    plan = builder.finish()
    packet = MixPacket(plan.entry_element, plan.entry_hash, plan.wrap_payload(payload))
    return PlannedVote(payload=payload, packet=packet, plan=plan)


def select_vote_payloads(
    vote_keys: Sequence[RecordKey],
    quota: int,
    rng: Random,
    priority_payloads: Sequence[bytes] = (),
) -> list[bytes]:
    """Exactly `quota` payloads: requested cleartext fragments first,
    then a uniform sample of the buffered votes, then dummy fill."""
    payloads = [bytes(p) for p in priority_payloads][:quota]
    room = quota - len(payloads)
    keys = list(vote_keys)
    if len(keys) > room:
        keys = rng.sample(keys, room)
    payloads.extend(encode_vote_payload(k) for k in keys)
    while len(payloads) < quota:
        payloads.append(encode_dummy_payload(rng))
    rng.shuffle(payloads)
    return payloads


def client_submit(
    vote_keys: Sequence[RecordKey],
    ctx: RoundContext,
    quota: int,
    shuffler_pubs: Mapping[int, bytes],
    terminal_pub: bytes,
    rng: Random,
    priority_payloads: Sequence[bytes] = (),
) -> list[PlannedVote]:
    """One independently routed packet per selected payload."""
    payloads = select_vote_payloads(vote_keys, quota, rng, priority_payloads)
    return [
        plan_vote_packet(p, ctx, shuffler_pubs, terminal_pub, rng) for p in payloads
    ]


class AckOutcome(Enum):
    VERIFIED = "verified"
    TAMPERED = "tampered"  # an ack arrived but its tag did not check out
    MISSING = "missing"  # nothing came back for the packet


@dataclass(frozen=True)
class MisbehaviorReport:
    """A sender's claim that one of its packets was not delivered
    intact, naming the path it had chosen."""

    t_timestamp: int
    path: tuple[int, ...]


def verify_round_acks(
    sent: Sequence[PlannedVote], acks: Iterable[MixPacket]
) -> tuple[list[AckOutcome], list[MisbehaviorReport]]:
    """Match acks to sent packets by entry identifiers and check tags."""
    by_ident = {(v.plan.entry_element, v.plan.entry_hash): i for i, v in enumerate(sent)}
    outcomes = [AckOutcome.MISSING] * len(sent)
    for ack in acks:
        i = by_ident.get((ack.p, ack.h))
        if i is None or outcomes[i] is AckOutcome.VERIFIED:
            continue
        vote = sent[i]
        tag = vote.plan.unwrap_ack(ack.d)
        if tag == vote.plan.expected_ack(vote.payload):
            outcomes[i] = AckOutcome.VERIFIED
        else:
            outcomes[i] = AckOutcome.TAMPERED
    reports = [
        MisbehaviorReport(sent[i].plan.t_timestamp, sent[i].plan.relay_node_indexes)
        for i, outcome in enumerate(outcomes)
        if outcome is not AckOutcome.VERIFIED
    ]
    return outcomes, reports


class Voter:
    """The sender side of a client's rounds, with no I/O: it plans each
    round's packets, remembers its hashed votes, spells each one out
    once when the server asks for it, and checks its own packets' acks."""

    def __init__(
        self, quota: int, shuffler_pubs: Mapping[int, bytes], server_pub: bytes, rng: Random
    ):
        self.quota = quota
        self.shuffler_pubs = shuffler_pubs
        self.server_pub = server_pub
        self._rng = rng
        self.sent: list[PlannedVote] = []  # this round's, until its acks are checked
        self._hashed_sent: OrderedDict[bytes, RecordKey] = OrderedDict()
        self.pending: list[list[bytes]] = []  # whole fragment groups, oldest first

    def submit(self, vote_keys: Sequence[RecordKey] | None, ctx: RoundContext):
        """This round's packets: whole pending groups while they fit, then
        the votes.  None sits the round out: no packets, no acks due."""
        self.sent = []
        if vote_keys is None:
            return []
        priority: list[bytes] = []
        while self.pending and len(priority) + len(self.pending[0]) <= self.quota:
            priority += self.pending.pop(0)
        self.sent = client_submit(
            vote_keys, ctx, self.quota, self.shuffler_pubs, self.server_pub, self._rng, priority
        )
        by_payload = {encode_vote_payload(k): k for k in vote_keys}  # deterministic
        for vote in self.sent:  # only a vote is hashed, never a fragment or dummy
            if vote.payload[0] == FLAG_HASHED:
                self._hashed_sent[vote.payload[1 : 1 + DIGEST_LEN]] = by_payload[vote.payload]
        while len(self._hashed_sent) > DIGEST_MEMORY_CAP:
            self._hashed_sent.popitem(last=False)
        return [vote.packet for vote in self.sent]

    def check_acks(self, acks: Iterable[MixPacket]):
        """verify_round_acks on this round's packets, then forget them."""
        outcomes = verify_round_acks(self.sent, acks)
        self.sent = []
        return outcomes

    def spell_out(self, digests: Iterable[bytes]) -> None:
        """Queue the fragment group of each remembered digest named, up to
        DIGEST_MEMORY_CAP groups; past the cap a digest stays remembered."""
        for digest in digests:
            if len(self.pending) >= DIGEST_MEMORY_CAP:
                return
            key = self._hashed_sent.pop(digest, None)
            if key is not None:
                pieces = fragment_payloads(key, self._rng)
                if len(pieces) <= self.quota:  # a larger group never arrives whole
                    self.pending.append(pieces)


class ReportLog:
    """Correlates misbehavior reports across rounds.

    A shuffler named in at least `threshold` reports within the sliding
    window of recent rounds gets flagged for operator attention."""

    def __init__(self, threshold: int = 5, window_rounds: int = 24):
        self.threshold = threshold
        self.window_rounds = window_rounds
        self._entries: deque[tuple[int, MisbehaviorReport]] = deque()

    def add(self, round_index: int, report: MisbehaviorReport) -> None:
        """File a report; rounds come in order, so old ones leave the front."""
        self._entries.append((round_index, report))
        cutoff = round_index - self.window_rounds
        while self._entries and self._entries[0][0] <= cutoff:
            self._entries.popleft()

    def flagged(self, current_round: int) -> set[int]:
        cutoff = current_round - self.window_rounds
        counts: Counter[int] = Counter()
        for r, report in self._entries:
            if r > cutoff:
                counts.update(set(report.path))
        return {j for j, c in counts.items() if c >= self.threshold}


# -- shuffler side ---------------------------------------------------------


@dataclass
class _FlowEntry:
    inbound_p: bytes
    inbound_h: bytes
    sym_key: bytes


class ShufflerNode:
    """One client acting as a mix node: unwrap, remember flows, shuffle.

    Flow tables live for one round.  A node can serve several hops in
    the same round (hash chains may revisit it), so tables stack in hop
    order and the ack phase pops them in reverse.  The first batch of a
    new round id drops any tables a broken-off round left behind.
    """

    def __init__(self, shuffler_index: int, k_priv: int, rng: Random | None = None):
        self.shuffler_index = shuffler_index
        self._key = Key(k_priv)
        self._rng = rng or Random()
        self._flow_stack: list[dict[tuple[bytes, bytes], _FlowEntry]] = []
        self._round: int | None = None  # the round id the stacked tables belong to
        self.invalid_packets = 0
        self.cover_acks_sent = 0
        self.unknown_acks = 0

    def process_batch(self, batch: Sequence[MixPacket], t_timestamp: int) -> list[MixPacket]:
        if t_timestamp != self._round:
            self._round, self._flow_stack = t_timestamp, []
        table: dict[tuple[bytes, bytes], _FlowEntry] = {}
        out = []
        for pkt in batch:
            try:
                p_next, h_next, d_next, s = transform_packet(
                    pkt.p, pkt.h, pkt.d, self._key, t_timestamp
                )
            except InvalidElement:
                self.invalid_packets += 1
                continue
            table[(p_next, h_next)] = _FlowEntry(pkt.p, pkt.h, s)
            out.append(MixPacket(p_next, h_next, d_next))
        self._flow_stack.append(table)
        self._rng.shuffle(out)
        return out

    def process_acks(self, acks: Sequence[MixPacket], t_timestamp: int) -> list[MixPacket]:
        """Route acks one hop backwards; cover every flow without one."""
        if t_timestamp != self._round or not self._flow_stack:
            self.unknown_acks += len(acks)
            return []
        table = self._flow_stack.pop()
        consumed: set[tuple[bytes, bytes]] = set()
        out = []
        for ack in acks:
            entry = table.get((ack.p, ack.h))
            if entry is None or (ack.p, ack.h) in consumed:
                self.unknown_acks += 1
                continue
            consumed.add((ack.p, ack.h))
            out.append(
                MixPacket(
                    entry.inbound_p,
                    entry.inbound_h,
                    peel_layer(ack.d, entry.sym_key, t_timestamp, ROLE_ACK),
                )
            )
        for ident, entry in table.items():
            if ident not in consumed:
                out.append(
                    MixPacket(entry.inbound_p, entry.inbound_h, self._rng.randbytes(PAYLOAD_LEN))
                )
                self.cover_acks_sent += 1
        self._rng.shuffle(out)
        return out


# -- server side -----------------------------------------------------------


class RoundTransport(Protocol):
    """How the round machine reaches shufflers; in-process for tests and
    simulation, framed sockets in the daemon."""

    def exchange(
        self,
        assignments: Mapping[int, Sequence[MixPacket]],
        phase: str,
        hop: int,
        t_timestamp: int,
    ) -> dict[int, list[MixPacket]]: ...


class LocalTransport:
    """Direct method calls on shuffler objects, one batch per node."""

    def __init__(self, nodes: Mapping[int, ShufflerNode]):
        self.nodes = dict(nodes)

    def exchange(self, assignments, phase, hop, t_timestamp):
        out = {}
        for j, batch in assignments.items():
            node = self.nodes[j]
            if phase == "vote":
                out[j] = node.process_batch(batch, t_timestamp)
            else:
                out[j] = node.process_acks(batch, t_timestamp)
        return out


def reassemble_cleartext(
    pieces: Iterable[FragmentPiece],
) -> tuple[list[RecordKey], int, int]:
    """Group fragment pieces by id and rebuild their records.

    Returns (records, ambiguous-or-unparseable id count, incomplete id
    count).  Ambiguous ids - two senders colliding on the same random
    id with different content - are dropped whole.
    """
    chunks: dict[int, dict[int, bytes]] = {}
    totals: dict[int, int] = {}
    poisoned: set[int] = set()
    for piece in pieces:
        gid = piece.frag_id
        if gid in poisoned:
            continue
        total = totals.setdefault(gid, piece.total)
        group = chunks.setdefault(gid, {})
        conflicting = piece.index in group and group[piece.index] != piece.chunk
        if piece.total != total or conflicting:
            # two senders collided on the same random id
            poisoned.add(gid)
            continue
        group[piece.index] = piece.chunk

    records = []
    discarded = 0
    incomplete = 0
    for gid, group in chunks.items():
        if gid in poisoned:
            discarded += 1
            continue
        if len(group) != totals[gid]:
            incomplete += 1
            continue
        raw = b"".join(group[i] for i in range(totals[gid])).rstrip(b"\0")
        key = parse_record_cleartext(raw)
        if key is None:
            discarded += 1
        else:
            records.append(key)
    return records, discarded, incomplete


@dataclass
class RoundResult:
    t_timestamp: int
    tally: Counter
    accepted: dict
    truncated: dict
    dummy_count: int
    undecodable: int
    unknown_digests: tuple[bytes, ...]
    reassembled: tuple[RecordKey, ...]
    discarded_fragments: int
    incomplete_fragments: int
    dropped_per_hop: dict[int, int]
    acks: dict


class RoundServer:
    """Relay-and-tally side of a voting round.

    Holds the long-lived digest table that lets hashed votes count once
    their cleartext has been learned, either from the list itself or
    from fragment reassembly.
    """

    def __init__(
        self,
        k_priv: int,
        quota: int,
        transport: RoundTransport,
        known_records: Iterable[RecordKey] = (),
    ):
        if quota < 1:
            raise ValueError("quota must be positive")
        self._key = Key(k_priv)
        self.quota = quota
        self.transport = transport
        self.digest_table: dict[bytes, RecordKey] = {
            record_digest(k): k for k in known_records
        }
        self.stray_acks = 0

    def learn_record(self, key: RecordKey) -> None:
        self.digest_table[record_digest(key)] = key

    def run_round(
        self, ctx: RoundContext, submissions: Mapping[object, Sequence[MixPacket]]
    ) -> RoundResult:
        if not ctx.can_run:
            raise InsufficientShufflers(
                f"need {ctx.n_shuffle + 1} online shufflers, have {ctx.active_count}"
            )
        t = ctx.t_timestamp

        # submission stage: enforce quota, route by hop hash
        accepted: dict = {}
        truncated: dict = {}
        flows: list[dict[tuple[bytes, bytes], object]] = []
        stage0: dict[tuple[bytes, bytes], object] = {}
        assignments: dict[int, list[MixPacket]] = defaultdict(list)
        for client, batch in submissions.items():
            kept = list(batch)[: self.quota]
            truncated[client] = len(batch) - len(kept)
            accepted[client] = len(kept)
            for pkt in kept:
                stage0[(pkt.p, pkt.h)] = client
                assignments[hash_to_node(pkt.h, ctx)].append(pkt)
        flows.append(stage0)

        # forward phase: n_shuffle synchronized hops
        polled: list[set[int]] = [set()]  # stage 0 has no shufflers
        dropped_per_hop: dict[int, int] = {}
        in_flight = sum(accepted.values())
        final_packets: list[MixPacket] = []
        for hop in range(1, ctx.n_shuffle + 1):
            polled.append(set(assignments))
            returned = self.transport.exchange(dict(assignments), "vote", hop, t)
            stage: dict[tuple[bytes, bytes], object] = {}
            assignments = defaultdict(list)
            count = 0
            for j, batch in returned.items():
                for pkt in batch:
                    stage[(pkt.p, pkt.h)] = j
                    count += 1
                    if hop < ctx.n_shuffle:
                        assignments[hash_to_node(pkt.h, ctx)].append(pkt)
                    else:
                        final_packets.append(pkt)
            if count < in_flight:
                dropped_per_hop[hop] = in_flight - count
            in_flight = count
            flows.append(stage)

        # exit: peel the terminal layer and classify payloads
        exit_entries = []
        exit_drops = 0
        for pkt in final_packets:
            try:
                s = derive_shared(pkt.p, self._key)
            except InvalidElement:
                exit_drops += 1
                continue
            exit_entries.append((pkt, peel_layer(pkt.d, s, t, ROLE_VOTE), s))
        if exit_drops:
            dropped_per_hop[ctx.n_shuffle + 1] = exit_drops

        tally: Counter = Counter()
        dummy_count = 0
        undecodable = 0
        unknown_digests: list[bytes] = []
        pieces: list[FragmentPiece] = []
        for _, payload, _ in exit_entries:
            decoded = decode_payload(payload)
            if decoded is None:
                undecodable += 1
            elif isinstance(decoded, DummyVote):
                dummy_count += 1
            elif isinstance(decoded, DirectVote):
                tally[decoded.key] += 1
            elif isinstance(decoded, HashedVote):
                known = self.digest_table.get(decoded.digest)
                if known is not None:
                    tally[known] += 1
                else:
                    unknown_digests.append(decoded.digest)
            else:
                pieces.append(decoded)
        reassembled, discarded_frags, incomplete_frags = reassemble_cleartext(pieces)
        for key in reassembled:
            self.learn_record(key)
            tally[key] += 1

        acks = self._run_ack_phase(ctx, flows, polled, exit_entries)
        return RoundResult(
            t_timestamp=t,
            tally=tally,
            accepted=accepted,
            truncated=truncated,
            dummy_count=dummy_count,
            undecodable=undecodable,
            unknown_digests=tuple(dict.fromkeys(unknown_digests)),
            reassembled=tuple(reassembled),
            discarded_fragments=discarded_frags,
            incomplete_fragments=incomplete_frags,
            dropped_per_hop=dropped_per_hop,
            acks=acks,
        )

    def _run_ack_phase(self, ctx, flows, polled, exit_entries):
        """Walk every delivered payload's flow backwards to its sender."""
        t = ctx.t_timestamp
        assignments: dict[int, list[MixPacket]] = defaultdict(list)
        acks_by_client: dict = defaultdict(list)
        for pkt, payload, s in exit_entries:
            origin = flows[ctx.n_shuffle].get((pkt.p, pkt.h))
            if origin is None:  # pragma: no cover - exit packets come from hop N
                continue
            # the terminal hop contributes its own cipher layer, so the
            # sender peels one layer per hop plus this one
            tag = peel_layer(ack_tag(payload, s, t), s, t, ROLE_ACK)
            assignments[origin].append(MixPacket(pkt.p, pkt.h, tag))
        for stage in range(ctx.n_shuffle, 0, -1):
            # poll exactly the nodes that served this hop, so their
            # stacked flow tables pop in reverse order and cover acks
            # come out even for batches that lost everything
            for j in polled[stage]:
                assignments.setdefault(j, [])
            returned = self.transport.exchange(dict(assignments), "ack", stage, t)
            assignments = defaultdict(list)
            for _, batch in returned.items():
                for ack in batch:
                    origin = flows[stage - 1].get((ack.p, ack.h))
                    if origin is None:
                        self.stray_acks += 1
                    elif stage - 1 == 0:
                        acks_by_client[origin].append(ack)
                    else:
                        assignments[origin].append(ack)
        return dict(acks_by_client)
