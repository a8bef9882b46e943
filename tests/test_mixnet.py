"""Round protocol tests: routing, payload codec, conservation through
full rounds, quota enforcement, ack verification, and fault injection."""

import random
from collections import Counter
from itertools import permutations

import pytest
from scipy import stats

from lluad.curve import mult_base, random_scalar, encode_element
from lluad.dnsmsg import DomainName, RecordKey, RecordType
from lluad.mixcrypto import transform_packet
from lluad.mixnet import (
    PACKET_LEN,
    AckOutcome,
    DirectVote,
    DummyVote,
    FragmentPiece,
    HashedVote,
    InsufficientShufflers,
    LocalTransport,
    MixPacket,
    ReportLog,
    RoundContext,
    RoundServer,
    ShufflerNode,
    availability_bits,
    client_submit,
    decode_payload,
    encode_dummy_payload,
    encode_vote_payload,
    fragment_payloads,
    hash_to_node,
    plan_vote_packet,
    reassemble_cleartext,
    record_digest,
    select_shufflers,
    select_vote_payloads,
    verify_round_acks,
)


def key(text, rtype=RecordType.A):
    return RecordKey(DomainName.from_text(text), rtype)


def keypair(rng):
    priv = random_scalar(rng)
    return priv, encode_element(mult_base(priv))


class MixWorld:
    """A registry of shufflers plus the terminal server, all in-process."""

    def __init__(self, n_shufflers, n_shuffle, quota, seed, online=None):
        self.rng = random.Random(seed)
        self.privs, self.pubs = {}, {}
        for j in range(n_shufflers):
            priv, pub = keypair(self.rng)
            self.privs[j], self.pubs[j] = priv, pub
        self.server_priv, self.server_pub = keypair(self.rng)
        self.nodes = {
            j: ShufflerNode(j, self.privs[j], random.Random(seed * 7 + j))
            for j in range(n_shufflers)
        }
        self.transport = LocalTransport(self.nodes)
        self.server = RoundServer(self.server_priv, quota, self.transport)
        if online is None:
            online = range(n_shufflers)
        self.ctx = RoundContext.for_online(1000, online, n_shufflers, n_shuffle)
        self.quota = quota

    def submit(self, client_votes: dict, priority=()):
        """client_votes: client id -> list of RecordKeys."""
        sent, batches = {}, {}
        for client, votes in client_votes.items():
            planned = client_submit(
                votes,
                self.ctx,
                self.quota,
                self.pubs,
                self.server_pub,
                self.rng,
                priority_payloads=priority if client == "frag" else (),
            )
            sent[client] = planned
            batches[client] = [v.packet for v in planned]
        return sent, batches


# -- routing ---------------------------------------------------------------


def test_availability_bits_round_trip():
    ctx = RoundContext.for_online(5, [0, 3, 9, 15], 16)
    assert ctx.availability == bytes([0b10010000, 0b01000001])
    assert ctx.online_indexes == (0, 3, 9, 15)
    assert ctx.active_count == 4
    with pytest.raises(ValueError):
        availability_bits([16], 16)


def test_hash_to_node_zero_hash_picks_first_online():
    ctx = RoundContext.for_online(1, range(5), 5)
    assert hash_to_node(bytes(16), ctx) == 0
    # first *online*, not index zero
    ctx = RoundContext.for_online(1, [2, 3, 4], 5)
    assert hash_to_node(bytes(16), ctx) == 2


def test_hash_to_node_uniform_over_online_set():
    ctx = RoundContext.for_online(1, [1, 4, 5, 8, 11, 12, 19], 20)
    rng = random.Random(13)
    counts = Counter(hash_to_node(rng.randbytes(16), ctx) for _ in range(100_000))
    assert set(counts) == set(ctx.online_indexes)
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.01


def test_select_shufflers_is_deterministic_and_sized():
    picked = select_shufflers(77, b"digest", range(100), 30)
    assert picked == select_shufflers(77, b"digest", range(100), 30)
    assert len(picked) == 30 and set(picked) <= set(range(100))
    assert picked != select_shufflers(78, b"digest", range(100), 30)
    assert select_shufflers(77, b"digest", range(10), None) == tuple(range(10))


# -- payload codec -----------------------------------------------------------


def test_direct_vote_payload_round_trip():
    for k in (key("a.io"), key("x" * 25 + ".org", RecordType.AAAA), key("c.no", RecordType.CNAME)):
        payload = encode_vote_payload(k)
        assert len(payload) == 32 and payload[0] == 0
        assert decode_payload(payload) == DirectVote(k)


def test_name_length_boundary_switches_to_hashed():
    fits = key("a" * 26 + ".ab")  # 29 chars dotted
    over = key("a" * 27 + ".ab")
    assert decode_payload(encode_vote_payload(fits)) == DirectVote(fits)
    decoded = decode_payload(encode_vote_payload(over))
    assert decoded == HashedVote(record_digest(over))
    assert len(record_digest(over)) == 29


def test_dummy_payload_decodes_as_dummy():
    rng = random.Random(3)
    assert decode_payload(encode_dummy_payload(rng)) == DummyVote()


def test_garbage_payloads_are_undecodable():
    assert decode_payload(bytes([0x08]) + bytes(31)) is None  # unknown flag
    assert decode_payload(bytes([0x00]) + bytes(31)) is None  # empty name
    bad_frag = bytes([0x02, 0, 1, 0x40]) + bytes(28)  # index 4 of 0
    assert decode_payload(bad_frag) is None
    assert decode_payload(bytes([0x00, 0, 1]) + b"UPPER!.bad" + bytes(19)) is None


def test_fragment_round_trip_three_pieces():
    rng = random.Random(5)
    k = key("a" * 30 + "." + "b" * 25 + ".com")  # 60-char name, 62-byte cleartext
    payloads = fragment_payloads(k, rng)
    assert len(payloads) == 3
    pieces = [decode_payload(p) for p in payloads]
    assert all(isinstance(p, FragmentPiece) for p in pieces)
    assert len({p.frag_id for p in pieces}) == 1
    records, discarded, incomplete = reassemble_cleartext(pieces)
    assert records == [k] and discarded == 0 and incomplete == 0


def test_interleaved_fragments_with_distinct_ids_both_reassemble():
    rng = random.Random(6)
    k1 = key("d" * 40 + ".net")
    k2 = key("e" * 40 + ".org", RecordType.AAAA)
    p1 = [decode_payload(p) for p in fragment_payloads(k1, rng)]
    p2 = [decode_payload(p) for p in fragment_payloads(k2, rng)]
    assert p1[0].frag_id != p2[0].frag_id
    mixed = [p1[0], p2[1], p1[1], p2[0]]
    records, discarded, incomplete = reassemble_cleartext(mixed)
    assert set(records) == {k1, k2}
    assert (discarded, incomplete) == (0, 0)


def test_fragment_id_collision_discards_both_sets():
    rng = random.Random(7)
    k1, k2 = key("f" * 40 + ".net"), key("g" * 40 + ".net")
    p1 = [decode_payload(p) for p in fragment_payloads(k1, rng)]
    p2 = [decode_payload(p) for p in fragment_payloads(k2, rng)]
    forged = [FragmentPiece(p1[0].frag_id, p.index, p.total, p.chunk) for p in p2]
    records, discarded, _ = reassemble_cleartext(p1 + forged)
    assert records == [] and discarded == 1


def test_incomplete_fragment_set_discarded_silently():
    rng = random.Random(8)
    pieces = [decode_payload(p) for p in fragment_payloads(key("h" * 40 + ".net"), rng)]
    records, discarded, incomplete = reassemble_cleartext(pieces[:-1])
    assert records == [] and discarded == 0 and incomplete == 1


# -- sender planning ---------------------------------------------------------


def test_planned_route_matches_server_side_routing():
    world = MixWorld(n_shufflers=8, n_shuffle=4, quota=1, seed=21)
    payload = encode_vote_payload(key("route.example"))
    vote = plan_vote_packet(payload, world.ctx, world.pubs, world.server_pub, world.rng)
    pkt = vote.packet
    for expected_node in vote.plan.relay_node_indexes:
        j = hash_to_node(pkt.h, world.ctx)
        assert j == expected_node
        p, h, d, _ = transform_packet(pkt.p, pkt.h, pkt.d, world.privs[j], world.ctx.t_timestamp)
        pkt = MixPacket(p, h, d)
    from lluad.mixcrypto import derive_shared, peel_layer

    s = derive_shared(pkt.p, world.server_priv)
    assert peel_layer(pkt.d, s, world.ctx.t_timestamp) == payload


def test_plan_rejects_too_few_shufflers():
    world = MixWorld(n_shufflers=4, n_shuffle=4, quota=1, seed=22)
    with pytest.raises(InsufficientShufflers):
        plan_vote_packet(bytes(32), world.ctx, world.pubs, world.server_pub, world.rng)


def test_client_submit_pads_and_truncates_to_quota():
    world = MixWorld(n_shufflers=6, n_shuffle=2, quota=10, seed=23)

    def kinds(planned):
        return Counter(type(decode_payload(v.payload)).__name__ for v in planned)

    three = world.submit({"c": [key(f"k{i}.example") for i in range(3)]})[0]["c"]
    assert len(three) == 10
    assert kinds(three) == {"DirectVote": 3, "DummyVote": 7}

    none = world.submit({"c": []})[0]["c"]
    assert kinds(none) == {"DummyVote": 10}

    fifteen = world.submit({"c": [key(f"k{i}.example") for i in range(15)]})[0]["c"]
    assert kinds(fifteen) == {"DirectVote": 10}


def test_client_submit_sampling_is_roughly_uniform():
    rng = random.Random(24)
    votes = [key(f"k{i}.example") for i in range(8)]
    wanted = {encode_vote_payload(k): k for k in votes}
    counts = Counter()
    trials = 400
    for _ in range(trials):
        payloads = select_vote_payloads(votes, 4, rng)
        counts.update(wanted[p] for p in payloads)
    # each key lands in the sample with probability 1/2
    _, p = stats.chisquare([counts[k] for k in votes])
    assert p > 0.01
    assert sum(counts.values()) == trials * 4


def test_priority_payloads_take_slots_first():
    world = MixWorld(n_shufflers=6, n_shuffle=2, quota=6, seed=25)
    frags = fragment_payloads(key("i" * 40 + ".net"), world.rng)
    sent, _ = world.submit(
        {"frag": [key(f"k{i}.example") for i in range(10)]}, priority=frags
    )
    decoded = [decode_payload(v.payload) for v in sent["frag"]]
    assert sum(isinstance(d, FragmentPiece) for d in decoded) == len(frags)
    assert sum(isinstance(d, DirectVote) for d in decoded) == 6 - len(frags)


# -- shuffler behaviour ------------------------------------------------------


def make_packets(n, node_pub, rng):
    """Packets all addressed to one known node key, one hop deep."""
    out = []
    for _ in range(n):
        from lluad.mixcrypto import build_path_plan

        plan = build_path_plan([(0, node_pub)], node_pub, 9, rng=rng)
        out.append(MixPacket(plan.entry_element, plan.entry_hash, plan.wrap_payload(rng.randbytes(32))))
    return out


def test_node_transform_matches_direct_computation():
    rng = random.Random(31)
    priv, pub = keypair(rng)
    node = ShufflerNode(0, priv, random.Random(32))
    batch = make_packets(5, pub, rng)
    out = node.process_batch(batch, 9)
    expected = set()
    for pkt in batch:
        p, h, d, _ = transform_packet(pkt.p, pkt.h, pkt.d, priv, 9)
        expected.add((p, h, d))
    assert {(o.p, o.h, o.d) for o in out} == expected
    for before, after in zip(batch, sorted(out, key=lambda o: o.p)):
        assert before.p != after.p and before.h != after.h and before.d != after.d


def test_node_drops_invalid_elements():
    rng = random.Random(33)
    priv, pub = keypair(rng)
    node = ShufflerNode(0, priv, random.Random(34))
    batch = make_packets(2, pub, rng)
    bogus = MixPacket(bytes(32), rng.randbytes(16), rng.randbytes(32))  # low-order
    out = node.process_batch(batch + [bogus], 9)
    assert len(out) == 2
    assert node.invalid_packets == 1


def test_shuffle_permutation_is_uniform():
    rng = random.Random(35)
    priv, pub = keypair(rng)
    node = ShufflerNode(0, priv, random.Random(36))
    batch = make_packets(4, pub, rng)
    base = node.process_batch(batch, 9)
    order = {((o.p, o.h)): i for i, o in enumerate(sorted(base, key=lambda o: o.p))}
    perm_index = {perm: i for i, perm in enumerate(permutations(range(4)))}
    counts = Counter()
    for _ in range(480):
        out = node.process_batch(batch, 9)
        counts[perm_index[tuple(order[(o.p, o.h)] for o in out)]] += 1
    assert len(counts) == 24
    _, p = stats.chisquare([counts[i] for i in range(24)])
    assert p > 0.01


# -- full rounds -------------------------------------------------------------


class SizeCheckingTransport:
    """Asserts the constant-size invariant on every relayed packet."""

    def __init__(self, inner):
        self.inner = inner
        self.packets_seen = 0

    def exchange(self, assignments, phase, hop, t_timestamp):
        for batch in assignments.values():
            for pkt in batch:
                assert len(pkt.to_bytes()) == PACKET_LEN
                self.packets_seen += 1
        out = self.inner.exchange(assignments, phase, hop, t_timestamp)
        for batch in out.values():
            for pkt in batch:
                assert len(pkt.to_bytes()) == PACKET_LEN
                self.packets_seen += 1
        return out


def test_small_round_end_to_end():
    world = MixWorld(n_shufflers=6, n_shuffle=3, quota=3, seed=41)
    world.server.transport = SizeCheckingTransport(world.transport)
    votes = {
        "alice": [key("one.example"), key("two.example")],
        "bob": [key("two.example")],
        "carol": [],
    }
    sent, batches = world.submit(votes)
    result = world.server.run_round(world.ctx, batches)

    assert result.tally == Counter({key("two.example"): 2, key("one.example"): 1})
    assert result.dummy_count == 9 - 3
    assert result.undecodable == 0
    assert result.dropped_per_hop == {}
    assert sum(result.accepted.values()) == 9
    for client, planned in sent.items():
        outcomes, reports = verify_round_acks(planned, result.acks[client])
        assert outcomes == [AckOutcome.VERIFIED] * 3
        assert reports == []
    assert world.server.transport.packets_seen > 0


def test_minimal_round_single_everything():
    world = MixWorld(n_shufflers=2, n_shuffle=1, quota=1, seed=42)
    sent, batches = world.submit({"c": [key("solo.example")]})
    result = world.server.run_round(world.ctx, batches)
    assert result.tally == Counter({key("solo.example"): 1})
    outcomes, _ = verify_round_acks(sent["c"], result.acks["c"])
    assert outcomes == [AckOutcome.VERIFIED]


def test_round_rejects_insufficient_shufflers():
    world = MixWorld(n_shufflers=3, n_shuffle=3, quota=1, seed=43)
    with pytest.raises(InsufficientShufflers):
        world.server.run_round(world.ctx, {})


def test_quota_truncates_adversarial_batch():
    world = MixWorld(n_shufflers=6, n_shuffle=2, quota=3, seed=44)
    sent, batches = world.submit({"honest": [key("h.example")]})
    greedy_votes = [key(f"greedy{i}.example") for i in range(9)]
    greedy = [
        plan_vote_packet(
            encode_vote_payload(k), world.ctx, world.pubs, world.server_pub, world.rng
        )
        for k in greedy_votes
    ]
    batches["greedy"] = [v.packet for v in greedy]
    result = world.server.run_round(world.ctx, batches)
    assert result.accepted["greedy"] == 3
    assert result.truncated["greedy"] == 6
    greedy_tallied = sum(result.tally[k] for k in greedy_votes)
    assert greedy_tallied == 3
    # honest client unaffected
    assert result.tally[key("h.example")] == 1
    outcomes, _ = verify_round_acks(sent["honest"], result.acks["honest"])
    assert outcomes.count(AckOutcome.VERIFIED) == 3


def test_hashed_vote_learns_via_fragments_then_tallies():
    long_key = key("j" * 35 + ".example", RecordType.AAAA)
    world = MixWorld(n_shufflers=6, n_shuffle=2, quota=4, seed=45)

    # round 1: hashed vote for an unknown record
    sent, batches = world.submit({"c": [long_key]})
    result = world.server.run_round(world.ctx, batches)
    assert result.tally == Counter()
    assert result.unknown_digests == (record_digest(long_key),)

    # round 2: client answers with cleartext fragments
    frags = fragment_payloads(long_key, world.rng)
    world.ctx = RoundContext.for_online(1001, range(6), 6, 2)
    sent, batches = world.submit({"frag": []}, priority=frags)
    result = world.server.run_round(world.ctx, batches)
    assert result.reassembled == (long_key,)
    assert result.tally[long_key] == 1

    # round 3: the digest now resolves on its own
    world.ctx = RoundContext.for_online(1002, range(6), 6, 2)
    sent, batches = world.submit({"c": [long_key]})
    result = world.server.run_round(world.ctx, batches)
    assert result.tally[long_key] == 1 and result.unknown_digests == ()


def test_direct_votes_teach_the_digest_table_nothing():
    # a short name always votes in the clear, so no hashed vote needs its digest
    world = MixWorld(n_shufflers=6, n_shuffle=2, quota=3, seed=46)
    votes = {f"c{i}": [key(f"fresh{i}.example"), key("shared.example")] for i in range(3)}
    before = dict(world.server.digest_table)
    _, batches = world.submit(votes)
    result = world.server.run_round(world.ctx, batches)
    assert world.server.digest_table == before
    expected = Counter({key(f"fresh{i}.example"): 1 for i in range(3)})
    expected[key("shared.example")] = 3
    assert result.tally == expected


# -- fault injection ---------------------------------------------------------


class PayloadCorruptor(ShufflerNode):
    """Flips one payload byte in the first packet of one chosen batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_batch(self, batch, t_timestamp):
        out = super().process_batch(batch, t_timestamp)
        if self.armed and out:
            self.armed = False
            victim = out[0]
            out[0] = MixPacket(victim.p, victim.h, bytes([victim.d[0] ^ 0xFF]) + victim.d[1:])
        return out


class PacketDropper(ShufflerNode):
    """Silently discards one packet after transforming it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_batch(self, batch, t_timestamp):
        out = super().process_batch(batch, t_timestamp)
        if self.armed and out:
            self.armed = False
            out.pop(0)
        return out


class AckDropper(ShufflerNode):
    """Discards one real ack during the reverse phase."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_acks(self, acks, t_timestamp):
        acks = list(acks)
        if self.armed and acks:
            self.armed = False
            acks.pop(0)
        return super().process_acks(acks, t_timestamp)


def run_fault_round(node_cls, seed):
    world = MixWorld(n_shufflers=5, n_shuffle=2, quota=2, seed=seed)
    evil = node_cls(0, world.privs[0], random.Random(seed + 1))
    world.nodes[0] = evil
    world.transport.nodes[0] = evil
    votes = {f"c{i}": [key(f"r{i}.example")] for i in range(6)}
    sent, batches = world.submit(votes)
    result = world.server.run_round(world.ctx, batches)
    outcomes = {}
    for client, planned in sent.items():
        outcome, reports = verify_round_acks(planned, result.acks.get(client, []))
        outcomes[client] = (outcome, reports)
    return world, sent, result, outcomes


def test_payload_corruption_flagged_only_by_victim():
    world, sent, result, outcomes = run_fault_round(PayloadCorruptor, seed=51)
    flagged = {
        c: reports for c, (outcome, reports) in outcomes.items() if reports
    }
    assert len(flagged) == 1
    ((victim, reports),) = flagged.items()
    assert 0 in reports[0].path  # the corrupting node is on the reported path
    # everyone else fully verified
    for client, (outcome, reports) in outcomes.items():
        if client != victim:
            assert set(outcome) == {AckOutcome.VERIFIED}
    # the corrupted payload decrypts to noise at the exit
    assert result.undecodable + result.dummy_count >= 1


def test_packet_drop_is_flagged_and_logged_per_hop():
    world, sent, result, outcomes = run_fault_round(PacketDropper, seed=52)
    assert sum(result.dropped_per_hop.values()) == 1
    hop = next(iter(result.dropped_per_hop))
    assert hop in (1, 2)
    flagged = [c for c, (outcome, reports) in outcomes.items() if reports]
    assert len(flagged) == 1
    # cover ack came back for the dropped flow, so the victim sees a bad
    # tag rather than silence
    outcome, _ = outcomes[flagged[0]]
    assert AckOutcome.TAMPERED in outcome or AckOutcome.MISSING in outcome


def test_ack_drop_is_covered_and_count_invariant():
    world, sent, result, outcomes = run_fault_round(AckDropper, seed=53)
    # every client still received exactly its accepted count of acks
    for client, planned in sent.items():
        assert len(result.acks.get(client, [])) == len(planned)
    flagged = [c for c, (outcome, reports) in outcomes.items() if reports]
    assert len(flagged) == 1
    outcome, _ = outcomes[flagged[0]]
    assert outcome.count(AckOutcome.TAMPERED) == 1
    covers = sum(n.cover_acks_sent for n in world.nodes.values())
    assert covers == 1


def test_honest_rounds_never_flag():
    for seed in (61, 62, 63):
        world = MixWorld(n_shufflers=5, n_shuffle=3, quota=2, seed=seed)
        votes = {f"c{i}": [key(f"q{i}.example")] for i in range(4)}
        sent, batches = world.submit(votes)
        result = world.server.run_round(world.ctx, batches)
        for client, planned in sent.items():
            outcomes, reports = verify_round_acks(planned, result.acks[client])
            assert reports == []
            assert set(outcomes) == {AckOutcome.VERIFIED}


# -- report correlation -------------------------------------------------------


def test_report_log_flags_repeat_offender_within_window():
    log = ReportLog(threshold=5, window_rounds=24)
    for rnd in range(4):
        log.add(rnd, type("R", (), {"path": (7, rnd)})())
    assert log.flagged(4) == set()
    log.add(4, type("R", (), {"path": (7,)})())
    assert log.flagged(4) == {7}
    # outside the window the old reports age out
    assert log.flagged(30) == set()


def test_report_log_counts_distinct_reports_not_path_repeats():
    log = ReportLog(threshold=3, window_rounds=24)
    log.add(1, type("R", (), {"path": (9, 9, 9, 9)})())
    assert log.flagged(1) == set()
    log.add(2, type("R", (), {"path": (9,)})())
    log.add(3, type("R", (), {"path": (9,)})())
    assert log.flagged(3) == {9}
