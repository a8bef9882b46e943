"""Score math against a closed-form oracle, then the maintainer's full
refresh / requery / batch cycle against a scripted upstream."""

import hashlib
import random
import socket
import struct
import threading
from collections import Counter

import pytest

from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType, build_query
from lluad.maintenance import (
    LbUpdate,
    Maintainer,
    MaintenanceConfig,
    MembershipUpdate,
    PlainUdpUpstream,
    PopularityScore,
    ScoreBoard,
    TtlSchedule,
    UpstreamAnswer,
    UpstreamFailure,
    apply_update,
    update_score,
)
from lluad.poplist import build_list, lookup, record_count, serialize
from lluad.traces import SyntheticUniverse, UniverseConfig, ZipfGeneratorConfig, generate_trace
from lluad.wire import encode_lb_update, encode_membership_update

# SHA-256 over the pinned run's messages and final list, and its generation
MAINTAINER_DIGEST = ("c993f7a7c0f6d17bcc912f8a90a8fbd622fae768829b1881b949d85c78f7b936", 7487)


def key(text, rtype=RecordType.A):
    return RecordKey(DomainName.from_text(text), rtype)


def cfg(**overrides):
    base = dict(n_popular=10, t_refresh=3600, min_ttl=60)
    base.update(overrides)
    return MaintenanceConfig(**base)


class ScriptedUpstream:
    """Mutable table of answers; entries can be set to raise."""

    def __init__(self):
        self.table: dict[RecordKey, UpstreamAnswer] = {}
        self.failures: set[RecordKey] = set()
        self.calls = Counter()

    def set_a(self, text, *ips, ttl=120):
        k = key(text)
        self.table[k] = UpstreamAnswer(
            ttl=ttl, answers=tuple(RecordAnswer.a(ip).data for ip in ips)
        )
        return k

    def set_cname(self, text, target, ttl=120):
        k = key(text)
        self.table[k] = UpstreamAnswer(
            ttl=ttl, cname=DomainName.from_text(target)
        )
        return k

    def resolve(self, k):
        self.calls[k] += 1
        if k in self.failures:
            raise UpstreamFailure(str(k))
        base = self.table.get(k)
        if base is None and k.rtype != RecordType.A:
            base = self.table.get(RecordKey(k.name, RecordType.A))
        if base is None:
            return UpstreamAnswer(ttl=300)
        return base


# -- score math ----------------------------------------------------------


def closed_form(occurrences, a=0.1):
    """Independent oracle: weighted = sum_m a*occ_m*(1-a)^(M-m)."""
    total = 0.0
    m_final = len(occurrences)
    for m, occ in enumerate(occurrences, start=1):
        total += a * occ * (1.0 - a) ** (m_final - m)
    return total


def test_update_score_matches_geometric_oracle():
    rng = random.Random(41)
    for _ in range(20):
        occurrences = [rng.randrange(0, 50) for _ in range(rng.randrange(1, 30))]
        score = PopularityScore(key("x.example"), 0.0, 0)
        for rnd, occ in enumerate(occurrences, start=1):
            score = update_score(score, occ, rnd)
        assert score.weighted == pytest.approx(closed_form(occurrences), abs=1e-12)


def test_skipped_rounds_equal_explicit_zero_rounds():
    start = PopularityScore(key("x.example"), 8.0, 3)
    jumped = update_score(start, 5, 9)
    stepped = start
    for rnd in range(4, 9):
        stepped = update_score(stepped, 0, rnd)
    stepped = update_score(stepped, 5, 9)
    assert jumped.weighted == pytest.approx(stepped.weighted, rel=1e-15)


def test_five_idle_rounds_decay_by_point_nine_to_the_fifth():
    start = PopularityScore(key("x.example"), 2.0, 0)
    idle = update_score(start, 0, 5)
    assert idle.weighted == pytest.approx(2.0 * 0.9**5)


def test_update_score_rejects_stale_round():
    score = PopularityScore(key("x.example"), 1.0, 5)
    with pytest.raises(ValueError):
        update_score(score, 1, 5)
    with pytest.raises(ValueError):
        update_score(score, -1, 6)


def test_scoreboard_ranking_and_tie_breaks():
    board = ScoreBoard(cfg(n_popular=3))
    board.apply_round(1, {key("a.example"): 4, key("b.example"): 4, key("c.example"): 9})
    # equal scores: the incumbent wins, otherwise canonical order
    top = board.top(1, 2, incumbents=frozenset([key("b.example")]))
    assert top == [key("c.example"), key("b.example")]
    top = board.top(1, 3, incumbents=frozenset())
    assert top == [key("c.example"), key("a.example"), key("b.example")]


def test_scoreboard_lru_cap_evicts_least_recently_voted():
    board = ScoreBoard(cfg(n_popular=1))  # cap 4
    board.apply_round(1, {key(f"k{i}.example"): 1 for i in range(4)})
    board.apply_round(2, {key("k0.example"): 1, key("new.example"): 1})
    assert len(board) == 4
    assert key("k0.example") in board
    assert key("new.example") in board
    # one of the round-1-only keys fell off
    survivors = sum(key(f"k{i}.example") in board for i in range(1, 4))
    assert survivors == 2


def test_ttl_schedule_tracks_one_expiry_per_key():
    sched = TtlSchedule()
    k = key("a.example")
    sched.schedule(k, 100.0)
    sched.schedule(k, 50.0)  # replaces
    assert len(sched) == 1
    assert sched.next_due() == 50.0
    assert sched.due(60.0) == [k]
    assert len(sched) == 0
    sched.schedule(k, 70.0)
    sched.cancel(k)
    assert sched.due(1e9) == []


# -- maintainer: refresh ---------------------------------------------------


def test_refresh_emits_one_removal_and_one_addition_message():
    upstream = ScriptedUpstream()
    old = upstream.set_a("old.example", "192.0.2.1")
    new = upstream.set_a("new.example", "192.0.2.2")
    m = Maintainer(cfg(n_popular=1), upstream, rng=random.Random(1))

    m.ingest_votes([old])
    msgs = m.run_refresh(now=0.0)
    assert len(msgs) == 1 and msgs[0].additions[0].key == old

    # new record overtakes, old one leaves: exactly two messages
    m.ingest_votes([new, new, new])
    msgs = m.run_refresh(now=3600.0)
    assert len(msgs) == 2
    assert msgs[0] == MembershipUpdate(removals=(old,))
    assert msgs[1].additions[0].key == new
    assert m.generation == 3


def test_refresh_materializes_cname_closure():
    upstream = ScriptedUpstream()
    upstream.set_cname("www.shop.example", "edge.cdn.example")
    upstream.set_a("edge.cdn.example", "198.51.100.7")
    m = Maintainer(cfg(), upstream, rng=random.Random(2))
    voted = key("www.shop.example")
    m.ingest_votes([voted])
    msgs = m.run_refresh(0.0)
    added = {d.key for d in msgs[0].additions}
    assert added == {
        key("www.shop.example", RecordType.CNAME),
        key("edge.cdn.example"),
    }
    hit = lookup(m.plist, voted)
    assert hit is not None and hit[-1].data == bytes([198, 51, 100, 7])


def test_refresh_skips_unresolvable_votes_and_retries_later():
    upstream = ScriptedUpstream()
    k = upstream.set_a("flaky.example", "192.0.2.3")
    upstream.failures.add(k)
    m = Maintainer(cfg(), upstream, rng=random.Random(3))
    m.ingest_votes([k])
    assert m.run_refresh(0.0) == []
    assert record_count(m.plist) == 0
    upstream.failures.clear()
    m.ingest_votes([k])  # scores persisted; next refresh picks it up
    msgs = m.run_refresh(3600.0)
    assert msgs and msgs[0].additions[0].key == k


def test_cname_typed_votes_are_not_ranked():
    """A stub query of type CNAME reaches the vote buffer too.  Ranked
    for itself, such a link would be listed without its target, and
    every later refresh would fail on the list rules."""
    universe = SyntheticUniverse(UniverseConfig(2000, seed=3, cname_fraction=0.05))
    m = Maintainer(cfg(), universe.upstream(), rng=random.Random(3))
    alias = universe.keys[universe.kind.index("cname")]
    m.ingest_votes([RecordKey(alias.name, RecordType.CNAME)])
    assert m.run_refresh(0.0) == []
    assert record_count(m.plist) == 0
    m.ingest_votes([alias])
    assert m.run_refresh(3600.0)
    assert lookup(m.plist, alias)[0].rtype == RecordType.CNAME


def test_unvoted_records_decay_out():
    upstream = ScriptedUpstream()
    a = upstream.set_a("a.example", "192.0.2.1")
    b = upstream.set_a("b.example", "192.0.2.2")
    m = Maintainer(cfg(n_popular=1), upstream, rng=random.Random(4))
    m.ingest_votes([a] * 3)
    m.run_refresh(0.0)
    for rnd in range(1, 9):
        m.ingest_votes([b] * 2)
        m.run_refresh(rnd * 3600.0)
    assert lookup(m.plist, b) is not None
    assert lookup(m.plist, a) is None


# -- maintainer: ttl requery ----------------------------------------------


def build_with_record(upstream, text="site.example", ip="192.0.2.1", ttl=120):
    k = upstream.set_a(text, ip, ttl=ttl)
    m = Maintainer(cfg(), upstream, rng=random.Random(5))
    m.ingest_votes([k])
    m.run_refresh(0.0)
    return m, k


def test_ttl_unchanged_answer_produces_nothing():
    upstream = ScriptedUpstream()
    m, k = build_with_record(upstream)
    assert m.run_ttl(121.0) == []
    assert upstream.calls[k] == 2  # materialize + requery
    # rescheduled: next requery due again one ttl later
    assert m.run_ttl(200.0) == []
    assert m.run_ttl(242.0) == []
    assert upstream.calls[k] == 3


def test_ttl_answer_change_emits_upsert():
    upstream = ScriptedUpstream()
    m, k = build_with_record(upstream)
    upstream.set_a("site.example", "192.0.2.9")
    msgs = m.run_ttl(121.0)
    assert len(msgs) == 1
    assert msgs[0].additions[0].answer == bytes([192, 0, 2, 9])
    assert lookup(m.plist, k)[0].data == bytes([192, 0, 2, 9])


def test_ttl_nxdomain_removes_record():
    upstream = ScriptedUpstream()
    m, k = build_with_record(upstream)
    del upstream.table[k]
    msgs = m.run_ttl(121.0)
    assert msgs == [MembershipUpdate(removals=(k,))]
    assert record_count(m.plist) == 0


def test_ttl_failure_backs_off_exponentially_with_cap():
    upstream = ScriptedUpstream()
    m, k = build_with_record(upstream)
    upstream.failures.add(k)
    assert m.run_ttl(121.0) == []
    assert m.schedule.next_due() == pytest.approx(123.0)  # +2s
    m.run_ttl(123.0)
    assert m.schedule.next_due() == pytest.approx(127.0)  # +4s
    for now in (127.0, 131.5, 140.0, 157.0, 190.0, 256.0, 385.0, 642.0, 1155.0):
        m.run_ttl(now)
    # delay capped
    assert m.schedule.next_due() - 1155.0 <= 300.0 + 1e-9
    # record is retained (stale) the whole time
    assert lookup(m.plist, k) is not None


def test_repeated_changes_classify_record_as_load_balanced():
    upstream = ScriptedUpstream()
    m, k = build_with_record(upstream, ttl=60)
    upstream.set_a("site.example", "192.0.2.10", ttl=60)
    m.run_ttl(61.0)
    upstream.set_a("site.example", "192.0.2.11", ttl=60)
    msgs = m.run_ttl(122.0)  # third distinct set inside the window
    assert any(d.pool for msg in msgs for d in msg.additions)
    group = m.plist.pool.groups[0]
    assert group.key == k
    assert set(group.answers) >= {
        bytes([192, 0, 2, 1]),
        bytes([192, 0, 2, 10]),
        bytes([192, 0, 2, 11]),
    }


def test_cname_target_swap_updates_closure():
    upstream = ScriptedUpstream()
    upstream.set_cname("www.example", "old-cdn.example", ttl=60)
    upstream.set_a("old-cdn.example", "203.0.113.1")
    m = Maintainer(cfg(), upstream, rng=random.Random(6))
    voted = key("www.example")
    m.ingest_votes([voted])
    m.run_refresh(0.0)
    upstream.set_cname("www.example", "new-cdn.example", ttl=60)
    upstream.set_a("new-cdn.example", "203.0.113.2")
    msgs = m.run_ttl(61.0)
    assert msgs
    hit = lookup(m.plist, voted)
    assert hit[-1].data == bytes([203, 0, 113, 2])
    assert lookup(m.plist, key("old-cdn.example")) is None


def test_a_listed_name_that_turns_alias_stops_no_refresh():
    """A listed AAAA's name becomes an alias and an A vote arrives.  The
    A chain's CNAME cannot sit next to the stale AAAA, so the refreshes
    leave the A key open until the AAAA's own requery drops it."""
    upstream = ScriptedUpstream()
    aaaa = key("shop.example", RecordType.AAAA)
    v6 = UpstreamAnswer(ttl=3600, answers=(bytes(15) + b"\x01",))
    upstream.table[aaaa] = v6
    m = Maintainer(cfg(), upstream, rng=random.Random(8))
    m.ingest_votes([aaaa])
    assert m.run_refresh(0.0)
    del upstream.table[aaaa]
    upstream.set_cname("shop.example", "cdn.example")
    upstream.set_a("cdn.example", "203.0.113.9")
    upstream.table[key("cdn.example", RecordType.AAAA)] = v6
    for now in (60.0, 120.0, 180.0):
        m.ingest_votes([key("shop.example")])
        assert m.run_refresh(now) == []
    assert m.run_ttl(3700.0)
    assert set(m.plist.records) == {
        key("shop.example", RecordType.CNAME),
        key("cdn.example"),
        key("cdn.example", RecordType.AAAA),
    }
    assert lookup(m.plist, key("shop.example"))[-1].data == bytes([203, 0, 113, 9])


# -- maintainer: LB batching ------------------------------------------------


def make_pooled_maintainer(ips=("10.0.0.1", "10.0.0.2", "10.0.0.3"), seed=7):
    upstream = ScriptedUpstream()
    k = upstream.set_a("cdn.example", *ips, ttl=60)
    m = Maintainer(cfg(), upstream, rng=random.Random(seed))
    m.ingest_votes([k])
    m.run_refresh(0.0)
    # force classification: two more distinct observations
    upstream.set_a("cdn.example", ips[0], ttl=60)
    m.run_ttl(61.0)
    upstream.set_a("cdn.example", *ips[1:], ttl=60)
    m.run_ttl(122.0)
    assert m.plist.pool.groups, "record should be pooled by now"
    return m, upstream, k


def test_rotation_offsets_batch_and_apply():
    m, upstream, k = make_pooled_maintainer()
    flushed = m.flush_lb_updates(200.0)
    baseline = m.plist.pool.groups[0].current_index
    # keep requerying until the rng picks a different answer
    now = 200.0
    for _ in range(40):
        now += 61.0
        m.run_ttl(now)
        if m._pending_offsets:
            break
    assert m._pending_offsets, "rng never rotated the pointer"
    batch = m.flush_lb_updates(now + 60.0)
    assert isinstance(batch, LbUpdate)
    entry_index, offset = batch.entries[0]
    assert entry_index == 0
    group = m.plist.pool.groups[0]
    assert group.current_index == (baseline + offset) % len(group.answers)


def test_flush_rate_limited_to_min_ttl():
    m, upstream, k = make_pooled_maintainer(seed=8)
    m._pending_offsets[k] = 1
    first = m.flush_lb_updates(1000.0)
    assert first is not None
    m._pending_offsets[k] = 1
    assert m.flush_lb_updates(1030.0) is None  # inside the window
    later = m.flush_lb_updates(1060.0)
    assert later is not None


def test_flush_with_nothing_queued_is_none_and_free():
    m, upstream, k = make_pooled_maintainer(seed=9)
    m._pending_offsets.clear()
    assert m.flush_lb_updates(5000.0) is None
    # an empty flush does not consume the rate-limit window
    m._pending_offsets[k] = 2
    assert m.flush_lb_updates(5001.0) is not None


def test_offsets_coalesce_to_net_rotation():
    m, upstream, k = make_pooled_maintainer(seed=10)
    size = len(m.plist.pool.groups[0].answers)
    m._pending_offsets[k] = size  # full circle: net zero
    assert m.flush_lb_updates(9000.0) is None
    m._pending_offsets[k] = size + 1
    batch = m.flush_lb_updates(9100.0)
    assert batch.entries[0][1] == 1


# -- client replica convergence ---------------------------------------------


def test_client_applying_stream_matches_server_state():
    rng = random.Random(44)
    upstream = ScriptedUpstream()
    names = [f"host{i}.example" for i in range(12)]
    keys = [upstream.set_a(n, f"10.1.0.{i+1}", ttl=60) for i, n in enumerate(names)]
    upstream.set_cname("alias.example", names[0])
    m = Maintainer(cfg(n_popular=8, min_ttl=60), upstream, rng=random.Random(45))

    replica = build_list([])
    now = 0.0
    for step in range(40):
        now += rng.choice([30.0, 61.0, 3600.0])
        for _ in range(rng.randrange(0, 12)):
            m.ingest_votes([rng.choice(keys + [key("alias.example")])])
        messages = []
        if rng.random() < 0.5:
            messages += m.run_refresh(now)
        if rng.random() < 0.7:
            if rng.random() < 0.3:
                victim = rng.choice(names)
                upstream.set_a(victim, f"10.2.{rng.randrange(255)}.1", ttl=60)
            messages += m.run_ttl(now)
        batch = m.flush_lb_updates(now)
        if batch:
            messages.append(batch)
        for msg in messages:
            replica = apply_update(replica, msg)
        assert replica.same_structure(m.plist), f"diverged at step {step}"
        assert replica.generation == m.generation


def test_retargeted_cname_chains_keep_replica_identical():
    # www -> mid -> old-origin; then mid turns into an address record and
    # www's chain ends there, so mid's CNAME and old-origin both leave
    upstream = ScriptedUpstream()
    upstream.set_cname("www.example", "mid.example", ttl=3600)
    upstream.set_cname("mid.example", "old-origin.example", ttl=60)
    upstream.set_a("old-origin.example", "203.0.113.1", ttl=3600)
    m = Maintainer(cfg(), upstream, rng=random.Random(11))
    voted = key("www.example")
    m.ingest_votes([voted])
    replica = build_list([])
    for msg in m.run_refresh(0.0):
        replica = apply_update(replica, msg)
    upstream.table.pop(key("mid.example"))
    upstream.set_a("mid.example", "203.0.113.2", ttl=3600)
    msgs = m.run_ttl(61.0)
    assert msgs
    for msg in msgs:
        replica = apply_update(replica, msg)
    assert replica.same_structure(m.plist) and replica.generation == m.generation
    assert lookup(m.plist, voted)[-1].data == bytes([203, 0, 113, 2])
    assert record_count(m.plist) == 2

    # a plain retarget: www -> mid becomes www -> new-origin
    upstream.set_cname("www.example", "new-origin.example", ttl=60)
    upstream.set_a("new-origin.example", "203.0.113.3", ttl=3600)
    m.schedule.schedule(key("www.example", RecordType.CNAME), 100.0)
    for msg in m.run_ttl(100.0):
        replica = apply_update(replica, msg)
    assert replica.same_structure(m.plist) and replica.generation == m.generation
    assert lookup(m.plist, key("mid.example")) is None
    assert lookup(m.plist, voted)[-1].data == bytes([203, 0, 113, 3])


def test_maintainer_output_is_pinned():
    """The list-sync shape at small size: a leader learns its pools, fills
    its list, then runs a few virtual hours of minute TTL passes, pointer
    flushes and hourly vote refreshes.  Every message it emits and the
    list it ends on have the same bytes as before."""
    universe = SyntheticUniverse(
        UniverseConfig(600, seed=601, lb_fraction=0.05, cname_fraction=0.05)
    )
    clock = [0.0]
    m = Maintainer(
        cfg(n_popular=500), universe.upstream(clock=lambda: clock[0]), random.Random(601)
    )
    out = hashlib.sha256()

    def emit(messages):
        for msg in messages:
            if isinstance(msg, LbUpdate):
                out.update(b"L" + encode_lb_update(msg))
            else:
                out.update(b"M" + encode_membership_update(msg))

    def minute():
        clock[0] += 60.0
        emit(m.run_ttl(clock[0]))
        emit([batch] if (batch := m.flush_lb_updates(clock[0])) else [])

    top = universe.keys[:500]
    m.ingest_votes(k for k, kind in zip(top, universe.kind) if kind == "lb")
    emit(m.run_refresh(clock[0]))
    for _ in range(10):
        minute()
    m.ingest_votes(top)
    emit(m.run_refresh(clock[0]))
    trace = generate_trace(
        ZipfGeneratorConfig(600, clients=40, queries_per_client_hour=20, hours=4, seed=601),
        universe,
    )
    sample = random.Random(602)
    for _, events in trace.hours():
        for _ in range(60):
            minute()
        m.ingest_votes(e.key for e in events if sample.random() < 0.3)
        emit(m.run_refresh(clock[0]))
    out.update(serialize(m.plist))
    assert (out.hexdigest(), m.generation) == MAINTAINER_DIGEST


# -- the plain UDP upstream against replies from outside ---------------------


@pytest.fixture
def scripted_resolver():
    """A resolver on 127.0.0.1 that hands the first query and its sender
    to `script(sock, query, peer)`, which sends what it likes."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(10.0)
    threads = []

    def start(script):
        def serve():
            try:
                script(sock, *sock.recvfrom(4096))
            except OSError:
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return sock.getsockname()

    yield start
    sock.close()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.fixture
def one_shot_resolver(scripted_resolver):
    """A resolver that answers the first query with the bytes
    `reply(query)` returns, then stays silent."""
    return lambda reply: scripted_resolver(
        lambda sock, query, peer: sock.sendto(reply(query), peer)
    )


def _reply(query: bytes, rtype: RecordType, rdata: bytes) -> bytes:
    """A response echoing the query's question with one answer owned by
    the query name (a compression pointer to the question)."""
    header = query[:2] + struct.pack("!HHHHH", 0x8180, 1, 1, 0, 0)
    answer = struct.pack("!HHHIH", 0xC00C, int(rtype), 1, 300, len(rdata)) + rdata
    return header + query[12:] + answer


def test_upstream_cname_to_unsupported_label_is_a_failed_try(one_shot_resolver):
    endpoint = one_shot_resolver(
        lambda q: _reply(q, RecordType.CNAME, b"\x03a!b\x07example\x00")
    )
    upstream = PlainUdpUpstream(endpoint, timeout=0.3, retries=2)
    with pytest.raises(UpstreamFailure):
        upstream.resolve(key("www.example"))


def test_upstream_skips_a_reply_to_another_query(scripted_resolver):
    """A datagram carrying another transaction id is skipped; the reply
    after it is read within the same try."""

    def script(sock, query, peer):
        stray = bytes([query[0] ^ 0xFF]) + query[1:]
        sock.sendto(_reply(stray, RecordType.A, b"\xc0\x00\x02\x09"), peer)
        sock.sendto(_reply(query, RecordType.A, b"\xc0\x00\x02\x01"), peer)

    upstream = PlainUdpUpstream(scripted_resolver(script), timeout=0.3, retries=1)
    assert upstream.resolve(key("www.example")).answers == (b"\xc0\x00\x02\x01",)


def test_upstream_ignores_a_reply_from_another_address(scripted_resolver):
    """A datagram with the query's transaction id, but from another
    address than the resolver's, never answers the query."""
    spoofer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def script(sock, query, peer):
        spoofer.sendto(_reply(query, RecordType.A, b"\xc0\x00\x02\x09"), peer)
        sock.sendto(_reply(query, RecordType.A, b"\xc0\x00\x02\x01"), peer)

    upstream = PlainUdpUpstream(scripted_resolver(script), timeout=0.3, retries=1)
    with spoofer:
        assert upstream.resolve(key("www.example")).answers == (b"\xc0\x00\x02\x01",)


def test_upstream_refuses_a_reply_to_another_question(one_shot_resolver):
    """A reply to another question under the query's transaction id is a
    failed try (RFC 5452, section 3), so it cannot evict a listed record."""

    def other_question(query: bytes) -> bytes:
        other = query[:2] + build_query(0, key("other.example"))[2:]
        return _reply(other, RecordType.A, b"\xc0\x00\x02\x09")

    upstream = PlainUdpUpstream(one_shot_resolver(other_question), timeout=0.3, retries=1)
    with pytest.raises(UpstreamFailure):
        upstream.resolve(key("www.example"))
    m, listed = build_with_record(ScriptedUpstream(), "www.example")
    m.upstream = PlainUdpUpstream(
        one_shot_resolver(other_question), timeout=0.3, retries=1
    )
    assert m.run_ttl(121.0) == []
    assert lookup(m.plist, listed) is not None


def test_upstream_short_address_is_a_failed_try(one_shot_resolver):
    endpoint = one_shot_resolver(lambda q: _reply(q, RecordType.A, b"\xc0\x00\x02"))
    m = Maintainer(cfg(), PlainUdpUpstream(endpoint, timeout=0.3, retries=2))
    voted = key("short.example")
    m.ingest_votes([voted])
    assert m.run_refresh(0.0) == []
    assert record_count(m.plist) == 0
    assert voted in m.scores  # kept for the next refresh, not evicted
