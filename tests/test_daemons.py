"""Server and client daemons talking over real loopback sockets."""

import socket
import time
import zlib
from random import Random

import pytest

from lluad import wire
from lluad.cli import main as cli_main
from lluad.client import (
    FALLBACK_RELAY_HOPS,
    AuthRejected,
    LluadClient,
    SimulatedFallback,
    VoteBuffer,
)
from lluad.curve import encode_element, mult_base, random_scalar
from lluad.dnsmsg import (
    DomainName,
    RecordAnswer,
    RecordKey,
    RecordType,
    build_query,
    parse_response,
)
from lluad.maintenance import (
    MaintenanceConfig,
    Maintainer,
    SimulatedUpstream,
    UpstreamAnswer,
    UpstreamFailure,
)
from lluad.mixnet import AckOutcome, record_digest, select_shufflers
from lluad.server import ClientRegistry, LluadServer, RegistryError


def akey(text: str) -> RecordKey:
    return RecordKey(DomainName.from_text(text), RecordType.A)


def keypair(rng: Random) -> tuple[int, bytes]:
    priv = random_scalar(rng)
    return priv, encode_element(mult_base(priv))


class World:
    """A server plus connected clients on loopback, ready for rounds."""

    def __init__(
        self,
        n_shufflers: int = 4,
        n_plain: int = 2,
        *,
        n_shuffle: int = 2,
        quota: int = 4,
        voting_rate: float = 1.0,
        straggler_timeout: float = 5.0,
        shuffler_cap: int | None = None,
        n_records: int = 5,
        seed: int = 11,
    ):
        rng = Random(seed)
        self.table: dict[RecordKey, UpstreamAnswer] = {}
        self.list_keys: list[RecordKey] = []
        for i in range(n_records):
            key = akey(f"svc{i}.example.com")
            self.table[key] = UpstreamAnswer(600, (rng.randbytes(4),))
            self.list_keys.append(key)

        def resolve(key: RecordKey) -> UpstreamAnswer:
            answer = self.table.get(key)
            if answer is None:
                raise UpstreamFailure(str(key))
            return answer

        self.maintainer = Maintainer(
            MaintenanceConfig(n_popular=64),
            SimulatedUpstream(resolve),
            rng=Random(seed + 1),
        )
        self.maintainer.ingest_votes(self.list_keys)
        self.maintainer.run_refresh(now=1000.0)

        self.server_priv, self.server_pub = keypair(rng)
        lines = []
        keys: dict[str, tuple[int, bytes]] = {}
        for i in range(n_shufflers):
            cid = f"shuf{i}"
            keys[cid] = keypair(rng)
            lines.append(f"{cid} tok-{cid} {keys[cid][1].hex()} 1")
        for i in range(n_plain):
            cid = f"cli{i}"
            keys[cid] = keypair(rng)
            lines.append(f"{cid} tok-{cid} {keys[cid][1].hex()} 0")
        self.registry = ClientRegistry.parse("\n".join(lines))
        self.keys = keys

        self.server = LluadServer(
            self.registry,
            self.maintainer,
            self.server_priv,
            quota=quota,
            n_shuffle=n_shuffle,
            straggler_timeout=straggler_timeout,
            shuffler_cap=shuffler_cap,
        )
        self.server.start()
        self.quota = quota
        self.clients: dict[str, LluadClient] = {}
        for cid in keys:
            self.clients[cid] = self.make_client(cid, voting_rate=voting_rate)
            self.clients[cid].connect()

    def make_client(self, cid: str, voting_rate: float = 1.0) -> LluadClient:
        index = self.registry.shuffler_index.get(cid)
        return LluadClient(
            cid,
            f"tok-{cid}",
            self.server.address,
            shuffler_pubs=self.registry.shuffler_pubs(),
            server_pub=self.server_pub,
            shuffler_index=index,
            shuffler_priv=self.keys[cid][0] if index is not None else None,
            quota=self.quota,
            voting_rate=voting_rate,
            rng=Random(zlib.crc32(cid.encode())),
        )

    def stop(self) -> None:
        for client in self.clients.values():
            client.close()
        self.server.stop()


@pytest.fixture
def world_factory():
    worlds: list[World] = []

    def build(*args, **kwargs) -> World:
        world = World(*args, **kwargs)
        worlds.append(world)
        return world

    yield build
    for world in worlds:
        world.stop()


def wait_until(check, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if check():
            return True
        time.sleep(0.01)
    return check()


# -- registry ----------------------------------------------------------------


def test_registry_parse_format_round_trip():
    rng = Random(3)
    pub1, pub2 = keypair(rng)[1], keypair(rng)[1]
    text = f"alice secret1 {pub1.hex()} 1\n# comment\n\nbob secret2 {pub2.hex()} 0\n"
    reg = ClientRegistry.parse(text)
    assert list(reg.entries) == ["alice", "bob"]
    assert reg.shuffler_ids == ["alice"]
    assert reg.shuffler_index == {"alice": 0}
    assert reg.shuffler_pubs() == {0: pub1}
    assert ClientRegistry.parse(reg.format()).entries == reg.entries


def test_registry_digest_covers_public_parts_only():
    rng = Random(4)
    pub = keypair(rng)[1]
    base = ClientRegistry.parse(f"alice s1 {pub.hex()} 1")
    retokened = ClientRegistry.parse(f"alice other {pub.hex()} 1")
    reflagged = ClientRegistry.parse(f"alice s1 {pub.hex()} 0")
    assert base.digest == retokened.digest
    assert base.digest != reflagged.digest


def test_registry_rejects_malformed_lines():
    rng = Random(5)
    pub = keypair(rng)[1]
    for bad in (
        "alice s1 nothex 1",
        "alice s1 aabb 1",  # short key
        f"alice s1 {pub.hex()} 2",
        "alice s1",
        f"alice s1 {pub.hex()} 1\nalice s2 {pub.hex()} 0",
    ):
        with pytest.raises(RegistryError):
            ClientRegistry.parse(bad)


# -- sessions ----------------------------------------------------------------


def test_auth_rejected_on_bad_credentials(world_factory):
    world = world_factory(n_shufflers=2, n_plain=0, n_shuffle=1)
    impostor = world.make_client("shuf0")
    impostor._token = "wrong"
    with pytest.raises(AuthRejected):
        impostor.connect()
    stranger = LluadClient(
        "nobody",
        "tok",
        world.server.address,
        shuffler_pubs=world.registry.shuffler_pubs(),
        server_pub=world.server_pub,
    )
    with pytest.raises(AuthRejected):
        stranger.connect()


def test_unauthenticated_votes_refused(world_factory):
    world = world_factory(n_shufflers=2, n_plain=0, n_shuffle=1)
    sock = socket.create_connection(world.server.address)
    stream = wire.FrameStream(sock)
    stream.send(wire.MSG_VOTE_BATCH, wire.encode_packet_batch([]))
    msg_type, body = stream.recv()
    assert msg_type == wire.MSG_ERROR
    with pytest.raises(wire.ConnectionClosed):
        stream.recv()
    stream.close()


def test_snapshot_arrives_on_connect(world_factory):
    world = world_factory()
    for client in world.clients.values():
        assert client.generation == world.maintainer.generation
        assert client.plist.same_structure(world.maintainer.plist)


def test_update_broadcasts_converge(world_factory):
    world = world_factory()
    new_key = akey("fresh.example.org")
    world.table[new_key] = UpstreamAnswer(600, (b"\x0a\x00\x00\x07",))
    for _ in range(3):
        world.maintainer.ingest_votes([new_key] + world.list_keys)
        world.server.trigger_refresh(now=2000.0)
    target = world.maintainer.generation
    for client in world.clients.values():
        assert client.wait_for_generation(target)
        assert client.plist.same_structure(world.maintainer.plist)


def test_reconnect_catches_up_after_missed_updates(world_factory):
    world = world_factory(n_shufflers=3, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    client.close()
    assert wait_until(lambda: not client.connected)
    extra = akey("late.example.net")
    world.table[extra] = UpstreamAnswer(600, (b"\x0a\x00\x01\x02",))
    world.maintainer.ingest_votes([extra] + world.list_keys)
    world.server.trigger_refresh(now=3000.0)
    assert client.generation < world.maintainer.generation
    client.reconnect()
    assert client.generation == world.maintainer.generation
    assert client.plist.same_structure(world.maintainer.plist)


# -- rounds over sockets -------------------------------------------------------


def test_vote_round_over_loopback(world_factory):
    world = world_factory()
    voted = world.list_keys[:3]
    for client in world.clients.values():
        for key in voted:
            assert client.resolve(build_query(7, key)) is not None
    result = world.server.run_vote_round(1700000000)
    assert result is not None
    for key in voted:
        assert result.tally[key] == len(world.clients)
    clients_n = len(world.clients)
    assert result.dummy_count == clients_n * world.quota - clients_n * len(voted)
    assert not result.dropped_per_hop
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
        assert client.last_outcomes == [AckOutcome.VERIFIED] * world.quota
        assert client.reports_sent == 0
    # tallies reach the ranking on the next refresh
    messages = world.server.trigger_refresh(now=5000.0)
    assert messages == 0  # same records stay, nothing to broadcast


def test_round_aborts_without_enough_shufflers(world_factory):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=2)
    assert world.server.run_vote_round(42) is None
    client = world.clients["cli0"]
    assert wait_until(lambda: any(code == 3 for code, _ in client.errors))


def test_straggler_is_skipped_not_waited_for(world_factory):
    world = world_factory(straggler_timeout=1.0)
    silent = socket.create_connection(world.server.address)
    stream = wire.FrameStream(silent)
    stream.send(wire.MSG_LIST_REQUEST, wire.encode_list_request("cli1", "tok-cli1"))
    world.clients.pop("cli1").close()  # the daemon yields its slot
    msg_type, _ = stream.recv()
    assert msg_type == wire.MSG_LIST_SNAPSHOT
    result = world.server.run_vote_round(99)
    assert result is not None
    assert "cli1" not in result.acks
    assert set(result.accepted) == set(world.clients)
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
        assert client.last_outcomes == [AckOutcome.VERIFIED] * world.quota
    stream.close()


def test_shuffler_cap_restricts_participants(world_factory):
    world = world_factory(n_shufflers=6, n_plain=0, n_shuffle=2, shuffler_cap=4)
    t = 123456
    result = world.server.run_vote_round(t)
    assert result is not None
    expected = select_shufflers(
        t, world.registry.digest, range(6), 4
    )
    client = next(iter(world.clients.values()))
    assert wait_until(lambda: client._round_ctx is not None)
    assert client._round_ctx.online_indexes == expected


def test_hash_request_then_fragments_teach_the_server(world_factory):
    world = world_factory(n_shufflers=4, n_plain=1, n_shuffle=2, quota=4)
    long_key = akey("a-rather-long-service-name.subdomain.partition.example.com")
    digest = record_digest(long_key)
    voter = world.clients["cli0"]
    with voter._buffer_lock:
        voter.buffer.offer(long_key)

    first = world.server.run_vote_round(500)
    assert digest in first.unknown_digests
    assert first.tally[long_key] == 0
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
    assert wait_until(lambda: len(voter._pending_fragments) == 3)

    second = world.server.run_vote_round(501)
    assert second.reassembled == (long_key,)
    assert second.tally[long_key] == 1
    assert world.server.round_server.digest_table[digest] == long_key
    for client in world.clients.values():
        assert client.wait_for_rounds(2)
        assert client.last_outcomes == [AckOutcome.VERIFIED] * world.quota


# -- local resolution ----------------------------------------------------------


def test_resolution_hits_list_and_falls_back(world_factory):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    hit_key = world.list_keys[0]
    response = parse_response(client.resolve(build_query(21, hit_key)))
    assert response.rcode == 0
    assert response.answers[0].data == world.table[hit_key].answers[0]
    assert client.hits == 1

    miss = akey("not-on-the-list.example.io")
    servfail = parse_response(client.resolve(build_query(22, miss)))
    assert servfail.rcode == 2

    client.fallback = SimulatedFallback(
        lambda key: [RecordAnswer(RecordType.A, b"\x7f\x00\x00\x09")]
    )
    answered = parse_response(client.resolve(build_query(23, miss)))
    assert answered.answers[0].data == b"\x7f\x00\x00\x09"
    assert client.misses == 2
    assert client.buffer.offered == 3

    assert client.resolve(b"\x00\x01\x02") is None  # malformed: drop
    unsupported = bytearray(build_query(24, hit_key))
    unsupported[-3] = 16  # TXT qtype
    assert parse_response(client.resolve(bytes(unsupported))).rcode == 2


def test_udp_listener_answers_queries(world_factory):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    addr = client.start_dns_listener(port=0)
    key = world.list_keys[1]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        sock.sendto(build_query(77, key), addr)
        data, _ = sock.recvfrom(4096)
    response = parse_response(data)
    assert response.txid == 77
    assert response.answers[0].data == world.table[key].answers[0]


# -- vote buffer and fallback policy ---------------------------------------------


def test_vote_buffer_rate_edges_and_dedup():
    never = VoteBuffer(0.0, Random(1))
    always = VoteBuffer(1.0, Random(2))
    key = akey("dup.example.com")
    assert not never.offer(key)
    assert len(never) == 0
    assert always.offer(key)
    assert not always.offer(key)  # deduplicated within the window
    assert always.drain() == [key]
    assert always.offer(key)  # new window, eligible again
    with pytest.raises(ValueError):
        VoteBuffer(1.5, Random(3))


def test_vote_buffer_sampling_rate_converges():
    rng = Random(9)
    buffer = VoteBuffer(0.3, rng)
    n = 10_000
    for i in range(n):
        buffer.offer(akey(f"q{i}.example.com"))
    fraction = len(buffer) / n
    # binomial std at n=10^4 is ~0.0046; 4 sigma
    assert abs(fraction - 0.3) < 0.02


def test_fallback_modes_without_live_transport_are_rejected(capsys):
    argv = [
        "client", "--id", "c0", "--token", "t0", "--server", "127.0.0.1:9",
        "--server-pub", "00" * 32, "--registry", "registry.txt",
    ]
    for mode in ("dnscrypt", "anon-dnscrypt", "dohot", "carrier-pigeon"):
        assert cli_main([*argv, "--fallback", mode]) == 2
        assert "--fallback" in capsys.readouterr().err
    assert FALLBACK_RELAY_HOPS["anon-dnscrypt"] == 1
    assert FALLBACK_RELAY_HOPS["dohot"] == 3
    assert sorted(FALLBACK_RELAY_HOPS) == [
        "anon-dnscrypt", "dnscrypt", "doh", "dohot", "plain", "simulated",
    ]
