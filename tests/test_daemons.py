"""Server and client daemons talking over real loopback sockets."""

import datetime
import gc
import http.server
import ipaddress
import logging
import socket
import ssl
import threading
import time
import weakref
import zlib
from collections import Counter
from random import Random

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from lluad import client as client_module
from lluad import mixnet, wire
from lluad.cli import main as cli_main
from lluad.client import (
    AuthRejected,
    DohFallback,
    LluadClient,
    PlainUdpFallback,
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
    build_response,
    parse_query,
    parse_response,
)
from lluad.maintenance import (
    LbUpdate,
    MaintenanceConfig,
    Maintainer,
    MembershipUpdate,
    SimulatedUpstream,
    UpstreamAnswer,
    UpstreamFailure,
    apply_update,
)
from lluad.mixnet import (
    DIGEST_LEN,
    AckOutcome,
    LocalTransport,
    MisbehaviorReport,
    ReportLog,
    RoundContext,
    RoundServer,
    ShufflerNode,
    fragment_payloads,
    record_digest,
    select_shufflers,
)
from lluad.poplist import RecordDef, build_list, iter_records, serialize
from lluad.server import (
    ERR_AUTH,
    ERR_PROTOCOL,
    ERR_ROUND_ABORTED,
    SEND_TIMEOUT,
    TLS_HANDSHAKE_TIMEOUT,
    ClientRegistry,
    LluadServer,
    RegistryError,
)
from lluad.simharness import FALLBACK_RELAY_HOPS


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
        tls: tuple[ssl.SSLContext, ssl.SSLContext] | None = None,
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
            ssl_context=tls and tls[0],
        )
        self.server.start()
        self.quota = quota
        self.client_ssl = tls and tls[1]
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
            ssl_context=self.client_ssl,
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


def test_a_registry_no_round_start_can_carry_is_refused(monkeypatch):
    monkeypatch.setattr(mixnet, "MAX_AVAILABILITY_LEN", 1)  # a bitmap of 8 shufflers
    maintainer = Maintainer(MaintenanceConfig(), SimulatedUpstream(None), rng=Random(1))

    def registry(shufflers: int) -> ClientRegistry:
        lines = (f"s{i} t {bytes([i]).hex() * 32} 1" for i in range(shufflers))
        return ClientRegistry.parse("\n".join(lines))

    with pytest.raises(RegistryError, match="at most 8 shufflers"):
        LluadServer(registry(9), maintainer, server_priv=1)
    LluadServer(registry(8), maintainer, server_priv=1)


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


def test_an_unexpected_message_type_ends_the_session(world_factory, caplog):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    with caplog.at_level(logging.WARNING, logger="lluad.server"):
        client._stream.send(wire.MSG_SENDER_ACKS, wire.encode_packet_batch([]))
        assert wait_until(lambda: not client.connected)
    assert [code for code, _ in client.errors] == [ERR_PROTOCOL]
    assert "protocol violation" in caplog.text
    assert wait_until(lambda: "cli0" not in world.server._sessions)
    assert world.clients["shuf0"].connected


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


def test_a_query_never_waits_for_an_update_to_be_computed(world_factory, monkeypatch):
    world = world_factory(n_shufflers=0, n_plain=1)
    client = world.clients["cli0"]
    entered, release = threading.Event(), threading.Event()
    apply_update = client_module.apply_update

    def held(plist, message):
        entered.set()
        release.wait(10.0)
        return apply_update(plist, message)

    monkeypatch.setattr(client_module, "apply_update", held)
    world.table[world.list_keys[0]] = UpstreamAnswer(600, (b"\x0a\x09\x09\x09",))
    listed = world.list_keys[1]
    try:
        assert world.server.trigger_ttl(1600.0) == 1
        assert entered.wait(5.0)
        started = time.monotonic()
        response = parse_response(client.resolve(build_query(31, listed)))
        assert time.monotonic() - started < 1.0
        assert response.answers[0].data == world.table[listed].answers[0]
    finally:
        release.set()
    assert client.wait_for_generation(world.maintainer.generation)
    assert serialize(client.plist) == serialize(world.maintainer.plist)


def test_pool_rotations_reach_every_client(world_factory, monkeypatch):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    sent = []
    send = world.server._send

    def counted(session, msg_type, body):
        sent.append(msg_type)
        return send(session, msg_type, body)

    monkeypatch.setattr(world.server, "_send", counted)
    key = world.list_keys[0]
    ips = [bytes([10, 0, 0, i]) for i in range(1, 4)]
    # three answer sets within the change window make it load-balanced;
    # after that the rng picks the active answer on each requery
    for step in range(40):
        world.table[key] = UpstreamAnswer(60, (ips[step],) if step < 3 else tuple(ips))
        world.server.trigger_ttl(1600.0 + 60.0 * step)
        if wire.MSG_LB_UPDATE_BATCH in sent:
            break
    assert wire.MSG_LB_UPDATE_BATCH in sent
    assert world.maintainer.plist.lb_entry_order == (key,)
    for client in world.clients.values():
        assert client.wait_for_generation(world.maintainer.generation)
        assert serialize(client.plist) == serialize(world.maintainer.plist)


def test_a_diverged_client_resyncs_and_converges(world_factory, caplog):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    gone = world.list_keys[1]
    kept = [d for d in iter_records(client.plist) if d.key != gone]
    client._install(build_list(kept, client.generation))
    world.table[gone] = UpstreamAnswer(600, ())  # the record leaves the list
    with caplog.at_level(logging.WARNING, logger="lluad.client"):
        assert world.server.trigger_ttl(1600.0) == 1
        for other in world.clients.values():
            assert other.wait_for_generation(world.maintainer.generation)
            assert serialize(other.plist) == serialize(world.maintainer.plist)
    assert "cli0: update did not apply, resyncing" in caplog.text
    assert client.connected


@pytest.mark.parametrize(
    "client_id, token",
    [("cli1", "tok-cli1"), ("cli0", "wrong")],
    ids=["another-client", "bad-token"],
)
def test_a_resync_must_carry_the_sessions_own_credentials(
    world_factory, client_id, token
):
    world = world_factory(n_shufflers=2, n_plain=2, n_shuffle=1)
    world.clients.pop("cli0").close()
    with socket.create_connection(world.server.address, timeout=5.0) as sock:
        stream = wire.FrameStream(sock)
        stream.send(wire.MSG_LIST_REQUEST, wire.encode_list_request("cli0", "tok-cli0"))
        assert stream.recv()[0] == wire.MSG_LIST_SNAPSHOT
        stream.send(wire.MSG_LIST_REQUEST, wire.encode_list_request(client_id, token))
        msg_type, body = stream.recv()
        assert msg_type == wire.MSG_ERROR
        assert wire.decode_error(body)[0] == ERR_AUTH
        with pytest.raises(wire.ConnectionClosed):
            stream.recv()
    assert wait_until(lambda: "cli0" not in world.server._sessions)
    assert "cli1" in world.server._sessions
    assert world.clients["cli1"].connected


def self_signed_tls(ip: str, directory) -> tuple[ssl.SSLContext, ssl.SSLContext]:
    """A server context with a fresh certificate for `ip` (its PEM files
    written to `directory`), and a client context that trusts only it."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "lluad test")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address(ip))]),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    cert_pem = cert.public_bytes(serialization.Encoding.PEM)
    key_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )
    chain = directory / "server.pem"
    chain.write_bytes(cert_pem + key_pem)
    server_ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server_ctx.load_cert_chain(chain)
    client_ctx = ssl.create_default_context(cadata=cert_pem.decode())
    return server_ctx, client_ctx


def test_tls_sessions_serve_the_list_and_refuse_plain_tcp(tmp_path):
    tls = self_signed_tls("127.0.0.1", tmp_path)
    world = World(n_shufflers=2, n_plain=1, n_shuffle=1, tls=tls)
    try:
        client = world.clients["cli0"]
        assert client.generation == world.maintainer.generation
        key = world.list_keys[0]
        response = parse_response(client.resolve(build_query(31, key)))
        assert response.answers[0].data == world.table[key].answers[0]
        with socket.create_connection(world.server.address, timeout=5.0) as plain:
            wire.FrameStream(plain).send(
                wire.MSG_LIST_REQUEST, wire.encode_list_request("cli0", "tok-cli0")
            )
            received = b""
            try:
                while chunk := plain.recv(4096):
                    received += chunk
            except ConnectionResetError:
                pass
        # at most a TLS alert record, never a frame
        assert received[:1] in (b"", b"\x15")
        assert client.connected
    finally:
        started = time.monotonic()
        world.stop()
        assert time.monotonic() - started < TLS_HANDSHAKE_TIMEOUT / 2


def test_a_silent_tls_peer_holds_up_no_other_connection(tmp_path):
    tls = self_signed_tls("127.0.0.1", tmp_path)
    world = World(n_shufflers=2, n_plain=1, n_shuffle=1, tls=tls)
    silent = socket.create_connection(world.server.address)
    try:
        world.clients.pop("cli0").close()
        fresh = world.clients["cli0"] = world.make_client("cli0")
        started = time.monotonic()
        fresh.connect()
        assert time.monotonic() - started < 2.0
        assert fresh.generation == world.maintainer.generation
    finally:
        started = time.monotonic()
        world.stop()
        stopped = time.monotonic() - started
        silent.close()
    assert stopped < 2.0


def test_a_held_state_lock_holds_up_no_tls_handshake(tmp_path):
    tls = self_signed_tls("127.0.0.1", tmp_path)
    world = World(n_shufflers=2, n_plain=1, n_shuffle=1, tls=tls)
    held, release = threading.Event(), threading.Event()

    def hold():
        with world.server._state_lock:
            held.set()
            release.wait(10.0)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(5.0)
        started = time.monotonic()
        with socket.create_connection(world.server.address, timeout=2.0) as sock:
            with tls[1].wrap_socket(sock, server_hostname="127.0.0.1"):
                assert time.monotonic() - started < 2.0
    finally:
        release.set()
        holder.join()
        world.stop()


# -- maintenance off the session lock ----------------------------------------------


def stalled_ttl_pass(world: World) -> tuple[threading.Event, threading.Thread]:
    """Change one record upstream, then start a TTL pass on another thread
    whose upstream queries wait until the returned Event is set (10 s at
    most).  Returns once the pass waits on its first query."""
    world.table[world.list_keys[0]] = UpstreamAnswer(600, (b"\x0a\x09\x09\x09",))
    asked, release = threading.Event(), threading.Event()
    resolve = world.maintainer.upstream.resolve

    def stalled(key: RecordKey) -> UpstreamAnswer:
        asked.set()
        release.wait(10.0)
        return resolve(key)

    world.maintainer.upstream = SimulatedUpstream(stalled)
    ttl = threading.Thread(target=world.server.trigger_ttl, args=(5000.0,))
    ttl.start()
    assert asked.wait(5.0)
    return release, ttl


def test_a_stalled_ttl_pass_holds_up_no_login(world_factory):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    before = world.maintainer.generation
    release, ttl = stalled_ttl_pass(world)
    try:
        world.clients.pop("cli0").close()
        fresh = world.clients["cli0"] = world.make_client("cli0")
        started = time.monotonic()
        fresh.connect()
        assert time.monotonic() - started < 2.0
        assert fresh.generation == before
    finally:
        release.set()
        ttl.join()
    assert world.maintainer.generation > before
    assert fresh.wait_for_generation(world.maintainer.generation)
    assert serialize(fresh.plist) == serialize(world.maintainer.plist)


def test_stop_returns_during_a_stalled_ttl_pass():
    world = World(n_shufflers=2, n_plain=1, n_shuffle=1)
    release, ttl = stalled_ttl_pass(world)
    try:
        started = time.monotonic()
        world.stop()
        assert time.monotonic() - started < 2.0
    finally:
        release.set()
        ttl.join()


def test_run_forever_logs_a_failed_pass_and_keeps_going(caplog):
    class Flaky(LluadServer):
        def __init__(self):  # only what run_forever reads
            self._stopping = False
            self.calls = []

        def trigger_ttl(self, now):
            self.calls.append("trigger_ttl")
            if len(self.calls) == 1:
                raise RuntimeError("listed.example A is broken")
            raise KeyboardInterrupt

        def run_vote_round(self, round_index):
            self.calls.append("run_vote_round")

        def trigger_refresh(self, now):
            self.calls.append("trigger_refresh")

    server = Flaky()
    with caplog.at_level(logging.ERROR, logger="lluad.server"):
        with pytest.raises(KeyboardInterrupt):
            server.run_forever(0.0)
    assert server.calls == ["trigger_ttl", "run_vote_round", "trigger_refresh", "trigger_ttl"]
    assert [r.getMessage() for r in caplog.records] == ["trigger_ttl failed: RuntimeError"]
    assert caplog.records[0].levelno == logging.ERROR


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


def test_a_shuffler_key_must_be_the_registered_one():
    """A client started with another shuffler's private key would garble
    every packet routed to it; it is refused when built."""
    rng = Random(41)
    shufflers = [keypair(rng) for _ in range(2)]
    with pytest.raises(ValueError, match="wrong key for shuffler 0"):
        LluadClient(
            "shuf0",
            "tok-shuf0",
            ("127.0.0.1", 9),
            shuffler_pubs={j: pub for j, (_, pub) in enumerate(shufflers)},
            server_pub=keypair(rng)[1],
            shuffler_index=0,
            shuffler_priv=shufflers[1][0],
        )


def test_own_acks_are_verified_while_a_relay_table_is_held():
    """The client tells its own acks from relay work by frame type alone,
    not by whether it still holds a flow table."""
    rng = Random(31)
    shufflers = [keypair(rng) for _ in range(2)]
    server_priv, server_pub = keypair(rng)
    quota = 3
    listener = socket.create_server(("127.0.0.1", 0))
    client = LluadClient(
        "shuf0",
        "tok-shuf0",
        listener.getsockname()[:2],
        shuffler_pubs={j: pub for j, (_, pub) in enumerate(shufflers)},
        server_pub=server_pub,
        shuffler_index=0,
        shuffler_priv=shufflers[0][0],
        quota=quota,
        rng=Random(32),
    )
    connecting = threading.Thread(target=client.connect)
    connecting.start()
    conn, _ = listener.accept()
    stream = wire.FrameStream(conn)
    try:
        assert stream.recv()[0] == wire.MSG_LIST_REQUEST
        stream.send(wire.MSG_LIST_SNAPSHOT, wire.encode_list_snapshot(build_list([])))
        connecting.join()
        ctx = RoundContext.for_online(808, [0, 1], 2, n_shuffle=1)
        stream.send(wire.MSG_ROUND_START, wire.encode_round_start(ctx))
        msg_type, body = stream.recv()
        assert msg_type == wire.MSG_VOTE_BATCH
        submission = wire.decode_packet_batch(body)
        assert len(submission) == quota
        # one relay vote request: the client now holds that hop's flow table
        stream.send(wire.MSG_VOTE_BATCH, wire.encode_packet_batch(submission))
        msg_type, body = stream.recv()
        assert msg_type == wire.MSG_VOTE_BATCH
        assert len(wire.decode_packet_batch(body)) == quota
        # the round itself runs in-process, to make the client's true acks
        nodes = {j: ShufflerNode(j, priv) for j, (priv, _) in enumerate(shufflers)}
        result = RoundServer(server_priv, quota, LocalTransport(nodes)).run_round(
            ctx, {"shuf0": submission}
        )
        acks = wire.encode_packet_batch(result.acks["shuf0"])
        stream.send(wire.MSG_SENDER_ACKS, acks)
        assert client.wait_for_rounds(1, timeout=10.0)
        assert client.last_outcomes == [AckOutcome.VERIFIED] * quota
        assert client.reports_sent == 0
        assert len(client.node._flow_stack) == 1
    finally:
        client.close()
        stream.close()
        listener.close()


def test_server_keeps_at_most_quota_reports_per_sender_and_round(world_factory):
    world = world_factory(n_shufflers=3, n_plain=1, n_shuffle=2, quota=2)
    world.server.report_log = ReportLog(window_rounds=1)
    reporter = world.clients["cli0"]

    def round_then_reports(t: int, rounds: int, reports) -> list:
        assert world.server.run_vote_round(t) is not None
        assert reporter.wait_for_rounds(rounds)
        for report in reports:
            reporter._stream.send(
                wire.MSG_MISBEHAVIOR_REPORT, wire.encode_misbehavior_report(report)
            )
        # the session answers a resync only after filing every frame before it
        before = reporter.plist
        reporter.resync()
        assert wait_until(lambda: reporter.plist is not before)
        return [report for _, report in world.server.report_log._entries]

    flood = 10 * world.quota
    first, second = MisbehaviorReport(700, (0, 1)), MisbehaviorReport(701, (1, 2))
    assert round_then_reports(700, 1, [first] * flood) == [first] * world.quota
    # a report on an earlier round is refused, and the first round's
    # entries have left the one-round window
    kept = round_then_reports(701, 2, [first] + [second] * flood)
    assert kept == [second] * world.quota


def test_shufflers_flagged_by_reports_are_logged(world_factory, caplog):
    world = world_factory(n_shufflers=3, n_plain=1, n_shuffle=2, quota=2)
    world.server.report_log = ReportLog(threshold=2)
    reporter = world.clients["cli0"]

    def flag_lines(t: int) -> list[str]:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lluad.server"):
            assert world.server.run_vote_round(t) is not None
        return [r.getMessage() for r in caplog.records if "flag" in r.getMessage()]

    assert flag_lines(900) == []
    assert reporter.wait_for_rounds(1)
    for _ in range(2):
        reporter._stream.send(
            wire.MSG_MISBEHAVIOR_REPORT,
            wire.encode_misbehavior_report(MisbehaviorReport(900, (1, 2))),
        )
    # the session answers a resync only after filing every frame before it
    before = reporter.plist
    reporter.resync()
    assert wait_until(lambda: reporter.plist is not before)
    assert flag_lines(901) == ["reports flag shufflers [1, 2]"]


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


def test_a_late_shuffler_reply_is_not_taken_for_the_next_hop(
    world_factory, monkeypatch, caplog
):
    world = world_factory(
        n_shufflers=4, n_plain=2, n_shuffle=3, quota=4, straggler_timeout=1.0
    )
    node = world.clients["shuf0"].node
    process_batch = node.process_batch
    late = []

    def late_the_first_time(batch, t_timestamp):
        if not late:
            late.append(len(batch))
            time.sleep(1.5)
        return process_batch(batch, t_timestamp)

    monkeypatch.setattr(node, "process_batch", late_the_first_time)
    with caplog.at_level(logging.WARNING, logger="lluad.server"):
        result = world.server.run_vote_round(1700000100)
    assert result is not None
    assert late[0] > 0
    assert result.dropped_per_hop == {1: late[0]}
    assert "late reply from shuf0" in caplog.text
    outcomes = Counter()
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
        outcomes.update(client.last_outcomes)
    # only the packets of the late batch lose their acks
    assert outcomes[AckOutcome.VERIFIED] == len(world.clients) * world.quota - late[0]


def test_replies_to_no_request_are_dropped(world_factory):
    world = world_factory(n_shufflers=3, n_plain=1, n_shuffle=2)

    def round_verifies(t: int, rounds: int) -> None:
        result = world.server.run_vote_round(t)
        assert result is not None
        assert not result.dropped_per_hop
        for client in world.clients.values():
            assert client.wait_for_rounds(rounds)
            assert client.last_outcomes == [AckOutcome.VERIFIED] * world.quota

    round_verifies(1700000200, 1)
    flooder = world.clients["cli0"]
    for _ in range(1000):
        flooder._stream.send(wire.MSG_VOTE_BATCH, wire.encode_packet_batch([]))
    # the session answers a resync only after reading every frame before it
    before = flooder.plist
    flooder.resync()
    assert wait_until(lambda: flooder.plist is not before)
    assert world.server._sessions["cli0"].replies.qsize() == 0
    round_verifies(1700000201, 2)


@pytest.mark.parametrize("tls", [False, True], ids=["tcp", "tls"])
def test_a_stalled_reader_is_dropped_and_the_server_serves_on(tls, tmp_path):
    contexts = self_signed_tls("127.0.0.1", tmp_path) if tls else None
    world = World(n_shufflers=2, n_plain=2, n_shuffle=1, tls=contexts)
    stalled = None
    try:
        world.clients.pop("cli1").close()
        world.clients.pop("cli0").close()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(world.server.address)
        if tls:
            sock = contexts[1].wrap_socket(sock, server_hostname="127.0.0.1")
        stalled = wire.FrameStream(sock)
        stalled.send(wire.MSG_LIST_REQUEST, wire.encode_list_request("cli1", "tok-cli1"))
        assert stalled.recv()[0] == wire.MSG_LIST_SNAPSHOT  # and never reads again

        # about 200 kB a frame, broadcast under the state lock as updates are
        body = wire.encode_hash_request([bytes(DIGEST_LEN)] * 6900)

        def publish():
            with world.server._state_lock:
                for _ in range(25):
                    world.server._broadcast(wire.MSG_HASH_REQUEST, body)

        publisher = threading.Thread(target=publish)
        publisher.start()
        fresh = world.clients["cli0"] = world.make_client("cli0")
        connecting = threading.Thread(target=fresh.connect)
        connecting.start()
        connecting.join(timeout=10.0)
        assert not connecting.is_alive()
        assert fresh.generation == world.maintainer.generation
        publisher.join(timeout=10.0)
        assert not publisher.is_alive()
        # dropped by its own writer, once a send has made no progress
        assert wait_until(lambda: "cli1" not in world.server._sessions, 2 * SEND_TIMEOUT)

        assert world.server.run_vote_round(1700000300) is not None
        assert fresh.wait_for_rounds(1, timeout=10.0)
        assert fresh.last_outcomes == [AckOutcome.VERIFIED] * world.quota
    finally:
        if stalled is not None:
            stalled.close()
        world.stop()


def publish_by_hand(world: World, message) -> None:
    """Apply `message` to the maintainer's list by hand, and publish it."""
    world.maintainer.plist = apply_update(world.maintainer.plist, message)
    world.server._publish([message])


def add_pool(world: World) -> None:
    answers = tuple(bytes([10, 0, 0, i]) for i in range(1, 4))
    record = RecordDef(akey("pool.example.com"), answers[0], answers)
    publish_by_hand(world, MembershipUpdate(additions=(record,)))


def test_a_login_waits_on_no_other_sessions_stalled_socket(world_factory):
    world = world_factory(n_shufflers=0, n_plain=4)
    add_pool(world)
    stalled = []
    for cid in ("cli1", "cli2", "cli3"):
        world.clients.pop(cid).close()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(world.server.address)
        stalled.append(wire.FrameStream(sock))
        stalled[-1].send(wire.MSG_LIST_REQUEST, wire.encode_list_request(cid, f"tok-{cid}"))
        assert stalled[-1].recv()[0] == wire.MSG_LIST_SNAPSHOT  # and never reads again
    rotation = LbUpdate(((0, 1),) * 40000)  # 200 kB a frame
    try:
        for _ in range(25):  # far more than the stalled sockets' buffers take
            started = time.monotonic()
            publish_by_hand(world, rotation)
            assert time.monotonic() - started < 1.0
        fresh = world.clients["cli0"]
        started = time.monotonic()
        fresh.reconnect()
        assert time.monotonic() - started < 1.0
        gone = lambda: not {"cli1", "cli2", "cli3"} & world.server._sessions.keys()
        assert wait_until(gone, 2 * SEND_TIMEOUT + 1)
    finally:
        for stream in stalled:
            stream.close()
    assert fresh.wait_for_generation(world.maintainer.generation)
    assert serialize(fresh.plist) == serialize(world.maintainer.plist)


def test_a_resync_during_a_publish_takes_no_batch_twice(world_factory):
    world = world_factory(n_shufflers=0, n_plain=2)
    add_pool(world)
    resyncing = world.clients["cli1"]
    slowed = world.server._sessions["cli0"].stream
    send, sending = slowed.send, threading.Event()

    def slow_send(msg_type, body=b""):
        sending.set()
        time.sleep(0.5)
        send(msg_type, body)

    slowed.send = slow_send
    for step in range(1, 4):
        sending.clear()
        publisher = threading.Thread(
            target=publish_by_hand, args=(world, LbUpdate(((0, step),)))
        )
        publisher.start()
        assert sending.wait(5.0)
        resyncing.resync()  # while the batch is held up on cli0
        publisher.join(timeout=10.0)
        assert not publisher.is_alive()
        # an error frame after the batch: once it is read, so is all before it
        world.server._broadcast(wire.MSG_ERROR, wire.encode_error(ERR_ROUND_ABORTED, "mark"))
        assert wait_until(lambda: len(resyncing.errors) == step)
        assert serialize(resyncing.plist) == serialize(world.maintainer.plist)


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
    with voter._lock:
        voter.buffer.offer(long_key)

    first = world.server.run_vote_round(500)
    assert digest in first.unknown_digests
    assert first.tally[long_key] == 0
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
    assert wait_until(lambda: sum(map(len, voter.voter.pending)) == 3)

    second = world.server.run_vote_round(501)
    assert second.reassembled == (long_key,)
    assert second.tally[long_key] == 1
    assert world.server.round_server.digest_table[digest] == long_key
    for client in world.clients.values():
        assert client.wait_for_rounds(2)
        assert client.last_outcomes == [AckOutcome.VERIFIED] * world.quota


def test_fragment_groups_are_never_split_across_rounds(world_factory):
    world = world_factory(n_shufflers=4, n_plain=1, n_shuffle=2, quota=4)
    keys = [
        akey("a-rather-long-service-name.subdomain.partition.example.com"),
        akey("another-long-service-name.subdomain.partition.example.com"),
    ]
    assert [len(fragment_payloads(k, Random(0))) for k in keys] == [3, 3]
    voter = world.clients["cli0"]
    with voter._lock:
        for k in keys:
            voter.buffer.offer(k)

    first = world.server.run_vote_round(500)
    assert {record_digest(k) for k in keys} <= set(first.unknown_digests)
    for client in world.clients.values():
        assert client.wait_for_rounds(1)
    assert wait_until(lambda: sum(map(len, voter.voter.pending)) == 6)

    # quota 4 holds one 3-piece group a round: the second waits whole
    second = world.server.run_vote_round(501)
    for client in world.clients.values():
        assert client.wait_for_rounds(2)
    third = world.server.run_vote_round(502)
    assert len(second.reassembled) == len(third.reassembled) == 1
    assert set(second.reassembled + third.reassembled) == set(keys)
    for k in keys:
        assert world.server.round_server.digest_table[record_digest(k)] == k
    for client in world.clients.values():
        assert client.wait_for_rounds(3)


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

    class Canned:
        """A fallback that answers every query with one fixed reply."""

        def __init__(self):
            self.queries = []

        def forward(self, query: bytes) -> bytes:
            self.queries.append(query)
            return b"canned reply"

    client.fallback = Canned()
    assert client.resolve(bytes(unsupported)) == b"canned reply"
    assert client.fallback.queries == [bytes(unsupported)]
    assert client.misses == 4
    client.fallback = None
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


def fallback_client(fallback) -> LluadClient:
    """A client with no list yet: every query goes to `fallback`."""
    return LluadClient(
        "cli0", "tok", ("127.0.0.1", 9), shuffler_pubs={}, server_pub=bytes(32),
        fallback=fallback,
    )


FALLBACK_ANSWER = RecordAnswer(RecordType.A, b"\xc0\x00\x02\x2c")


def answer_query(query: bytes) -> bytes:
    key, txid = parse_query(query)
    return build_response(txid, key, [FALLBACK_ANSWER], 300)


def test_plain_udp_fallback_forwards_misses():
    miss = akey("not-on-any-list.example")
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as resolver:
        resolver.bind(("127.0.0.1", 0))

        def answer_once():
            query, peer = resolver.recvfrom(4096)
            resolver.sendto(answer_query(query), peer)

        thread = threading.Thread(target=answer_once)
        thread.start()
        client = fallback_client(PlainUdpFallback(resolver.getsockname(), timeout=0.5))
        answered = parse_response(client.resolve(build_query(41, miss)))
        thread.join()
        assert (answered.txid, answered.rcode) == (41, 0)
        assert answered.answers[0].data == FALLBACK_ANSWER.data
        # the resolver answers no more: the stub says SERVFAIL
        failed = parse_response(client.resolve(build_query(42, miss)))
    assert (failed.txid, failed.rcode) == (42, 2)
    assert (client.misses, client.fallback_failures) == (2, 1)


def test_doh_fallback_forwards_misses(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)

    class Resolver(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            query = self.rfile.read(int(self.headers["Content-Length"]))
            if self.path == "/garbage":
                self.wfile.write(b"garbage\r\n\r\n")  # in place of a status line
                return
            if self.path != "/dns-query":
                self.send_error(500)
                return
            assert self.headers["Content-Type"] == "application/dns-message"
            reply = answer_query(query)
            self.send_response(200)
            self.send_header("Content-Type", "application/dns-message")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Resolver)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        base = "http://127.0.0.1:%d" % server.server_address[1]
        miss = akey("not-on-any-list.example")
        client = fallback_client(DohFallback(base + "/dns-query"))
        answered = parse_response(client.resolve(build_query(43, miss)))
        assert (answered.txid, answered.rcode) == (43, 0)
        assert answered.answers[0].data == FALLBACK_ANSWER.data
        client.fallback = DohFallback(base + "/broken")
        failed = parse_response(client.resolve(build_query(44, miss)))
        assert (failed.txid, failed.rcode) == (44, 2)
        assert (client.misses, client.fallback_failures) == (2, 1)
        # a reply that is not HTTP is a failure too, and the stub serves on
        client.fallback = DohFallback(base + "/garbage")
        stub = client.start_dns_listener(port=0)
        failed = ask(stub, miss, 45)
        assert failed is not None and (failed.txid, failed.rcode) == (45, 2)
        assert (client.misses, client.fallback_failures) == (3, 2)
        client.fallback = DohFallback(base + "/dns-query")
        answered = ask(stub, miss, 46)
        assert answered is not None and (answered.txid, answered.rcode) == (46, 0)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join()


def ask(addr, key: RecordKey, txid: int):
    """One query to a stub over UDP: the parsed reply, or None after 1 s."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(1.0)
        sock.sendto(build_query(txid, key), addr)
        try:
            return parse_response(sock.recvfrom(4096)[0])
        except socket.timeout:
            return None


def assert_stub_answers(client, world, times: int = 3) -> None:
    key = world.list_keys[0]
    for txid in range(times):
        response = ask(client.dns_address, key, txid)
        assert response is not None, f"query {txid} got no answer"
        assert response.answers[0].data == world.table[key].answers[0]


def test_undecodable_first_snapshot_closes_the_connection(world_factory, monkeypatch):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    monkeypatch.setattr(wire, "encode_list_snapshot", lambda plist: bytes(8) + b"LLPL")
    client = world.make_client("cli0")
    with pytest.raises(wire.FrameError):
        client.connect()
    # the server drops the session only once the client has closed it
    assert wait_until(lambda: "cli0" not in world.server._sessions)


def test_stub_keeps_answering_across_reconnect_and_server_stop(world_factory):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    client.start_dns_listener(port=0)
    assert_stub_answers(client, world)
    client.reconnect()
    assert client.connected
    assert_stub_answers(client, world)
    world.server.stop()
    assert wait_until(lambda: not client.connected)
    assert_stub_answers(client, world)


def test_undecodable_snapshot_ends_the_session_and_the_stub_keeps_answering(
    world_factory, monkeypatch, caplog
):
    world = world_factory(n_shufflers=2, n_plain=1, n_shuffle=1)
    client = world.clients["cli0"]
    client.start_dns_listener(port=0)
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    snapshot = bytearray(serialize(world.maintainer.plist))
    snapshot[16] = 0xFF  # first byte of the first label: not ascii
    bad = world.maintainer.generation.to_bytes(8, "big") + bytes(snapshot)
    with caplog.at_level(logging.WARNING, logger="lluad.client"):
        world.server._sessions["cli0"].stream.send(wire.MSG_LIST_SNAPSHOT, bad)
        assert wait_until(lambda: not client.connected)
    assert "bad frame from server" in caplog.text
    assert wait_until(lambda: "cli0" not in world.server._sessions)
    assert crashes == []
    assert client.generation == world.maintainer.generation
    assert_stub_answers(client, world)


# -- vote buffer and fallback policy ---------------------------------------------


def test_stop_and_close_end_their_threads_and_free_the_daemons():
    before = set(threading.enumerate())
    world = World(n_shufflers=2, n_plain=1, n_shuffle=1)
    assert world.server.run_vote_round(1700000400) is not None  # readers and writers
    client = world.clients["cli0"]
    addr = client.start_dns_listener(port=0)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        sock.sendto(build_query(5, world.list_keys[0]), addr)
        sock.recvfrom(4096)
    threads = [world.server._accept_thread, client._udp_thread]
    refs = [weakref.ref(world.server), weakref.ref(client)]
    world.stop()
    del world, client
    gc.collect()
    assert not set(threads) & set(threading.enumerate())
    assert set(threading.enumerate()) <= before
    assert [ref() for ref in refs] == [None, None]


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
