"""Client daemon: local stub resolver backed by the replicated list,
vote buffering, round participation, and shuffler duties.

One reader thread owns all inbound frames; round participation happens
inline there because the protocol is strictly request-driven from the
server side.  The UDP listener runs its own thread and only touches the
list and the vote buffer.  One lock guards the buffer and each swap of
the list, an immutable value read without it.  Only the reader thread
swaps lists, so it computes each update with no lock held and then
installs it: a query never waits for an update to be computed.
"""

from __future__ import annotations

import http.client
import logging
import socket
import ssl
import struct
import threading
import time
import urllib.request
from collections import OrderedDict
from random import Random
from typing import Callable, Mapping

from . import wire
from .curve import encode_element, mult_base
from .dnsmsg import (
    MalformedMessage,
    RCODE_NXDOMAIN,
    RCODE_SERVFAIL,
    RecordAnswer,
    RecordKey,
    UnsupportedType,
    build_response,
    parse_query,
    udp_exchange,
)
from .maintenance import apply_update
from .mixnet import (
    FLAG_HASHED,
    AckOutcome,
    MixPacket,
    PlannedVote,
    RoundContext,
    ShufflerNode,
    client_submit,
    encode_vote_payload,
    fragment_payloads,
    verify_round_acks,
)
from .poplist import (
    FormatError,
    IndexOutOfRange,
    InvariantViolation,
    PopularityList,
    UnknownRecord,
    lookup,
)

log = logging.getLogger(__name__)

DEFAULT_DNS_PORT = 5353
DIGEST_MEMORY_CAP = 4096


class AuthRejected(Exception):
    """The server refused this client's credentials."""


class VoteBuffer:
    """Per-window vote candidates.

    Every resolution gets one Bernoulli draw at `voting_rate`; a winning
    key enters the buffer at most once per window.  drain() closes the
    window.
    """

    def __init__(self, voting_rate: float, rng: Random):
        if not 0.0 <= voting_rate <= 1.0:
            raise ValueError("voting_rate must be within [0, 1]")
        self.voting_rate = voting_rate
        self._rng = rng
        self._keys: dict[RecordKey, None] = {}
        self.offered = 0
        self.sampled = 0

    def offer(self, key: RecordKey) -> bool:
        self.offered += 1
        if self._rng.random() >= self.voting_rate:
            return False
        self.sampled += 1
        if key in self._keys:
            return False
        self._keys[key] = None
        return True

    def drain(self) -> list[RecordKey]:
        keys = list(self._keys)
        self._keys.clear()
        return keys

    def __len__(self) -> int:
        return len(self._keys)


# -- fallback transports ---------------------------------------------------


class PlainUdpFallback:
    """Classic cleartext forwarding to one upstream resolver."""

    def __init__(self, endpoint: tuple[str, int], timeout: float = 3.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def forward(self, query: bytes) -> bytes:
        return udp_exchange(query, self.endpoint, self.timeout)


class DohFallback:
    """DNS over HTTPS via POSTed binary messages."""

    def __init__(self, url: str, timeout: float = 5.0):
        self.url = url
        self.timeout = timeout

    def forward(self, query: bytes) -> bytes:
        request = urllib.request.Request(
            self.url,
            data=query,
            headers={
                "Content-Type": "application/dns-message",
                "Accept": "application/dns-message",
            },
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return resp.read()


class SimulatedFallback:
    """Synthesizes responses from a local resolver function; stands in
    for any remote path in tests and simulations."""

    def __init__(
        self,
        resolver: Callable[[RecordKey], list[RecordAnswer] | None],
        ttl: int = 300,
    ):
        self.resolver = resolver
        self.ttl = ttl
        self.queries = 0

    def forward(self, query: bytes) -> bytes:
        key, txid = parse_query(query)
        self.queries += 1
        answers = self.resolver(key)
        if answers is None:
            return build_response(txid, key, [], 0, rcode=RCODE_NXDOMAIN)
        return build_response(txid, key, answers, self.ttl)


def _join(thread: threading.Thread | None) -> None:
    if thread is not None and thread is not threading.current_thread():
        thread.join()


def _header_only_reply(query: bytes, rcode: int) -> bytes | None:
    # salvage the transaction id so the stub can at least say SERVFAIL
    if len(query) < 2:
        return None
    txid = int.from_bytes(query[:2], "big")
    return struct.pack("!HHHHHH", txid, 0x8180 | (rcode & 0xF), 0, 0, 0, 0)


class LluadClient:
    """One participant: resolver, voter, and (optionally) shuffler."""

    def __init__(
        self,
        client_id: str,
        token: str,
        server_addr: tuple[str, int],
        *,
        shuffler_pubs: Mapping[int, bytes],
        server_pub: bytes,
        shuffler_index: int | None = None,
        shuffler_priv: int | None = None,
        quota: int = 10,
        voting_rate: float = 0.3,
        min_ttl: int = 60,
        fallback=None,
        rng: Random | None = None,
        ssl_context: ssl.SSLContext | None = None,
    ):
        if (shuffler_index is None) != (shuffler_priv is None):
            raise ValueError("a shuffler needs both its registry index and its key")
        self.client_id = client_id
        self._token = token
        self._server_addr = server_addr
        self.shuffler_pubs = dict(shuffler_pubs)
        self.server_pub = server_pub
        self.quota = quota
        self.min_ttl = min_ttl
        self.fallback = fallback
        self._rng = rng or Random()
        self._ssl_context = ssl_context
        self.node = None
        if shuffler_index is not None:
            pub = encode_element(mult_base(shuffler_priv))
            if shuffler_pubs.get(shuffler_index) != pub:
                raise ValueError(f"wrong key for shuffler {shuffler_index}")
            self.node = ShufflerNode(shuffler_index, shuffler_priv, rng=self._rng)
        self.buffer = VoteBuffer(voting_rate, self._rng)
        self._lock = threading.Lock()  # the vote buffer, and each list swap
        self._plist: PopularityList | None = None  # replaced only by _install
        self._stream: wire.FrameStream | None = None
        self._reader: threading.Thread | None = None
        self._udp_sock: socket.socket | None = None
        self._udp_thread: threading.Thread | None = None
        self._stopping = False  # the session is ending; the stub runs until close()
        self._cv = threading.Condition(self._lock)
        # round state, owned by the reader thread
        self._round_ctx: RoundContext | None = None
        self._sent_votes: list[PlannedVote] = []
        self._hashed_sent: OrderedDict[bytes, RecordKey] = OrderedDict()
        self._pending_fragments: list[bytes] = []
        # observable outcomes
        self.rounds_participated = 0
        self.last_outcomes: list[AckOutcome] = []
        self.ack_counts = {outcome: 0 for outcome in AckOutcome}
        self.reports_sent = 0
        self.hits = 0
        self.misses = 0
        self.fallback_failures = 0
        self.errors: list[tuple[int, str]] = []

    # -- connection lifecycle ------------------------------------------------

    def connect(self, timeout: float = 10.0) -> None:
        sock = socket.create_connection(self._server_addr, timeout=timeout)
        if self._ssl_context is not None:
            sock = self._ssl_context.wrap_socket(
                sock, server_hostname=self._server_addr[0]
            )
        sock.settimeout(None)
        self._stream = wire.FrameStream(sock)
        try:
            self.resync()
            msg_type, body = self._stream.recv()
            if msg_type == wire.MSG_ERROR:
                raise AuthRejected(wire.decode_error(body)[1])
            if msg_type != wire.MSG_LIST_SNAPSHOT:
                raise wire.FrameError(f"expected snapshot, got 0x{msg_type:02x}")
            plist = wire.decode_list_snapshot(body)
        except (AuthRejected, wire.FrameError, wire.ConnectionClosed, OSError):
            self._stream.close()
            raise
        self._install(plist)
        self._stopping = False
        self._reader = threading.Thread(target=self._reader_loop, daemon=True)
        self._reader.start()

    def close(self) -> None:
        """Close the session and the stub listener, and wait for the
        threads reading them to end."""
        self._close_session()
        if self._udp_sock is not None:
            wire.close_socket(self._udp_sock)
        _join(self._udp_thread)

    def _close_session(self) -> None:
        self._stopping = True
        if self._stream is not None:
            self._stream.close()
        with self._cv:
            self._cv.notify_all()
        _join(self._reader)

    @property
    def connected(self) -> bool:
        return (
            self._reader is not None
            and self._reader.is_alive()
            and not self._stopping
        )

    def reconnect(self, timeout: float = 10.0) -> None:
        """Drop the session and start fresh; state converges through the
        new snapshot.  The stub keeps answering from the list it has."""
        self._close_session()
        self.connect(timeout=timeout)

    def resync(self) -> None:
        """Send the credentials; the server answers with a fresh snapshot."""
        assert self._stream is not None
        self._stream.send(
            wire.MSG_LIST_REQUEST,
            wire.encode_list_request(self.client_id, self._token),
        )

    @property
    def generation(self) -> int:
        plist = self._plist
        return -1 if plist is None else plist.generation

    @property
    def plist(self) -> PopularityList | None:
        return self._plist

    def wait_for_generation(self, generation: int, timeout: float = 10.0) -> bool:
        return self._wait(lambda: self.generation >= generation, timeout)

    def wait_for_rounds(self, count: int, timeout: float = 30.0) -> bool:
        return self._wait(lambda: self.rounds_participated >= count, timeout)

    def _wait(self, done: Callable[[], bool], timeout: float) -> bool:
        """Wait until `done()` holds, the session ends or `timeout`
        passes, and say whether it holds."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while not done():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopping:
                    return done()
                self._cv.wait(timeout=remaining)
        return True

    # -- inbound frames ------------------------------------------------------

    def _reader_loop(self) -> None:
        stream = self._stream
        assert stream is not None
        try:
            while not self._stopping:
                msg_type, body = stream.recv()
                self._dispatch(msg_type, body)
        except (wire.ConnectionClosed, OSError):
            pass
        except wire.FrameError as exc:
            log.warning("client %s: bad frame from server: %s", self.client_id, exc)
        finally:
            self._stopping = True
            stream.close()
            with self._cv:
                self._cv.notify_all()

    def _dispatch(self, msg_type: int, body: bytes) -> None:
        if msg_type == wire.MSG_LIST_SNAPSHOT:
            self._install(wire.decode_list_snapshot(body))
        elif msg_type == wire.MSG_MEMBERSHIP_UPDATE:
            self._apply(wire.decode_membership_update(body))
        elif msg_type == wire.MSG_LB_UPDATE_BATCH:
            self._apply(wire.decode_lb_update(body))
        elif msg_type == wire.MSG_ROUND_START:
            self._on_round_start(wire.decode_round_start(body))
        elif msg_type in (wire.MSG_VOTE_BATCH, wire.MSG_ACK_BATCH):
            self._on_relay(msg_type, wire.decode_packet_batch(body))
        elif msg_type == wire.MSG_SENDER_ACKS:
            self._on_sender_acks(wire.decode_packet_batch(body))
        elif msg_type == wire.MSG_HASH_REQUEST:
            self._on_hash_request(wire.decode_hash_request(body))
        elif msg_type == wire.MSG_ERROR:
            code, message = wire.decode_error(body)
            self.errors.append((code, message))
            log.warning("client %s: server error %d: %s", self.client_id, code, message)
        else:
            log.warning(
                "client %s: unexpected message 0x%02x", self.client_id, msg_type
            )

    def _apply(self, message) -> None:
        try:
            plist = apply_update(self._plist, message)
        except (UnknownRecord, IndexOutOfRange, InvariantViolation, FormatError):
            # this replica diverged from the broadcast stream; a fresh
            # snapshot is the recovery path
            log.warning("client %s: update did not apply, resyncing", self.client_id)
            self.resync()
        else:
            self._install(plist)

    def _install(self, plist: PopularityList) -> None:
        """Make `plist` the list the stub answers from, and wake waiters."""
        with self._cv:
            self._plist = plist
            self._cv.notify_all()

    # -- round participation ---------------------------------------------------

    def _on_round_start(self, ctx: RoundContext) -> None:
        assert self._stream is not None
        self._round_ctx = ctx
        self._sent_votes = []
        if any(j not in self.shuffler_pubs for j in ctx.online_indexes):
            log.warning("client %s: unknown shuffler online, skipping", self.client_id)
        elif ctx.can_run:
            with self._lock:
                vote_keys = self.buffer.drain()
            # whole fragment groups in order while they fit (size: byte 3's low nibble)
            pending, priority = self._pending_fragments, []
            while pending and len(priority) + (pending[0][3] & 0x0F) <= self.quota:
                size = pending[0][3] & 0x0F
                priority += pending[:size]
                del pending[:size]
            self._sent_votes = client_submit(
                vote_keys,
                ctx,
                self.quota,
                self.shuffler_pubs,
                self.server_pub,
                self._rng,
                priority_payloads=priority,
            )
            self._remember_hashed(vote_keys, self._sent_votes)
        self._stream.send(
            wire.MSG_VOTE_BATCH,
            wire.encode_packet_batch([vote.packet for vote in self._sent_votes]),
        )

    def _remember_hashed(
        self, vote_keys: list[RecordKey], planned: list[PlannedVote]
    ) -> None:
        # payload encoding is deterministic, so sent payloads map back to
        # the keys they were derived from
        by_payload = {encode_vote_payload(k): k for k in vote_keys}
        for vote in planned:
            key = by_payload.get(vote.payload)
            if key is not None and vote.payload[0] & FLAG_HASHED:
                self._hashed_sent[vote.payload[1 : 1 + 29]] = key
        while len(self._hashed_sent) > DIGEST_MEMORY_CAP:
            self._hashed_sent.popitem(last=False)

    def _on_relay(self, msg_type: int, batch: list[MixPacket]) -> None:
        """Relay one vote or ack hop, as the frame type says; reply in kind."""
        assert self._stream is not None
        out: list[MixPacket] = []
        if self.node is None or self._round_ctx is None:
            log.warning("client %s: relay batch without shuffler role", self.client_id)
        elif msg_type == wire.MSG_VOTE_BATCH:
            out = self.node.process_batch(batch, self._round_ctx.t_timestamp)
        else:
            out = self.node.process_acks(batch, self._round_ctx.t_timestamp)
        self._stream.send(msg_type, wire.encode_packet_batch(out))

    def _on_sender_acks(self, batch: list[MixPacket]) -> None:
        assert self._stream is not None
        outcomes, reports = verify_round_acks(self._sent_votes, batch)
        self.last_outcomes = outcomes
        for outcome in outcomes:
            self.ack_counts[outcome] += 1
        for report in reports:
            self._stream.send(
                wire.MSG_MISBEHAVIOR_REPORT, wire.encode_misbehavior_report(report)
            )
            self.reports_sent += 1
        self._sent_votes = []
        with self._cv:
            self.rounds_participated += 1
            self._cv.notify_all()

    def _on_hash_request(self, digests: tuple[bytes, ...]) -> None:
        for digest in dict.fromkeys(digests):
            key = self._hashed_sent.get(digest)
            if key is not None:
                pieces = fragment_payloads(key, self._rng)
                if len(pieces) <= self.quota:  # a larger group never arrives whole
                    self._pending_fragments.extend(pieces)

    # -- local resolution ------------------------------------------------------

    def resolve(self, query: bytes) -> bytes | None:
        """Answer one wire-format query; None means drop it."""
        try:
            key, txid = parse_query(query)
        except UnsupportedType:
            return self._forward(query)
        except MalformedMessage:
            return None
        plist = self._plist
        answers = lookup(plist, key) if plist is not None else None
        with self._lock:
            self.buffer.offer(key)
        if answers is not None:
            self.hits += 1
            return build_response(txid, key, answers, self.min_ttl)
        return self._forward(query)

    def _forward(self, query: bytes) -> bytes:
        """A miss: a name the list lacks, or a query type it cannot hold."""
        self.misses += 1
        if self.fallback is None:
            return _header_only_reply(query, RCODE_SERVFAIL)
        try:
            return self.fallback.forward(query)
        except (OSError, ValueError, http.client.HTTPException):
            # sockets and urllib's URLError; parse errors; a garbled HTTP reply
            self.fallback_failures += 1
            return _header_only_reply(query, RCODE_SERVFAIL)

    # -- UDP stub listener -------------------------------------------------------

    def start_dns_listener(
        self, host: str = "127.0.0.1", port: int = DEFAULT_DNS_PORT
    ) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host, port))
        self._udp_sock = sock
        self._udp_thread = threading.Thread(target=self._udp_loop, daemon=True)
        self._udp_thread.start()
        return sock.getsockname()[:2]

    @property
    def dns_address(self) -> tuple[str, int] | None:
        return None if self._udp_sock is None else self._udp_sock.getsockname()[:2]

    def _udp_loop(self) -> None:
        assert self._udp_sock is not None
        while True:
            try:
                data, peer = self._udp_sock.recvfrom(4096)
            except OSError:
                return
            response = self.resolve(data)
            if response is not None:
                try:
                    self._udp_sock.sendto(response, peer)
                except OSError:
                    return
