"""Network-facing server daemon: authenticated sessions, list snapshot
serving, update broadcasts, and vote-round orchestration over framed
sockets.

Thread model: one acceptor thread, one reader thread per session, and a
single caller-owned control thread driving refresh / requery / round
triggers.  List state and session registry mutations are serialized
under one lock; round orchestration holds its own lock so at most one
round runs at a time.
"""

from __future__ import annotations

import hashlib
import hmac
import logging
import queue
import socket
import ssl
import threading
import time
from dataclasses import dataclass

from . import wire
from .maintenance import Maintainer, MembershipUpdate
from .mixnet import (
    InsufficientShufflers,
    MixPacket,
    ReportLog,
    RoundContext,
    RoundResult,
    RoundServer,
    availability_bits,
    select_shufflers,
)

log = logging.getLogger(__name__)

ERR_AUTH = 1
ERR_PROTOCOL = 2
ERR_ROUND_ABORTED = 3


class AuthFailure(Exception):
    pass


class RegistryError(Exception):
    pass


@dataclass(frozen=True)
class RegistryEntry:
    client_id: str
    token: str
    pubkey: bytes
    shuffler: bool


class ClientRegistry:
    """Static credential store standing in for a real key infrastructure.

    File format, one client per line:

        <id> <token> <pubkey-hex> <0|1>

    Shuffler entries get indices in file order; those indices define the
    availability-bit positions broadcast in ROUND_START.
    """

    def __init__(self, entries: list[RegistryEntry]):
        self.entries: dict[str, RegistryEntry] = {}
        self.shuffler_ids: list[str] = []
        for entry in entries:
            if entry.client_id in self.entries:
                raise RegistryError(f"duplicate client id {entry.client_id!r}")
            self.entries[entry.client_id] = entry
            if entry.shuffler:
                self.shuffler_ids.append(entry.client_id)
        self.shuffler_index = {cid: j for j, cid in enumerate(self.shuffler_ids)}

    @classmethod
    def parse(cls, text: str) -> "ClientRegistry":
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("0", "1"):
                raise RegistryError(f"bad registry line {lineno}")
            try:
                pubkey = bytes.fromhex(parts[2])
            except ValueError:
                raise RegistryError(f"bad public key on line {lineno}") from None
            if len(pubkey) != 32:
                raise RegistryError(f"public key on line {lineno} must be 32 bytes")
            entries.append(RegistryEntry(parts[0], parts[1], pubkey, parts[3] == "1"))
        return cls(entries)

    @classmethod
    def load(cls, path: str) -> "ClientRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def format(self) -> str:
        return "".join(
            f"{e.client_id} {e.token} {e.pubkey.hex()} {int(e.shuffler)}\n"
            for e in self.entries.values()
        )

    @property
    def digest(self) -> bytes:
        """Hash over the public parts only; shared with clients for
        verifiable shuffler selection."""
        h = hashlib.sha256()
        for cid in sorted(self.entries):
            entry = self.entries[cid]
            h.update(f"{cid} {entry.pubkey.hex()} {int(entry.shuffler)}\n".encode())
        return h.digest()

    def shuffler_pubs(self) -> dict[int, bytes]:
        return {
            j: self.entries[cid].pubkey for j, cid in enumerate(self.shuffler_ids)
        }

    def authenticate(self, client_id: str, token: str) -> RegistryEntry:
        entry = self.entries.get(client_id)
        if entry is None or not hmac.compare_digest(entry.token, token):
            raise AuthFailure(f"unknown client or bad token: {client_id!r}")
        return entry


class _Session:
    def __init__(self, stream: wire.FrameStream, peer):
        self.stream = stream
        self.peer = peer
        self.client_id: str | None = None
        self.entry: RegistryEntry | None = None
        self.votes: queue.Queue = queue.Queue()
        self.acks: queue.Queue = queue.Queue()
        self._write_lock = threading.Lock()
        self.alive = True

    def send(self, msg_type: int, body: bytes) -> None:
        with self._write_lock:
            self.stream.send(msg_type, body)

    def close(self) -> None:
        self.alive = False
        self.stream.close()


def _drain_queue(q: queue.Queue) -> None:
    while True:
        try:
            q.get_nowait()
        except queue.Empty:
            return


class _SessionTransport:
    """Round transport that reaches shufflers through their sessions."""

    def __init__(self, server: "LluadServer"):
        self.server = server

    def begin_round(self, ctx: RoundContext) -> None:
        # shuffler state reset rides on the ROUND_START broadcast
        return None

    def exchange(self, assignments, phase: str, hop: int, t_timestamp: int):
        msg_type = wire.MSG_VOTE_BATCH if phase == "vote" else wire.MSG_ACK_BATCH
        server = self.server
        sent: list[tuple[int, _Session]] = []
        for j, batch in assignments.items():
            session = server._shuffler_session(j)
            if session is None:
                continue
            try:
                session.send(msg_type, wire.encode_packet_batch(batch))
                sent.append((j, session))
            except OSError:
                server._drop_session(session)
        out: dict[int, list[MixPacket]] = {}
        deadline = time.monotonic() + server.straggler_timeout
        for j, session in sent:
            source = session.votes if phase == "vote" else session.acks
            remaining = max(0.0, deadline - time.monotonic())
            try:
                out[j] = source.get(timeout=remaining)
            except queue.Empty:
                log.warning("shuffler %d missed %s hop %d", j, phase, hop)
        return out


class LluadServer:
    """The daemon.  Construct, then start(); drive maintenance and
    rounds through the trigger methods (the CLI adds a wall-clock loop
    on top, tests call them directly)."""

    def __init__(
        self,
        registry: ClientRegistry,
        maintainer: Maintainer,
        server_priv: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quota: int = 10,
        n_shuffle: int = 10,
        straggler_timeout: float = 10.0,
        shuffler_cap: int | None = None,
        ssl_context: ssl.SSLContext | None = None,
    ):
        self.registry = registry
        self.maintainer = maintainer
        self.quota = quota
        self.n_shuffle = n_shuffle
        self.straggler_timeout = straggler_timeout
        self.shuffler_cap = shuffler_cap
        self._ssl_context = ssl_context
        self._host, self._port = host, port
        self._state_lock = threading.RLock()
        self._round_lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self.round_server = RoundServer(
            server_priv,
            quota,
            _SessionTransport(self),
            known_records=list(maintainer.plist.records),
        )
        self.report_log = ReportLog()
        self.round_index = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        listener = socket.create_server((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        self._stopping = True
        if self._listener is not None:
            self._listener.close()
        with self._state_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return
            if self._ssl_context is not None:
                try:
                    conn = self._ssl_context.wrap_socket(conn, server_side=True)
                except ssl.SSLError as exc:
                    log.warning("TLS handshake failed from %s: %s", peer, exc)
                    conn.close()
                    continue
            session = _Session(wire.FrameStream(conn), peer)
            thread = threading.Thread(
                target=self._session_loop, args=(session,), daemon=True
            )
            thread.start()

    # -- sessions ----------------------------------------------------------

    def _session_loop(self, session: _Session) -> None:
        try:
            self._serve_session(session)
        except (wire.ConnectionClosed, OSError):
            pass
        except wire.FrameError as exc:
            log.warning("protocol violation from %s: %s", session.peer, exc)
            self._send_error(session, ERR_PROTOCOL, str(exc))
        finally:
            self._drop_session(session)

    def _serve_session(self, session: _Session) -> None:
        msg_type, body = session.stream.recv()
        if msg_type != wire.MSG_LIST_REQUEST:
            self._send_error(session, ERR_PROTOCOL, "authenticate first")
            return
        try:
            client_id, token = wire.decode_list_request(body)
            session.entry = self.registry.authenticate(client_id, token)
        except (wire.FrameError, AuthFailure) as exc:
            self._send_error(session, ERR_AUTH, str(exc))
            return
        session.client_id = client_id
        with self._state_lock:
            old = self._sessions.get(client_id)
            if old is not None:
                old.close()
            self._sessions[client_id] = session
            session.send(
                wire.MSG_LIST_SNAPSHOT, wire.encode_list_snapshot(self.maintainer.plist)
            )
        while True:
            msg_type, body = session.stream.recv()
            if msg_type == wire.MSG_LIST_REQUEST:
                # resync: credentials repeated, fresh snapshot back
                wire.decode_list_request(body)
                with self._state_lock:
                    session.send(
                        wire.MSG_LIST_SNAPSHOT,
                        wire.encode_list_snapshot(self.maintainer.plist),
                    )
            elif msg_type == wire.MSG_VOTE_BATCH:
                session.votes.put(wire.decode_packet_batch(body))
            elif msg_type == wire.MSG_ACK_BATCH:
                session.acks.put(wire.decode_packet_batch(body))
            elif msg_type == wire.MSG_MISBEHAVIOR_REPORT:
                report = wire.decode_misbehavior_report(body)
                with self._state_lock:
                    self.report_log.add(self.round_index, report)
            else:
                raise wire.FrameError(f"unexpected message type 0x{msg_type:02x}")

    def _send_error(self, session: _Session, code: int, message: str) -> None:
        try:
            session.send(wire.MSG_ERROR, wire.encode_error(code, message))
        except OSError:
            pass

    def _drop_session(self, session: _Session) -> None:
        session.close()
        with self._state_lock:
            if session.client_id and self._sessions.get(session.client_id) is session:
                del self._sessions[session.client_id]

    def _shuffler_session(self, index: int) -> _Session | None:
        cid = self.registry.shuffler_ids[index]
        with self._state_lock:
            return self._sessions.get(cid)

    def connected_clients(self) -> list[str]:
        with self._state_lock:
            return sorted(self._sessions)

    def _broadcast(self, msg_type: int, body: bytes) -> None:
        with self._state_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            try:
                session.send(msg_type, body)
            except OSError:
                self._drop_session(session)

    # -- maintenance triggers ------------------------------------------------

    def _publish(self, messages) -> None:
        for message in messages:
            if isinstance(message, MembershipUpdate):
                for record in message.additions:
                    self.round_server.learn_record(record.key)
                self._broadcast(
                    wire.MSG_MEMBERSHIP_UPDATE, wire.encode_membership_update(message)
                )
            else:
                self._broadcast(wire.MSG_LB_UPDATE_BATCH, wire.encode_lb_update(message))

    def trigger_refresh(self, now: float) -> int:
        """Run a ranking refresh and broadcast the resulting updates."""
        with self._state_lock:
            messages = self.maintainer.run_refresh(now)
            self._publish(messages)
        return len(messages)

    def trigger_ttl(self, now: float) -> int:
        """Requery due records, then flush any queued pool rotations."""
        with self._state_lock:
            messages = list(self.maintainer.run_ttl(now))
            batch = self.maintainer.flush_lb_updates(now)
            if batch is not None:
                messages.append(batch)
            self._publish(messages)
        return len(messages)

    # -- vote rounds --------------------------------------------------------

    def run_vote_round(self, t_timestamp: int) -> RoundResult | None:
        """Announce, collect, relay, tally, acknowledge.  Returns None if
        the round could not run for lack of online shufflers."""
        with self._round_lock:
            with self._state_lock:
                sessions = dict(self._sessions)
            online = sorted(
                self.registry.shuffler_index[cid]
                for cid, session in sessions.items()
                if session.entry is not None and session.entry.shuffler
            )
            if self.shuffler_cap is not None:
                online = list(
                    select_shufflers(
                        t_timestamp, self.registry.digest, online, self.shuffler_cap
                    )
                )
            total = len(self.registry.shuffler_ids)
            ctx = RoundContext(
                t_timestamp, availability_bits(online, max(total, 1)), self.n_shuffle
            )
            if not ctx.can_run:
                self._broadcast(
                    wire.MSG_ERROR,
                    wire.encode_error(ERR_ROUND_ABORTED, "insufficient shufflers"),
                )
                return None

            # the round involves exactly the sessions present at the start;
            # later joiners wait for the next one
            start_body = wire.encode_round_start(ctx)
            for cid, session in list(sessions.items()):
                _drain_queue(session.votes)
                _drain_queue(session.acks)
                try:
                    session.send(wire.MSG_ROUND_START, start_body)
                except OSError:
                    self._drop_session(session)
                    del sessions[cid]
            submissions: dict[str, list[MixPacket]] = {}
            deadline = time.monotonic() + self.straggler_timeout
            for cid, session in sessions.items():
                remaining = max(0.0, deadline - time.monotonic())
                try:
                    submissions[cid] = session.votes.get(timeout=remaining)
                except queue.Empty:
                    log.warning("client %s missed the submission deadline", cid)
            try:
                result = self.round_server.run_round(ctx, submissions)
            except InsufficientShufflers:  # pragma: no cover - checked above
                return None
            for cid, acks in result.acks.items():
                session = sessions.get(cid)
                if session is not None:
                    try:
                        session.send(wire.MSG_ACK_BATCH, wire.encode_packet_batch(acks))
                    except OSError:
                        self._drop_session(session)
            if result.unknown_digests:
                self._broadcast(
                    wire.MSG_HASH_REQUEST, wire.encode_hash_request(result.unknown_digests)
                )
            with self._state_lock:
                self.maintainer.ingest_votes(result.tally.elements())
                self.round_index += 1
            return result

    # -- wall-clock driver ----------------------------------------------------

    def run_forever(self, t_refresh: float) -> None:
        """Simple scheduler for operator use: rounds and refreshes at
        every t_refresh boundary, requeries every second."""
        next_refresh = time.time() + t_refresh
        while not self._stopping:
            time.sleep(1.0)
            now = time.time()
            self.trigger_ttl(now)
            if now >= next_refresh:
                self.run_vote_round(int(now))
                self.trigger_refresh(now)
                next_refresh = now + t_refresh
