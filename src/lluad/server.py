"""Network-facing server daemon: authenticated sessions, list snapshot
serving, update broadcasts, and vote-round orchestration over framed
sockets.

One owner per piece of state: the caller's control thread owns the
maintainer and its triggers, so maintenance I/O holds no lock a session
needs; the acceptor thread owns the connection table and starts one
reader thread per session, which starts its writer: the one thread that
sends on the session's socket, fed by an outbox where queuing never
blocks, so no thread waits on another's socket.  `_state_lock` guards
the sessions, `_published` (the list every later login is sent) and the
report window; logins and publishes queue their frames under it.
`_round_lock` runs one round at a time.
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

from . import mixnet, wire
from .maintenance import Maintainer, MembershipUpdate
from .mixnet import (
    ReportLog,
    RoundContext,
    RoundResult,
    RoundServer,
    select_shufflers,
)

log = logging.getLogger(__name__)

ERR_AUTH = 1
ERR_PROTOCOL = 2
ERR_ROUND_ABORTED = 3

TLS_HANDSHAKE_TIMEOUT = 10.0  # seconds
SEND_TIMEOUT = 2.0  # seconds a session may take no bytes before it is dropped


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
    """One connection, logged in once `entry` is set.  `outbox` holds the
    (type, body) frames its writer has yet to send, in order, then None
    to end it.  `asked` counts the round requests sent and `taken` the
    replies consumed, by the round thread; `received` the replies queued,
    by the session's reader."""

    def __init__(self, stream: wire.FrameStream, peer):
        self.stream = stream
        self.peer = peer
        self.entry: RegistryEntry | None = None
        self.outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.replies: queue.Queue = queue.Queue()
        self.asked = self.received = self.taken = 0


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
        limit = 8 * mixnet.MAX_AVAILABILITY_LEN
        if len(registry.shuffler_ids) > limit:
            raise RegistryError(f"a round start carries at most {limit} shufflers")
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
        self._published = maintainer.plist
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        # every open connection, authenticated or not, and its thread
        self._connections: dict[_Session, threading.Thread] = {}
        self._stopping = False
        self.round_server = RoundServer(
            server_priv, quota, self, known_records=list(maintainer.plist.records)
        )
        self.report_log = ReportLog()
        self.round_index = 0
        # the round whose senders may report, and the reports each has left
        self._reports_open: tuple[int, int | None, dict[str, int]] = (0, None, {})

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        listener = socket.create_server((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        """Close the listener and every connection, and wait for the
        threads serving them to end."""
        self._stopping = True
        if self._listener is not None:
            wire.close_socket(self._listener)
            self._accept_thread.join()
        for session, thread in self._connections.items():
            session.stream.close()
            thread.join()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return
            conn.settimeout(SEND_TIMEOUT)
            if self._ssl_context is not None:
                # handshake on the session's thread: a silent peer delays no one
                conn = self._ssl_context.wrap_socket(
                    conn, server_side=True, do_handshake_on_connect=False
                )
            session = _Session(wire.FrameStream(conn), peer)
            thread = threading.Thread(
                target=self._session_loop, args=(session, conn), daemon=True
            )
            live = {s: t for s, t in self._connections.items() if t.is_alive()}
            self._connections = {**live, session: thread}
            thread.start()

    # -- sessions ----------------------------------------------------------

    def _session_loop(self, session: _Session, conn: socket.socket) -> None:
        """A session's reader: it starts the writer, and stops it at the end."""
        if isinstance(conn, ssl.SSLSocket):
            try:
                conn.settimeout(TLS_HANDSHAKE_TIMEOUT)
                conn.do_handshake()
                conn.settimeout(SEND_TIMEOUT)
            except OSError as exc:
                log.warning("TLS handshake failed from %s: %s", session.peer, exc)
                session.stream.close()
                return
        writer = threading.Thread(target=self._write_loop, args=(session,), daemon=True)
        writer.start()
        try:
            self._serve_session(session)
        except (wire.ConnectionClosed, OSError):
            pass
        except wire.FrameError as exc:
            log.warning("protocol violation from %s: %s", session.peer, exc)
            self._send_error(session, ERR_PROTOCOL, str(exc))
        finally:
            with self._state_lock:
                if session.entry and self._sessions.get(session.entry.client_id) is session:
                    del self._sessions[session.entry.client_id]
            session.outbox.put(None)  # the writer sends what is queued, then ends
            writer.join()

    def _write_loop(self, session: _Session) -> None:
        """Send the queued frames in order, a queued list as a snapshot, and
        then close the stream.  A failed send, as one without progress for
        SEND_TIMEOUT, ends it early, and the close ends the reader too."""
        try:
            for msg_type, body in iter(session.outbox.get, None):
                if msg_type == wire.MSG_LIST_SNAPSHOT:
                    body = wire.encode_list_snapshot(body)
                session.stream.send(msg_type, body)
        except OSError:
            pass
        finally:
            session.stream.close()

    def _serve_session(self, session: _Session) -> None:
        while True:
            msg_type, body = session.stream.recv()
            if msg_type == wire.MSG_LIST_REQUEST:
                if not self._login(session, body):
                    return
            elif session.entry is None:
                self._send_error(session, ERR_PROTOCOL, "authenticate first")
                return
            elif msg_type in (wire.MSG_VOTE_BATCH, wire.MSG_ACK_BATCH):
                if session.received < session.asked:  # else it answers nothing
                    session.replies.put(wire.decode_packet_batch(body))
                    session.received += 1
            elif msg_type == wire.MSG_MISBEHAVIOR_REPORT:
                report = wire.decode_misbehavior_report(body)
                with self._state_lock:
                    # only on the round that just ran, at most quota per sender
                    round_index, t, left = self._reports_open
                    if report.t_timestamp == t and left.get(session.entry.client_id):
                        left[session.entry.client_id] -= 1
                        self.report_log.add(round_index, report)
            else:
                raise wire.FrameError(f"unexpected message type 0x{msg_type:02x}")

    def _login(self, session: _Session, body: bytes) -> bool:
        """Authenticate a LIST_REQUEST (a first frame or a resync), then
        (re)register the session and send it the published list.  False,
        after ERR_AUTH, ends the session."""
        try:
            entry = self.registry.authenticate(*wire.decode_list_request(body))
            if session.entry not in (None, entry):
                raise AuthFailure(f"session already serves {session.entry.client_id!r}")
        except (wire.FrameError, AuthFailure) as exc:
            self._send_error(session, ERR_AUTH, str(exc))
            return False
        # every later publish queues its frames after this snapshot
        with self._state_lock:
            session.entry = entry
            old = self._sessions.get(entry.client_id, session)
            self._sessions[entry.client_id] = session
            self._send(session, wire.MSG_LIST_SNAPSHOT, self._published)
        if old is not session:
            old.stream.close()
        return True

    def _send(self, session: _Session, msg_type: int, body) -> None:
        """Queue one frame for the session's writer; this never blocks."""
        session.outbox.put((msg_type, body))

    def _send_error(self, session: _Session, code: int, message: str) -> None:
        self._send(session, wire.MSG_ERROR, wire.encode_error(code, message))

    def _broadcast(self, msg_type: int, body: bytes) -> None:
        with self._state_lock:
            for session in self._sessions.values():
                self._send(session, msg_type, body)

    def _ask(self, requests: dict, msg_type: int, missed: str) -> dict:
        """Send each (session, body) of `requests` as a `msg_type` frame, then
        take the reply to it, by one straggler deadline, from each session:
        its `asked`-th reply, since a session answers in order.  Replies
        before it are late, and dropped.  `missed` logs each key left
        without."""
        for session, body in requests.values():
            session.asked += 1  # before the send, so no reply finds it behind
            self._send(session, msg_type, body)
        replies = {}
        deadline = time.monotonic() + self.straggler_timeout
        for key, (session, _) in requests.items():
            try:
                while session.taken < session.asked:
                    remaining = max(0.0, deadline - time.monotonic())
                    reply = session.replies.get(timeout=remaining)
                    session.taken += 1
                    if session.taken < session.asked:
                        log.warning("dropped a late reply from %s", session.entry.client_id)
                replies[key] = reply
            except queue.Empty:
                log.warning(missed, key)
        return replies

    # -- maintenance triggers ------------------------------------------------

    def _publish(self, messages) -> int:
        """Queue the maintainer's `messages` to every logged-in session,
        and make its list the one every later login is sent."""
        frames = []
        for message in messages:
            if isinstance(message, MembershipUpdate):
                for record in message.additions:
                    self.round_server.learn_record(record.key)
                frames.append(
                    (wire.MSG_MEMBERSHIP_UPDATE, wire.encode_membership_update(message))
                )
            else:
                frames.append((wire.MSG_LB_UPDATE_BATCH, wire.encode_lb_update(message)))
        with self._state_lock:
            self._published = self.maintainer.plist
            for session in self._sessions.values():
                for frame in frames:
                    self._send(session, *frame)
        return len(messages)

    def trigger_refresh(self, now: float) -> int:
        """Run a ranking refresh and broadcast the resulting updates."""
        return self._publish(self.maintainer.run_refresh(now))

    def trigger_ttl(self, now: float) -> int:
        """Requery due records, then flush any queued pool rotations."""
        messages = self.maintainer.run_ttl(now)
        batch = self.maintainer.flush_lb_updates(now)
        return self._publish(messages if batch is None else [*messages, batch])

    # -- vote rounds --------------------------------------------------------

    def exchange(self, assignments, phase: str, hop: int, t_timestamp: int):
        msg_type = wire.MSG_VOTE_BATCH if phase == "vote" else wire.MSG_ACK_BATCH
        ids = self.registry.shuffler_ids
        with self._state_lock:
            sessions = {j: self._sessions.get(ids[j]) for j in assignments}
        requests = {
            j: (sessions[j], wire.encode_packet_batch(batch))
            for j, batch in assignments.items()
            if sessions[j] is not None
        }
        return self._ask(requests, msg_type, f"shuffler %s missed {phase} hop {hop}")

    def run_vote_round(self, t_timestamp: int) -> RoundResult | None:
        """Announce, collect, relay, tally, acknowledge.  Returns None if
        the round could not run for lack of online shufflers."""
        with self._round_lock:
            with self._state_lock:
                sessions = dict(self._sessions)
                flagged = self.report_log.flagged(self.round_index)
            if flagged:
                log.warning("reports flag shufflers %s", sorted(flagged))
            index = self.registry.shuffler_index
            online = select_shufflers(
                t_timestamp,
                self.registry.digest,
                (index[cid] for cid in sessions if cid in index),
                self.shuffler_cap,
            )
            total = max(len(self.registry.shuffler_ids), 1)
            ctx = RoundContext.for_online(t_timestamp, online, total, self.n_shuffle)
            if not ctx.can_run:
                self._broadcast(
                    wire.MSG_ERROR,
                    wire.encode_error(ERR_ROUND_ABORTED, "insufficient shufflers"),
                )
                return None

            # later joiners wait for the next round
            start_body = wire.encode_round_start(ctx)
            submissions = self._ask(
                {cid: (session, start_body) for cid, session in sessions.items()},
                wire.MSG_ROUND_START,
                "client %s missed the submission deadline",
            )
            result = self.round_server.run_round(ctx, submissions)
            self.maintainer.ingest_votes(result.tally.elements())
            with self._state_lock:
                senders = dict.fromkeys(result.acks, self.quota)
                self._reports_open = (self.round_index, ctx.t_timestamp, senders)
                self.round_index += 1
            for cid, acks in result.acks.items():
                self._send(
                    sessions[cid], wire.MSG_SENDER_ACKS, wire.encode_packet_batch(acks)
                )
            if result.unknown_digests:
                self._broadcast(
                    wire.MSG_HASH_REQUEST, wire.encode_hash_request(result.unknown_digests)
                )
            return result

    # -- wall-clock driver ----------------------------------------------------

    def run_forever(self, t_refresh: float) -> None:
        """Simple scheduler for operator use: rounds and refreshes at
        every t_refresh boundary, requeries every second.  A failed pass is
        logged by name and exception type, as its message may name a
        record; the other passes and the next tick run as usual."""
        next_refresh = time.time() + t_refresh
        while not self._stopping:
            time.sleep(1.0)
            now = time.time()
            passes = [(self.trigger_ttl, now)]
            if now >= next_refresh:
                passes += [(self.run_vote_round, int(now)), (self.trigger_refresh, now)]
                next_refresh = now + t_refresh
            for run, arg in passes:
                try:
                    run(arg)
                except Exception as exc:
                    log.error("%s failed: %s", run.__name__, type(exc).__name__)
