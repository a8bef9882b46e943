"""Framed message protocol between the list server and its clients.

Every frame is `u32 big-endian length | u8 message type | body`, where
the length counts the type byte plus the body.  Each type (MSG_ left
off below) has one meaning; a relay hop's request and reply share it:

    0x01  LIST_REQUEST        credentials: log in, or resync the list
    0x02  LIST_SNAPSHOT       the whole list and its generation
    0x03  LB_UPDATE_BATCH     pool rotations of records on the list
    0x04  MEMBERSHIP_UPDATE   records leaving and joining the list
    0x05  ROUND_START         a vote round begins: every client submits
    0x06  VOTE_BATCH          a client's submission, or one relayed vote hop
    0x07  ACK_BATCH           one relayed ack hop
    0x08  MISBEHAVIOR_REPORT  the path of a packet whose ack did not verify
    0x09  HASH_REQUEST        digests whose cleartext the server lacks
    0x0A  ERROR               a refusal: code and reason
    0x0B  SENDER_ACKS         the acks of a client's own packets, to verify

A client answers each ROUND_START, VOTE_BATCH and ACK_BATCH with one
batch (a VOTE_BATCH to the first two; empty if it has none), in order:
the n-th reply on a session answers the n-th request, so no frame needs
a round or hop tag.

Body codecs below are pure functions; socket plumbing lives in a small
blocking stream class shared by both daemons.

Every `decode_*` function returns a value or raises `FrameError`, which
is `poplist.FormatError`: bodies are read with `poplist.Reader`, which
turns a short read, a bad name or record, bad text and bad zlib data
alike into that one error.
"""

from __future__ import annotations

import socket
import struct
import threading
import zlib
from typing import Callable, Iterable, Sequence

from .dnsmsg import DomainName, RecordKey, RecordType
from .maintenance import LbUpdate, MembershipUpdate
from .mixnet import DIGEST_LEN, PACKET_LEN, MisbehaviorReport, MixPacket, RoundContext
from .poplist import FormatError, PopularityList, Reader, RecordDef, deserialize, serialize

MSG_LIST_REQUEST = 0x01
MSG_LIST_SNAPSHOT = 0x02
MSG_LB_UPDATE_BATCH = 0x03
MSG_MEMBERSHIP_UPDATE = 0x04
MSG_ROUND_START = 0x05
MSG_VOTE_BATCH = 0x06
MSG_ACK_BATCH = 0x07
MSG_MISBEHAVIOR_REPORT = 0x08
MSG_HASH_REQUEST = 0x09
MSG_ERROR = 0x0A
MSG_SENDER_ACKS = 0x0B

FRAME_HEADER_LEN = 5  # length field plus type byte
MAX_FRAME_BODY = 1 << 26


FrameError = FormatError


class ConnectionClosed(Exception):
    """The peer went away mid-conversation."""


def encode_frame(msg_type: int, body: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ValueError("message type must fit one byte")
    if len(body) > MAX_FRAME_BODY:
        raise ValueError("frame body too large")
    return struct.pack("!IB", len(body) + 1, msg_type) + body


class FrameStream:
    """Blocking framed messages over a connected stream socket.  A socket
    timeout fails a send that makes no progress; reads wait through it.
    Sends from several threads go out one whole frame at a time; a caller
    that holds `send_lock` across several sends keeps them together."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.send_lock = threading.RLock()  # close() skips it: it wakes a stalled send

    def send(self, msg_type: int, body: bytes = b"") -> None:
        # in chunks: a TLS write has one deadline for all it is given
        frame = memoryview(encode_frame(msg_type, body))
        with self.send_lock:
            while frame:
                frame = frame[self._sock.send(frame[:16384]) :]

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            try:
                chunk = self._sock.recv(n)
            except socket.timeout:
                continue
            if not chunk:
                raise ConnectionClosed("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[int, bytes]:
        (length,) = struct.unpack("!I", self._read_exact(4))
        if not 1 <= length <= MAX_FRAME_BODY + 1:
            raise FrameError(f"frame length {length} out of range")
        payload = self._read_exact(length)
        return payload[0], payload[1:]

    def close(self) -> None:
        close_socket(self._sock)


def close_socket(sock: socket.socket) -> None:
    """Shut down, then close: unlike a bare close, this wakes a thread
    blocked on the socket in accept, recv or recvfrom.  The ENOTCONN of an
    unconnected socket is ignored; its waiters are woken all the same."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


# -- scalar helpers ----------------------------------------------------------


def _enc_short_bytes(raw: bytes) -> bytes:
    if len(raw) > 0xFF:
        raise ValueError("field longer than 255 bytes")
    return bytes([len(raw)]) + raw


# -- counted item lists --------------------------------------------------------
#
# A message body holds one or more lists of items, each under a u16
# count.  A list longer than 65 535 items goes in runs: the body is a
# sequence of blocks read to its end, block i holding run i of every list
# (65 535 items, or what is left, or none).  So a message whose lists all
# fit one count is one block, with the bytes it has always had.

_RUN = 0xFFFF


def _block_counts(*lengths: int) -> list[tuple[int, ...]]:
    blocks = max(1, *(-(-n // _RUN) for n in lengths))
    return [
        tuple(min(_RUN, max(0, n - i * _RUN)) for n in lengths) for i in range(blocks)
    ]


def _enc_blocks(*lists: tuple[Sequence, Callable]) -> bytes:
    """Encode each (items, encode one item) list in blocks."""
    out = bytearray()
    for i, counts in enumerate(_block_counts(*(len(items) for items, _ in lists))):
        for (items, enc), count in zip(lists, counts):
            out += count.to_bytes(2, "big")
            for item in items[i * _RUN : i * _RUN + count]:
                out += enc(item)
    return bytes(out)


def _read_blocks(r: Reader, *read_items: Callable[[Reader], object]) -> list[list]:
    """Read blocks to the end of the body: one list per item reader."""
    lists: list[list] = [[] for _ in read_items]
    counts = []
    while not counts or not r.at_end():
        row = []
        for items, read in zip(lists, read_items):
            count = r.u16()
            items.extend(read(r) for _ in range(count))
            row.append(count)
        counts.append(tuple(row))
    if counts != _block_counts(*map(len, lists)):
        raise FrameError("item counts not split into runs as the encoder does")
    return lists


# -- list request / snapshot -------------------------------------------------


def encode_list_request(client_id: str, token: str) -> bytes:
    return _enc_short_bytes(client_id.encode("utf-8")) + _enc_short_bytes(
        token.encode("utf-8")
    )


def decode_list_request(body: bytes) -> tuple[str, str]:
    with Reader(body) as r:
        cid = r.short()
        token = r.short()
        r.end()
        return cid.decode("utf-8"), token.decode("utf-8")


def encode_list_snapshot(plist: PopularityList) -> bytes:
    # the list format itself carries no generation, so the snapshot
    # frame prefixes it
    return plist.generation.to_bytes(8, "big") + serialize(plist, compress=True)


def decode_list_snapshot(body: bytes) -> PopularityList:
    generation = Reader(body).u64()
    return deserialize(body[8:], generation=generation)


# -- incremental updates -------------------------------------------------------

_LB_ENTRY = struct.Struct("!3sh")
LB_ENTRY_LEN = 5


def _enc_lb_entry(entry: tuple[int, int]) -> bytes:
    entry_index, offset = entry
    if not 0 <= entry_index < 1 << 24:
        raise ValueError("pool entry index out of range")
    return _LB_ENTRY.pack(entry_index.to_bytes(3, "big"), offset)


def _read_lb_entry(r: Reader) -> tuple[int, int]:
    idx_bytes, offset = _LB_ENTRY.unpack(r.take(LB_ENTRY_LEN))
    return int.from_bytes(idx_bytes, "big"), offset


def encode_lb_update(update: LbUpdate) -> bytes:
    return _enc_blocks((update.entries, _enc_lb_entry))


def decode_lb_update(body: bytes) -> LbUpdate:
    with Reader(body) as r:
        (entries,) = _read_blocks(r, _read_lb_entry)
        return LbUpdate(entries=tuple(entries))


def _enc_key(key: RecordKey) -> bytes:
    return int(key.rtype).to_bytes(2, "big") + _enc_short_bytes(
        key.name.dotted.encode("ascii")
    )


def _read_key(r: Reader) -> RecordKey:
    rtype = RecordType.from_code(r.u16())
    name = DomainName.from_text(r.short().decode("ascii"))
    return RecordKey(name, rtype)


def _enc_def(record: RecordDef) -> bytes:
    out = _enc_key(record.key) + _enc_short_bytes(record.answer)
    out += bytes([len(record.pool)])
    for answer in record.pool:
        out += _enc_short_bytes(answer)
    return out


def _read_def(r: Reader) -> RecordDef:
    key = _read_key(r)
    answer = r.short()
    pool = tuple(r.short() for _ in range(r.u8()))
    return RecordDef(key, answer, pool)


def encode_membership_update(update: MembershipUpdate) -> bytes:
    plain = _enc_blocks((update.removals, _enc_key), (update.additions, _enc_def))
    return zlib.compress(plain, 6)


def decode_membership_update(body: bytes) -> MembershipUpdate:
    with Reader(body) as r:
        r.inflate()
        removals, additions = _read_blocks(r, _read_key, _read_def)
        return MembershipUpdate(removals=tuple(removals), additions=tuple(additions))


# -- voting round messages -----------------------------------------------------


def encode_round_start(ctx: RoundContext) -> bytes:
    return (
        ctx.t_timestamp.to_bytes(8, "big")
        + bytes([ctx.n_shuffle])
        + len(ctx.availability).to_bytes(2, "big")
        + ctx.availability
    )


def decode_round_start(body: bytes) -> RoundContext:
    with Reader(body) as r:
        t_timestamp = r.u64()
        n_shuffle = r.u8()
        availability = r.take(r.u16())
        r.end()
        return RoundContext(t_timestamp, availability, n_shuffle)


def encode_packet_batch(packets: Sequence[MixPacket]) -> bytes:
    return _enc_blocks((packets, MixPacket.to_bytes))


def _read_packet(r: Reader) -> MixPacket:
    return MixPacket.from_bytes(r.take(PACKET_LEN))


def decode_packet_batch(body: bytes) -> list[MixPacket]:
    with Reader(body) as r:
        (packets,) = _read_blocks(r, _read_packet)
        return packets


def encode_misbehavior_report(report: MisbehaviorReport) -> bytes:
    if len(report.path) > 0xFF:
        raise ValueError("path too long to report")
    out = bytearray(report.t_timestamp.to_bytes(8, "big"))
    out.append(len(report.path))
    for j in report.path:
        if not 0 <= j < 1 << 24:
            raise ValueError("shuffler index out of range")
        out += j.to_bytes(3, "big")
    return bytes(out)


def decode_misbehavior_report(body: bytes) -> MisbehaviorReport:
    with Reader(body) as r:
        t_timestamp = r.u64()
        path = tuple(r.u24() for _ in range(r.u8()))
        r.end()
        return MisbehaviorReport(t_timestamp, path)


def _enc_digest(digest: bytes) -> bytes:
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes")
    return digest


def _read_digest(r: Reader) -> bytes:
    return r.take(DIGEST_LEN)


def encode_hash_request(digests: Iterable[bytes]) -> bytes:
    return _enc_blocks((list(digests), _enc_digest))


def decode_hash_request(body: bytes) -> tuple[bytes, ...]:
    with Reader(body) as r:
        (digests,) = _read_blocks(r, _read_digest)
        return tuple(digests)


def encode_error(code: int, message: str) -> bytes:
    return bytes([code]) + message.encode("utf-8")


def decode_error(body: bytes) -> tuple[int, str]:
    code = Reader(body).u8()
    return code, body[1:].decode("utf-8", errors="replace")
