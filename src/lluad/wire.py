"""Framed message protocol between the list server and its clients.

Every frame is `u32 big-endian length | u8 message type | body`, where
the length counts the type byte plus the body.  Body codecs below are
pure functions; socket plumbing lives in a small blocking stream class
shared by both daemons.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import Iterable, Sequence

from .dnsmsg import DomainName, RecordKey, RecordType
from .maintenance import LbUpdate, MembershipUpdate
from .mixnet import DIGEST_LEN, PACKET_LEN, MisbehaviorReport, MixPacket, RoundContext
from .poplist import PopularityList, RecordDef, deserialize, serialize

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

FRAME_HEADER_LEN = 5  # length field plus type byte
MAX_FRAME_BODY = 1 << 26


class FrameError(Exception):
    """Malformed frame or body."""


class ConnectionClosed(Exception):
    """The peer went away mid-conversation."""


def encode_frame(msg_type: int, body: bytes) -> bytes:
    if not 0 <= msg_type <= 0xFF:
        raise ValueError("message type must fit one byte")
    if len(body) > MAX_FRAME_BODY:
        raise ValueError("frame body too large")
    return struct.pack("!IB", len(body) + 1, msg_type) + body


class FrameStream:
    """Blocking framed messages over a connected stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, msg_type: int, body: bytes = b"") -> None:
        self._sock.sendall(encode_frame(msg_type, body))

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            chunk = self._sock.recv(n)
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
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# -- scalar helpers ----------------------------------------------------------


def _need(body: bytes, offset: int, n: int) -> None:
    if offset + n > len(body):
        raise FrameError("truncated body")


def _read_u8(body, offset):
    _need(body, offset, 1)
    return body[offset], offset + 1


def _read_u16(body, offset):
    _need(body, offset, 2)
    return int.from_bytes(body[offset : offset + 2], "big"), offset + 2


def _read_u24(body, offset):
    _need(body, offset, 3)
    return int.from_bytes(body[offset : offset + 3], "big"), offset + 3


def _read_u64(body, offset):
    _need(body, offset, 8)
    return int.from_bytes(body[offset : offset + 8], "big"), offset + 8


def _read_bytes(body, offset, n):
    _need(body, offset, n)
    return body[offset : offset + n], offset + n


def _done(body: bytes, offset: int) -> None:
    if offset != len(body):
        raise FrameError("trailing bytes after body")


def _enc_short_bytes(raw: bytes) -> bytes:
    if len(raw) > 0xFF:
        raise ValueError("field longer than 255 bytes")
    return bytes([len(raw)]) + raw


def _read_short_bytes(body, offset):
    n, offset = _read_u8(body, offset)
    return _read_bytes(body, offset, n)


# -- list request / snapshot -------------------------------------------------


def encode_list_request(client_id: str, token: str) -> bytes:
    return _enc_short_bytes(client_id.encode("utf-8")) + _enc_short_bytes(
        token.encode("utf-8")
    )


def decode_list_request(body: bytes) -> tuple[str, str]:
    cid, offset = _read_short_bytes(body, 0)
    token, offset = _read_short_bytes(body, offset)
    _done(body, offset)
    try:
        return cid.decode("utf-8"), token.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError("credentials are not valid utf-8") from exc


def encode_list_snapshot(plist: PopularityList) -> bytes:
    # the list format itself carries no generation, so the snapshot
    # frame prefixes it
    return plist.generation.to_bytes(8, "big") + serialize(plist, compress=True)


def decode_list_snapshot(body: bytes) -> PopularityList:
    generation, offset = _read_u64(body, 0)
    return deserialize(body[offset:], generation=generation)


# -- incremental updates -------------------------------------------------------

_LB_ENTRY = struct.Struct("!3sh")
LB_ENTRY_LEN = 5


def encode_lb_update(update: LbUpdate) -> bytes:
    out = bytearray(len(update.entries).to_bytes(2, "big"))
    for entry_index, offset in update.entries:
        if not 0 <= entry_index < 1 << 24:
            raise ValueError("pool entry index out of range")
        out += _LB_ENTRY.pack(entry_index.to_bytes(3, "big"), offset)
    return bytes(out)


def decode_lb_update(body: bytes) -> LbUpdate:
    count, offset = _read_u16(body, 0)
    entries = []
    for _ in range(count):
        raw, offset = _read_bytes(body, offset, LB_ENTRY_LEN)
        idx_bytes, answer_offset = _LB_ENTRY.unpack(raw)
        entries.append((int.from_bytes(idx_bytes, "big"), answer_offset))
    _done(body, offset)
    return LbUpdate(entries=tuple(entries))


def _enc_key(key: RecordKey) -> bytes:
    return int(key.rtype).to_bytes(2, "big") + _enc_short_bytes(
        key.name.dotted.encode("ascii")
    )


def _read_key(body, offset):
    code, offset = _read_u16(body, offset)
    name, offset = _read_short_bytes(body, offset)
    try:
        key = RecordKey(DomainName.from_text(name.decode("ascii")), RecordType.from_code(code))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"bad record key: {exc}") from exc
    return key, offset


def _enc_def(record: RecordDef) -> bytes:
    out = _enc_key(record.key) + _enc_short_bytes(record.answer)
    out += bytes([len(record.pool)])
    for answer in record.pool:
        out += _enc_short_bytes(answer)
    return out


def _read_def(body, offset):
    key, offset = _read_key(body, offset)
    answer, offset = _read_short_bytes(body, offset)
    pool_count, offset = _read_u8(body, offset)
    pool = []
    for _ in range(pool_count):
        entry, offset = _read_short_bytes(body, offset)
        pool.append(entry)
    try:
        record = RecordDef(key, answer, tuple(pool))
    except Exception as exc:
        raise FrameError(f"bad record definition: {exc}") from exc
    return record, offset


def encode_membership_update(update: MembershipUpdate) -> bytes:
    plain = bytearray(len(update.removals).to_bytes(2, "big"))
    for key in update.removals:
        plain += _enc_key(key)
    plain += len(update.additions).to_bytes(2, "big")
    for record in update.additions:
        plain += _enc_def(record)
    return zlib.compress(bytes(plain), 6)


def decode_membership_update(body: bytes) -> MembershipUpdate:
    try:
        plain = zlib.decompress(body)
    except zlib.error as exc:
        raise FrameError("membership body is not valid zlib data") from exc
    count, offset = _read_u16(plain, 0)
    removals = []
    for _ in range(count):
        key, offset = _read_key(plain, offset)
        removals.append(key)
    count, offset = _read_u16(plain, offset)
    additions = []
    for _ in range(count):
        record, offset = _read_def(plain, offset)
        additions.append(record)
    _done(plain, offset)
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
    t_timestamp, offset = _read_u64(body, 0)
    n_shuffle, offset = _read_u8(body, offset)
    avail_len, offset = _read_u16(body, offset)
    availability, offset = _read_bytes(body, offset, avail_len)
    _done(body, offset)
    if n_shuffle < 1:
        raise FrameError("round must have at least one hop")
    return RoundContext(t_timestamp, availability, n_shuffle)


def encode_packet_batch(packets: Sequence[MixPacket]) -> bytes:
    out = bytearray(len(packets).to_bytes(2, "big"))
    for pkt in packets:
        out += pkt.to_bytes()
    return bytes(out)


def decode_packet_batch(body: bytes) -> list[MixPacket]:
    count, offset = _read_u16(body, 0)
    packets = []
    for _ in range(count):
        raw, offset = _read_bytes(body, offset, PACKET_LEN)
        packets.append(MixPacket.from_bytes(raw))
    _done(body, offset)
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
    t_timestamp, offset = _read_u64(body, 0)
    count, offset = _read_u8(body, offset)
    path = []
    for _ in range(count):
        j, offset = _read_u24(body, offset)
        path.append(j)
    _done(body, offset)
    return MisbehaviorReport(t_timestamp, tuple(path))


def encode_hash_request(digests: Iterable[bytes]) -> bytes:
    items = list(digests)
    out = bytearray(len(items).to_bytes(2, "big"))
    for digest in items:
        if len(digest) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes")
        out += digest
    return bytes(out)


def decode_hash_request(body: bytes) -> tuple[bytes, ...]:
    count, offset = _read_u16(body, 0)
    digests = []
    for _ in range(count):
        digest, offset = _read_bytes(body, offset, DIGEST_LEN)
        digests.append(digest)
    _done(body, offset)
    return tuple(digests)


def encode_error(code: int, message: str) -> bytes:
    return bytes([code]) + message.encode("utf-8")


def decode_error(body: bytes) -> tuple[int, str]:
    code, offset = _read_u8(body, 0)
    return code, body[offset:].decode("utf-8", errors="replace")
