"""Minimal DNS message model: names, record keys, query/response codecs.

Only what the local resolver path needs: A, AAAA, and CNAME over class IN,
single-question messages.  Anything else (other types, other classes,
non-query opcodes, the root name) raises UnsupportedType so the caller can
hand the raw query to the fallback transport.  EDNS options are ignored.

Names are stored least-significant-label first ("com", "example", "www"),
which matches how the popularity tree is walked; text and wire forms use
the conventional order.

`DomainName` and `RecordKey` are immutable tuple subclasses (a name is the
1-tuple of its label tuple, a key the pair of its name and type), because
every list path looks records up in dicts keyed by them: hashing,
equality and field access run in C.  Their hashes equal those of the
frozen dataclasses they replace, `hash((labels,))` and
`hash((name, rtype))`, so set orders, rng draws and every output stay
the same under any PYTHONHASHSEED.  Being tuples, they compare equal to
the plain tuple of their fields: `RecordKey(n, t) == (n, t)`.  Keys order
by `sort_key` under all four comparison operators; names have no order.
"""

from __future__ import annotations

import enum
import operator
import socket
import struct
from collections import namedtuple
from dataclasses import dataclass

MAX_NAME_TEXT_LEN = 253
MAX_LABEL_LEN = 63
CLASS_IN = 1

RCODE_OK = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


class MalformedMessage(ValueError):
    """Structurally broken DNS message (truncation, bad counts, bad labels)."""


class UnsupportedType(ValueError):
    """Syntactically fine but outside what the local service answers."""


class RecordType(enum.IntEnum):
    A = 1
    CNAME = 5
    AAAA = 28

    @classmethod
    def from_code(cls, code: int) -> "RecordType":
        try:
            return cls(code)
        except ValueError:
            raise UnsupportedType(f"record type {code} not supported") from None


class DomainName(namedtuple("DomainName", "labels")):
    """A validated lowercase domain name, TLD label first."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...]) -> "DomainName":
        if not labels:
            raise ValueError("empty name (root is not representable here)")
        text_len = len(labels) - 1  # the dots
        for label in labels:
            if not 1 <= len(label) <= MAX_LABEL_LEN:
                raise ValueError(f"label length out of range: {label!r}")
            if not _LABEL_CHARS.issuperset(label):
                raise ValueError(f"label has unsupported characters: {label!r}")
            text_len += len(label)
        if text_len > MAX_NAME_TEXT_LEN:
            raise ValueError("name too long")
        return tuple.__new__(cls, (labels,))

    @classmethod
    def from_text(cls, text: str) -> "DomainName":
        text = text.strip().rstrip(".").lower()
        if not text:
            raise ValueError("empty name")
        return cls(tuple(reversed(text.split("."))))

    @classmethod
    def from_wire_labels(cls, labels: list[bytes]) -> "DomainName":
        if not labels:
            raise UnsupportedType("root name not served locally")
        try:
            return cls(tuple(lb.decode("ascii").lower() for lb in reversed(labels)))
        except ValueError as exc:  # non-ASCII or unsupported characters
            raise UnsupportedType(str(exc)) from None

    @property
    def dotted(self) -> str:
        return ".".join(reversed(self.labels))

    @property
    def wire(self) -> bytes:
        out = bytearray()
        for label in reversed(self.labels):
            raw = label.encode("ascii")
            out.append(len(raw))
            out += raw
        out.append(0)
        return bytes(out)

    def __str__(self) -> str:
        return self.dotted

    # names have no order; the tuple base would order them by labels
    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented


def _by_sort_key(op):
    def compare(self, other):
        if not isinstance(other, RecordKey):
            return NotImplemented
        return op(self.sort_key(), other.sort_key())

    return compare


class RecordKey(namedtuple("RecordKey", "name rtype")):
    """What a query asks for and what list records are filed under."""

    __slots__ = ()

    def sort_key(self) -> tuple[bytes, int]:
        # canonical order: dotted lowercase name bytes, then type code
        return (self.name.dotted.encode("ascii"), int(self.rtype))

    # all four orders by sort_key, not by the tuple base's order
    __lt__ = _by_sort_key(operator.lt)
    __le__ = _by_sort_key(operator.le)
    __gt__ = _by_sort_key(operator.gt)
    __ge__ = _by_sort_key(operator.ge)


@dataclass(frozen=True)
class RecordAnswer:
    """One answer: type plus raw rdata (CNAME rdata is an uncompressed name)."""

    rtype: RecordType
    data: bytes

    def __post_init__(self):
        if self.rtype == RecordType.A and len(self.data) != 4:
            raise ValueError("A rdata must be 4 bytes")
        if self.rtype == RecordType.AAAA and len(self.data) != 16:
            raise ValueError("AAAA rdata must be 16 bytes")
        if self.rtype == RecordType.CNAME:
            self.cname_target  # validates

    @classmethod
    def a(cls, ip: str) -> "RecordAnswer":
        return cls(RecordType.A, socket.inet_pton(socket.AF_INET, ip))

    @classmethod
    def aaaa(cls, ip: str) -> "RecordAnswer":
        return cls(RecordType.AAAA, socket.inet_pton(socket.AF_INET6, ip))

    @classmethod
    def cname(cls, target: DomainName) -> "RecordAnswer":
        return cls(RecordType.CNAME, target.wire)

    @property
    def cname_target(self) -> DomainName:
        if self.rtype != RecordType.CNAME:
            raise ValueError("not a CNAME answer")
        labels, off = _read_name(self.data, 0)
        if off != len(self.data):
            raise ValueError("trailing bytes after CNAME target")
        return DomainName.from_wire_labels(labels)


def _read_name(wire: bytes, offset: int) -> tuple[list[bytes], int]:
    """Read a (possibly compressed) wire name; returns labels and the
    offset just past the name at its original position."""
    labels: list[bytes] = []
    jumps = 0
    end = -1
    pos = offset
    while True:
        if pos >= len(wire):
            raise MalformedMessage("truncated name")
        length = wire[pos]
        if length & 0xC0 == 0xC0:
            if pos + 1 >= len(wire):
                raise MalformedMessage("truncated compression pointer")
            target = ((length & 0x3F) << 8) | wire[pos + 1]
            if end < 0:
                end = pos + 2
            if target >= pos:
                raise MalformedMessage("forward compression pointer")
            pos = target
            jumps += 1
            if jumps > 32:
                raise MalformedMessage("compression pointer loop")
        elif length & 0xC0:
            raise MalformedMessage("reserved label type")
        elif length == 0:
            if end < 0:
                end = pos + 1
            return labels, end
        else:
            if pos + 1 + length > len(wire):
                raise MalformedMessage("truncated label")
            labels.append(wire[pos + 1 : pos + 1 + length])
            pos += 1 + length
            if sum(len(lb) + 1 for lb in labels) > MAX_NAME_TEXT_LEN + 1:
                raise MalformedMessage("name too long")


_HEADER = struct.Struct("!HHHHHH")


def parse_query(wire: bytes) -> tuple[RecordKey, int]:
    """Parse a single-question query; returns (key, transaction id).

    MalformedMessage for broken structure; UnsupportedType for anything the
    local service will not answer (wrong opcode/class/type, root name).
    """
    if len(wire) < _HEADER.size:
        raise MalformedMessage("short header")
    txid, flags, qdcount, _an, _ns, _ar = _HEADER.unpack_from(wire, 0)
    if flags & 0x8000:
        raise MalformedMessage("not a query (QR set)")
    if (flags >> 11) & 0xF != 0:
        raise UnsupportedType("non-standard opcode")
    if qdcount != 1:
        raise MalformedMessage(f"expected exactly one question, got {qdcount}")
    labels, off = _read_name(wire, _HEADER.size)
    if off + 4 > len(wire):
        raise MalformedMessage("truncated question")
    qtype, qclass = struct.unpack_from("!HH", wire, off)
    if qclass != CLASS_IN:
        raise UnsupportedType(f"class {qclass} not supported")
    name = DomainName.from_wire_labels(labels)
    return RecordKey(name, RecordType.from_code(qtype)), txid


def build_query(txid: int, key: RecordKey) -> bytes:
    """Encode a recursive single-question query."""
    out = bytearray(_HEADER.pack(txid, 0x0100, 1, 0, 0, 0))
    out += key.name.wire
    out += struct.pack("!HH", int(key.rtype), CLASS_IN)
    return bytes(out)


def build_response(
    txid: int,
    key: RecordKey,
    answers: list[RecordAnswer],
    ttl: int,
    rcode: int = RCODE_OK,
) -> bytes:
    """Encode a response to the given question.

    Answer owner names are inferred along the CNAME chain: each answer is
    owned by the previous CNAME's target, starting from the query name.
    Empty answers with rcode=RCODE_NXDOMAIN produce a name error.
    """
    flags = 0x8180 | (rcode & 0xF)  # QR, RD, RA
    out = bytearray(_HEADER.pack(txid, flags, 1, len(answers), 0, 0))
    out += key.name.wire
    out += struct.pack("!HH", int(key.rtype), CLASS_IN)
    owner = key.name
    for ans in answers:
        out += owner.wire
        out += struct.pack("!HHIH", int(ans.rtype), CLASS_IN, ttl, len(ans.data))
        out += ans.data
        if ans.rtype == RecordType.CNAME:
            owner = ans.cname_target
    return bytes(out)


@dataclass(frozen=True)
class ParsedAnswer:
    owner: DomainName
    type_code: int
    ttl: int
    data: bytes  # CNAME rdata is re-encoded uncompressed


@dataclass(frozen=True)
class ParsedResponse:
    txid: int
    rcode: int
    question: RecordKey | None
    answers: tuple[ParsedAnswer, ...]


def parse_response(wire: bytes) -> ParsedResponse:
    """Parse a response, tolerating compression and unknown answer types.

    Unknown-type answers are kept with their raw rdata so callers can
    filter; authority/additional sections are skipped.
    """
    if len(wire) < _HEADER.size:
        raise MalformedMessage("short header")
    txid, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(wire, 0)
    if not flags & 0x8000:
        raise MalformedMessage("not a response (QR clear)")
    rcode = flags & 0xF
    off = _HEADER.size
    question = None
    for i in range(qdcount):
        labels, off = _read_name(wire, off)
        if off + 4 > len(wire):
            raise MalformedMessage("truncated question")
        qtype, qclass = struct.unpack_from("!HH", wire, off)
        off += 4
        if i == 0 and qclass == CLASS_IN:
            try:
                question = RecordKey(
                    DomainName.from_wire_labels(labels), RecordType.from_code(qtype)
                )
            except (UnsupportedType, ValueError):
                question = None
    answers = []
    for _ in range(ancount):
        labels, off = _read_name(wire, off)
        if off + 10 > len(wire):
            raise MalformedMessage("truncated answer header")
        type_code, rclass, ttl, rdlength = struct.unpack_from("!HHIH", wire, off)
        off += 10
        if off + rdlength > len(wire):
            raise MalformedMessage("truncated rdata")
        rdata = wire[off : off + rdlength]
        if type_code == RecordType.CNAME:
            target_labels, used = _read_name(wire, off)
            if used != off + rdlength:
                raise MalformedMessage("CNAME rdata length mismatch")
            rdata = DomainName.from_wire_labels(target_labels).wire
        off += rdlength
        if rclass != CLASS_IN:
            continue
        try:
            owner = DomainName.from_wire_labels(labels)
        except (UnsupportedType, ValueError):
            continue
        answers.append(ParsedAnswer(owner, type_code, ttl, rdata))
    return ParsedResponse(txid, rcode, question, tuple(answers))
