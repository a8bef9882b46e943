"""Minimal DNS message model: names, record keys, query/response codecs.

Only what the local resolver path needs: A, AAAA, and CNAME over class IN,
single-question messages.  Anything else (other types, other classes,
non-query opcodes, the root name) raises UnsupportedType so the caller can
hand the raw query to the fallback transport.  EDNS options are ignored.

Names are stored least-significant-label first ("com", "example", "www"),
which matches how the popularity tree is walked; text and wire forms use
the conventional order.

`DomainName`, `RecordKey` and `RecordAnswer` are immutable tuple
subclasses (a name holds its label tuple, a key its name and type, an
answer its type and rdata), because every list path builds, hashes or
compares them, and tuples do that in C.  Their hashes equal those of
the frozen dataclasses they replace, `hash((labels,))`,
`hash((name, rtype))` and `hash((rtype, data))`, so set orders, rng
draws and every output stay the same under any PYTHONHASHSEED.
`poplist.RecordDef` is a fourth such tuple; its hash, that of its four
fields, need not match its old dataclass's, since no set or dict is keyed
by a record.  Being tuples, they compare equal to the plain tuple of
their fields: `RecordKey(n, t) == (n, t)`.  Keys order by `sort_key`
under all four comparison operators; names and records have no order.

A name's rules live in one bytes-level check, `_is_name`, which
`DomainName` applies to its dot-joined labels.  A query name is
validated once: `_read_name` checks the wire structure (pointers, label
types, total length) and `DomainName.from_wire_labels` applies
`_is_name` to the joined, lowercased labels, then builds the name
without checking it again.  `RecordAnswer` checks its rdata when built;
`poplist.lookup` builds its answers without that check, because every
answer a list holds was checked when its record was.  `build_response`
encodes the question name once and uses it as the first owner; a
CNAME's rdata, lowercased, is its target's wire form.
"""

from __future__ import annotations

import enum
import operator
import socket
import struct
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

MAX_NAME_TEXT_LEN = 253
MAX_LABEL_LEN = 63
CLASS_IN = 1

RCODE_OK = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_DOTTED_NAME_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789-_."


def _is_name(labels: Sequence, dotted: bytes) -> bool:
    """Whether `labels` (at least one), joined by dots into the ASCII bytes
    `dotted`, make a name: 1 to 63 characters a label, each a lowercase
    letter, digit, `-` or `_`, and at most 253 in all.  The one place
    these rules live."""
    return not (
        len(dotted) > MAX_NAME_TEXT_LEN
        or dotted.translate(None, _DOTTED_NAME_BYTES)
        or dotted.count(b".") != len(labels) - 1  # a label holds a dot
        or not 1 <= min(map(len, labels))
        or max(map(len, labels)) > MAX_LABEL_LEN
    )


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
            return _TYPE_BY_CODE[code]
        except KeyError:
            raise UnsupportedType(f"record type {code} not supported") from None


_TYPE_BY_CODE = {int(t): t for t in RecordType}


class DomainName(namedtuple("DomainName", "labels")):
    """A validated lowercase domain name, TLD label first."""

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...]) -> "DomainName":
        if not labels:
            raise ValueError("empty name (root is not representable here)")
        try:
            dotted = ".".join(labels).encode("ascii")
        except UnicodeEncodeError:
            raise ValueError(f"label has unsupported characters: {labels!r}") from None
        if not _is_name(labels, dotted):
            raise ValueError(f"not a supported name: {labels!r}")
        return tuple.__new__(cls, (labels,))

    @classmethod
    def from_text(cls, text: str) -> "DomainName":
        text = text.strip().rstrip(".").lower()
        if not text:
            raise ValueError("empty name")
        return cls(tuple(reversed(text.split("."))))

    @classmethod
    def from_wire_labels(cls, labels: list[bytes]) -> "DomainName":
        """The name of wire-order labels, lowercased.  Checks the joined
        bytes once, by the rules `__new__` applies, so it builds the name
        without a second pass; any invalid name raises UnsupportedType."""
        if not labels:
            raise UnsupportedType("root name not served locally")
        raw = b".".join(labels).lower()
        if not _is_name(labels, raw):
            raise UnsupportedType(f"not a supported name: {labels!r}")
        return tuple.__new__(cls, (tuple(raw.decode("ascii").split(".")[::-1]),))

    @property
    def dotted(self) -> str:
        return ".".join(reversed(self.labels))

    @property
    def wire(self) -> bytes:
        out = []
        for label in reversed(self.labels):
            out.append(chr(len(label)))  # lengths are at most 63: ASCII
            out.append(label)
        out.append("\0")
        return "".join(out).encode("ascii")

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

    def sort_key(self) -> bytes:
        # canonical order: dotted name, a 0 byte (no name byte is 0), type code
        return self.name.dotted.encode("ascii") + b"\0" + self.rtype.to_bytes(2, "big")

    # all four orders by sort_key, not by the tuple base's order
    __lt__ = _by_sort_key(operator.lt)
    __le__ = _by_sort_key(operator.le)
    __gt__ = _by_sort_key(operator.gt)
    __ge__ = _by_sort_key(operator.ge)


class RecordAnswer(namedtuple("RecordAnswer", "rtype data")):
    """One answer: type plus raw rdata (CNAME rdata is an uncompressed name)."""

    __slots__ = ()

    def __new__(cls, rtype: RecordType, data: bytes) -> "RecordAnswer":
        if rtype == RecordType.A and len(data) != 4:
            raise ValueError("A rdata must be 4 bytes")
        if rtype == RecordType.AAAA and len(data) != 16:
            raise ValueError("AAAA rdata must be 16 bytes")
        answer = tuple.__new__(cls, (rtype, data))
        if rtype == RecordType.CNAME:
            answer.cname_target  # validates
        return answer

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
    size = 0  # wire bytes of the labels read: each label and its length
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
            start = pos + 1
            pos = start + length
            if pos > len(wire):
                raise MalformedMessage("truncated label")
            labels.append(wire[start:pos])
            size += 1 + length
            if size > MAX_NAME_TEXT_LEN + 1:
                raise MalformedMessage("name too long")


_HEADER = struct.Struct("!HHHHHH")
_QUESTION_TAIL = struct.Struct("!HH")  # type, class
_ANSWER_HEAD = struct.Struct("!HHIH")  # type, class, ttl, rdata length


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
    qtype, qclass = _QUESTION_TAIL.unpack_from(wire, off)
    if qclass != CLASS_IN:
        raise UnsupportedType(f"class {qclass} not supported")
    name = DomainName.from_wire_labels(labels)
    return tuple.__new__(RecordKey, (name, RecordType.from_code(qtype))), txid


def build_query(txid: int, key: RecordKey) -> bytes:
    """Encode a recursive single-question query."""
    out = bytearray(_HEADER.pack(txid, 0x0100, 1, 0, 0, 0))
    out += key.name.wire
    out += struct.pack("!HH", int(key.rtype), CLASS_IN)
    return bytes(out)


def udp_exchange(query: bytes, endpoint: tuple[str, int], timeout: float) -> bytes:
    """Send `query` to `endpoint` and return the first of up to four
    datagrams from it (the socket is connected) that carries its
    transaction id.  OSError when none does, or on an I/O error or timeout."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.connect(endpoint)
        sock.send(query)
        for _ in range(4):
            data = sock.recv(4096)
            if data[:2] == query[:2]:
                return data
    raise OSError("no matching response")


def build_response(
    txid: int,
    key: RecordKey,
    answers: Sequence[RecordAnswer],
    ttl: int,
    rcode: int = RCODE_OK,
) -> bytes:
    """Encode a response to the given question.

    Answer owner names are inferred along the CNAME chain: each answer is
    owned by the previous CNAME's target, starting from the query name.
    Empty answers with rcode=RCODE_NXDOMAIN produce a name error.
    """
    flags = 0x8180 | (rcode & 0xF)  # QR, RD, RA
    owner = key.name.wire
    out = [
        _HEADER.pack(txid, flags, 1, len(answers), 0, 0),
        owner,
        _QUESTION_TAIL.pack(key.rtype, CLASS_IN),
    ]
    for ans in answers:
        out.append(owner)
        out.append(_ANSWER_HEAD.pack(ans.rtype, CLASS_IN, ttl, len(ans.data)))
        out.append(ans.data)
        if ans.rtype == RecordType.CNAME:
            # valid CNAME rdata holds no pointer (one could only lead back
            # into the name, never to its end) and its length bytes are
            # below b"A", so lowercased it is the target's wire form
            owner = ans.data.lower()
    return b"".join(out)


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
