"""The DNS hit-path codec as it stood before it was made single-pass:
`_read_name` re-sums the label lengths after each label,
`from_wire_labels` decodes label by label and lets `DomainName` check
the labels again, one by one, and `build_response` encodes every owner
name and re-parses each CNAME's rdata for the next owner.  Kept verbatim
(but for the names checked, encoded and parsed here rather than through
`DomainName`, `DomainName.wire` and `RecordAnswer.cname_target`) as the
oracle the `dnsmsg` codec must match: equal results, or the same
exception class."""

import struct

from lluad.dnsmsg import (
    CLASS_IN,
    MAX_LABEL_LEN,
    MAX_NAME_TEXT_LEN,
    RCODE_OK,
    DomainName,
    MalformedMessage,
    RecordAnswer,
    RecordKey,
    RecordType,
    UnsupportedType,
)

_HEADER = struct.Struct("!HHHHHH")


def from_code(code: int) -> RecordType:
    try:
        return RecordType(code)
    except ValueError:
        raise UnsupportedType(f"record type {code} not supported") from None


_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def domain_name(labels: tuple[str, ...]) -> DomainName:
    """`DomainName(labels)`, checking one label at a time."""
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
    return tuple.__new__(DomainName, (labels,))


def from_wire_labels(labels: list[bytes]) -> DomainName:
    if not labels:
        raise UnsupportedType("root name not served locally")
    try:
        return domain_name(tuple(lb.decode("ascii").lower() for lb in reversed(labels)))
    except ValueError as exc:  # non-ASCII or unsupported characters
        raise UnsupportedType(str(exc)) from None


def wire(name: DomainName) -> bytes:
    out = bytearray()
    for label in reversed(name.labels):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def cname_target(answer: RecordAnswer) -> DomainName:
    if answer.rtype != RecordType.CNAME:
        raise ValueError("not a CNAME answer")
    labels, off = _read_name(answer.data, 0)
    if off != len(answer.data):
        raise ValueError("trailing bytes after CNAME target")
    return from_wire_labels(labels)


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


def parse_query(wire: bytes) -> tuple[RecordKey, int]:
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
    name = from_wire_labels(labels)
    return RecordKey(name, from_code(qtype)), txid


def build_response(
    txid: int,
    key: RecordKey,
    answers: list[RecordAnswer],
    ttl: int,
    rcode: int = RCODE_OK,
) -> bytes:
    flags = 0x8180 | (rcode & 0xF)  # QR, RD, RA
    out = bytearray(_HEADER.pack(txid, flags, 1, len(answers), 0, 0))
    out += wire(key.name)
    out += struct.pack("!HH", int(key.rtype), CLASS_IN)
    owner = key.name
    for ans in answers:
        out += wire(owner)
        out += struct.pack("!HHIH", int(ans.rtype), CLASS_IN, ttl, len(ans.data))
        out += ans.data
        if ans.rtype == RecordType.CNAME:
            owner = cname_target(ans)
    return bytes(out)
