"""DNS codec checks against hand-built RFC 1035 bytes and an
independently written mini-parser (different traversal style on purpose,
so a shared misreading of the format would have to happen twice)."""

import copy
import operator
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lluad.dnsmsg import (
    CLASS_IN,
    RCODE_NXDOMAIN,
    RCODE_OK,
    RCODE_SERVFAIL,
    DomainName,
    MalformedMessage,
    RecordAnswer,
    RecordKey,
    RecordType,
    UnsupportedType,
    build_query,
    build_response,
    parse_query,
    parse_response,
)


class MiniReader:
    """Independent cursor-style DNS reader used only as a test oracle."""

    def __init__(self, wire):
        self.wire = wire
        self.pos = 0

    def u8(self):
        v = self.wire[self.pos]
        self.pos += 1
        return v

    def u16(self):
        v = int.from_bytes(self.wire[self.pos : self.pos + 2], "big")
        self.pos += 2
        return v

    def u32(self):
        v = int.from_bytes(self.wire[self.pos : self.pos + 4], "big")
        self.pos += 4
        return v

    def name(self):
        parts = []
        while True:
            n = self.u8()
            if n == 0:
                return ".".join(parts)
            if n >= 0xC0:
                ptr = ((n & 0x3F) << 8) | self.u8()
                sub = MiniReader(self.wire)
                sub.pos = ptr
                rest = sub.name()
                return ".".join(parts + [rest]) if parts else rest
            parts.append(self.wire[self.pos : self.pos + n].decode())
            self.pos += n

    def message(self):
        txid = self.u16()
        flags = self.u16()
        counts = [self.u16() for _ in range(4)]
        questions = []
        for _ in range(counts[0]):
            questions.append((self.name(), self.u16(), self.u16()))
        answers = []
        for _ in range(counts[1]):
            owner = self.name()
            rtype, rclass = self.u16(), self.u16()
            ttl = self.u32()
            rdlen = self.u16()
            rdata = self.wire[self.pos : self.pos + rdlen]
            self.pos += rdlen
            answers.append((owner, rtype, rclass, ttl, rdata))
        return txid, flags, questions, answers


def key(text, rtype=RecordType.A):
    return RecordKey(DomainName.from_text(text), rtype)


def test_name_text_round_trip_and_label_order():
    n = DomainName.from_text("WWW.Example.COM.")
    assert n.labels == ("com", "example", "www")
    assert n.dotted == "www.example.com"
    assert n.wire == b"\x03www\x07example\x03com\x00"


def test_name_validation():
    with pytest.raises(ValueError):
        DomainName.from_text("")
    with pytest.raises(ValueError):
        DomainName(("com", "a" * 64))
    with pytest.raises(ValueError):
        DomainName.from_text("exa mple.com")
    with pytest.raises(ValueError):
        DomainName.from_text(".".join("abcdefgh" for _ in range(40)))


def test_record_key_ordering_is_total_and_canonical():
    keys = [
        key("b.example.com"),
        key("a.example.com", RecordType.AAAA),
        key("a.example.com"),
        key("example.com"),
    ]
    ordered = sorted(keys)
    assert [k.name.dotted for k in ordered] == [
        "a.example.com",
        "a.example.com",
        "b.example.com",
        "example.com",
    ]
    assert ordered[0].rtype == RecordType.A  # type code breaks the name tie
    assert sorted(reversed(ordered)) == ordered


def test_parse_query_hand_built_bytes():
    wire = (
        struct.pack("!HHHHHH", 0x1234, 0x0100, 1, 0, 0, 0)
        + b"\x03www\x07example\x03com\x00"
        + struct.pack("!HH", 1, 1)
    )
    k, txid = parse_query(wire)
    assert txid == 0x1234
    assert k == key("www.example.com")


def test_parse_query_rejections():
    base = build_query(7, key("example.com"))
    with pytest.raises(MalformedMessage):
        parse_query(base[:10])
    with pytest.raises(MalformedMessage):
        parse_query(struct.pack("!HHHHHH", 1, 0, 2, 0, 0, 0))
    # class CH
    chaos = bytearray(base)
    chaos[-1] = 3
    with pytest.raises(UnsupportedType):
        parse_query(bytes(chaos))
    # qtype TXT
    txt = bytearray(base)
    txt[-3] = 16
    with pytest.raises(UnsupportedType):
        parse_query(bytes(txt))
    # response bit
    resp = bytearray(base)
    resp[2] |= 0x80
    with pytest.raises(MalformedMessage):
        parse_query(bytes(resp))
    # root name query
    root = (
        struct.pack("!HHHHHH", 1, 0x0100, 1, 0, 0, 0)
        + b"\x00"
        + struct.pack("!HH", 1, 1)
    )
    with pytest.raises(UnsupportedType):
        parse_query(root)


def test_parse_query_lowercases():
    wire = (
        struct.pack("!HHHHHH", 9, 0x0100, 1, 0, 0, 0)
        + b"\x03WwW\x07eXamPle\x03CoM\x00"
        + struct.pack("!HH", 28, 1)
    )
    k, _ = parse_query(wire)
    assert k == key("www.example.com", RecordType.AAAA)


def test_build_response_checked_by_independent_reader():
    k = key("www.shop.example")
    answers = [
        RecordAnswer.cname(DomainName.from_text("edge.cdn.example")),
        RecordAnswer.a("192.0.2.7"),
    ]
    wire = build_response(0xBEEF, k, answers, ttl=300)
    txid, flags, questions, parsed = MiniReader(wire).message()
    assert txid == 0xBEEF
    assert flags & 0x8000  # QR
    assert flags & 0xF == RCODE_OK
    assert questions == [("www.shop.example", 1, CLASS_IN)]
    # owner of the A answer follows the CNAME target
    assert parsed[0][0] == "www.shop.example"
    assert parsed[0][1] == int(RecordType.CNAME)
    assert parsed[1][0] == "edge.cdn.example"
    assert parsed[1][4] == bytes([192, 0, 2, 7])


def test_nxdomain_response():
    wire = build_response(5, key("gone.example"), [], ttl=60, rcode=RCODE_NXDOMAIN)
    txid, flags, questions, answers = MiniReader(wire).message()
    assert flags & 0xF == RCODE_NXDOMAIN
    assert answers == []
    assert parse_response(wire).rcode == RCODE_NXDOMAIN


def test_servfail_response():
    wire = build_response(6, key("x.example"), [], ttl=0, rcode=RCODE_SERVFAIL)
    assert parse_response(wire).rcode == RCODE_SERVFAIL


def test_parse_response_with_compression_pointers():
    # answer owner compressed to point at the question name (offset 12)
    question = b"\x04mail\x07example\x03com\x00"
    wire = (
        struct.pack("!HHHHHH", 0x42, 0x8180, 1, 2, 0, 0)
        + question
        + struct.pack("!HH", 1, 1)
        + b"\xc0\x0c"  # pointer to question name
        + struct.pack("!HHIH", 5, 1, 120, 2)
        + b"\xc0\x11"  # CNAME rdata: pointer to "example.com"
        + b"\xc0\x11"
        + struct.pack("!HHIH", 1, 1, 120, 4)
        + bytes([198, 51, 100, 1])
    )
    parsed = parse_response(wire)
    assert parsed.txid == 0x42
    assert parsed.question == key("mail.example.com")
    assert parsed.answers[0].owner.dotted == "mail.example.com"
    assert parsed.answers[0].type_code == 5
    # compressed CNAME rdata comes back normalized to an uncompressed name
    assert parsed.answers[0].data == b"\x07example\x03com\x00"
    assert parsed.answers[1].owner.dotted == "example.com"
    assert parsed.answers[1].data == bytes([198, 51, 100, 1])


def test_parse_response_skips_unknown_class_and_keeps_unknown_types():
    question = b"\x01a\x02io\x00"
    wire = (
        struct.pack("!HHHHHH", 1, 0x8180, 1, 2, 0, 0)
        + question
        + struct.pack("!HH", 1, 1)
        + b"\xc0\x0c"
        + struct.pack("!HHIH", 16, 1, 60, 3)
        + b"abc"
        + b"\xc0\x0c"
        + struct.pack("!HHIH", 1, 3, 60, 4)
        + bytes(4)
    )
    parsed = parse_response(wire)
    assert len(parsed.answers) == 1
    assert parsed.answers[0].type_code == 16
    assert parsed.answers[0].data == b"abc"


def test_compression_loop_rejected():
    wire = (
        struct.pack("!HHHHHH", 1, 0x8180, 1, 0, 0, 0)
        + b"\xc0\x0c"  # name points at itself
        + struct.pack("!HH", 1, 1)
    )
    with pytest.raises(MalformedMessage):
        parse_response(wire)


def test_answer_validation():
    with pytest.raises(ValueError):
        RecordAnswer(RecordType.A, b"\x01\x02")
    with pytest.raises(ValueError):
        RecordAnswer(RecordType.AAAA, b"\x01" * 4)
    with pytest.raises(ValueError):
        RecordAnswer(RecordType.CNAME, b"\x07example")  # truncated
    target = RecordAnswer.cname(DomainName.from_text("a.b.example")).cname_target
    assert target.dotted == "a.b.example"


_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12)
_name = st.lists(_label, min_size=1, max_size=4).map(
    lambda ls: DomainName(tuple(ls))
)


@settings(max_examples=60, deadline=None)
@given(
    name=_name,
    txid=st.integers(0, 0xFFFF),
    rtype=st.sampled_from([RecordType.A, RecordType.AAAA, RecordType.CNAME]),
)
def test_query_round_trip_property(name, txid, rtype):
    k = RecordKey(name, rtype)
    parsed_key, parsed_txid = parse_query(build_query(txid, k))
    assert parsed_key == k
    assert parsed_txid == txid
    # cross-check the built bytes with the independent reader
    mini_txid, _, questions, _ = MiniReader(build_query(txid, k)).message()
    assert mini_txid == txid
    assert questions == [(name.dotted, int(rtype), CLASS_IN)]


@settings(max_examples=40, deadline=None)
@given(name=_name, ttl=st.integers(0, 2**31 - 1), data=st.binary(min_size=4, max_size=4))
def test_response_round_trip_property(name, ttl, data):
    k = RecordKey(name, RecordType.A)
    wire = build_response(1, k, [RecordAnswer(RecordType.A, data)], ttl)
    parsed = parse_response(wire)
    assert parsed.question == k
    assert parsed.answers[0].owner == name
    assert parsed.answers[0].ttl == ttl
    assert parsed.answers[0].data == data


# -- names and keys as values ----------------------------------------------------

_key = st.builds(RecordKey, _name, st.sampled_from(list(RecordType)))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(_key, min_size=1, max_size=8))
def test_names_and_keys_behave_as_the_values_they_replaced(keys):
    for k in keys:
        n = k.name
        # the hash the frozen dataclasses had: set orders and outputs
        # depend on it
        assert hash(n) == hash((n.labels,))
        assert hash(k) == hash((k.name, k.rtype))
        assert k == (n, k.rtype) and n == (n.labels,)
        assert repr(n) == f"DomainName(labels={n.labels!r})"
        assert repr(k) == str(k) == f"RecordKey(name={n!r}, rtype={k.rtype!r})"
        assert str(n) == ".".join(reversed(n.labels))
        assert DomainName.from_text(str(n)) == n
        for twin in (pickle.loads(pickle.dumps(k)), copy.copy(k), copy.deepcopy(k)):
            assert twin == k and type(twin) is RecordKey and type(twin.name) is DomainName
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(n, n)
    assert sorted(keys) == sorted(keys, key=RecordKey.sort_key)
    for a in keys:
        for b in keys:
            assert (a < b) == (a.sort_key() < b.sort_key())
            assert (a <= b) == (a.sort_key() <= b.sort_key())
            assert (a > b) == (a.sort_key() > b.sort_key())
            assert (a >= b) == (a.sort_key() >= b.sort_key())


_bad_label = st.one_of(
    st.just(""),
    st.text(alphabet="abc", min_size=64, max_size=70),
    st.text(min_size=1, max_size=8).filter(
        lambda t: not set(t) <= set("abcdefghijklmnopqrstuvwxyz0123456789-_")
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    good=st.lists(_label, max_size=3),
    bad=_bad_label,
    at=st.integers(0, 3),
)
def test_invalid_names_raise_the_same_error_types(good, bad, at):
    labels = tuple(good[:at]) + (bad,) + tuple(good[at:])
    with pytest.raises(ValueError) as raised:
        DomainName(labels)
    assert type(raised.value) is ValueError
    if not 1 <= len(bad) <= 63 or bad.lower() != bad:
        return  # the wire parser reads no such label; it lowercases first
    with pytest.raises(UnsupportedType):
        DomainName.from_wire_labels([label.encode() for label in reversed(labels)])


def test_empty_and_overlong_names_raise_value_error():
    for labels in [(), ("a" * 63,) * 4, ("a",) * 128]:
        with pytest.raises(ValueError) as raised:
            DomainName(labels)
        assert type(raised.value) is ValueError
    assert len(DomainName(("a" * 63,) * 3 + ("a" * 61,)).dotted) == 253
    assert len(DomainName(("a",) * 127).dotted) == 253
    with pytest.raises(UnsupportedType):
        DomainName.from_wire_labels([])
