"""The hit-path codec against the one it replaced (`oracle_dnsmsg`): for
every query, label list and response, equal results or the same
exception class; and a pinned digest of the stub's responses to every
key of a 100k universe."""

import hashlib
import struct
from random import Random

import oracle_dnsmsg as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lluad.client import LluadClient, SimulatedFallback
from lluad.dnsmsg import (
    DomainName,
    RecordAnswer,
    RecordKey,
    RecordType,
    _read_name,
    build_query,
    build_response,
    parse_query,
)
from lluad.maintenance import UpstreamFailure
from lluad.poplist import build_list
from lluad.traces import SyntheticUniverse, UniverseConfig


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by class against the other side
        return "raised", type(exc)


def _same(new, old, *args):
    got, want = _outcome(new, *args), _outcome(old, *args)
    assert got == want, args
    return got


_valid_label = st.text(alphabet="abcxyzABCXYZ019-_", min_size=1, max_size=12).map(str.encode)
_label = st.one_of(
    _valid_label,
    st.binary(min_size=0, max_size=12),
    st.sampled_from(
        [b"a" * 63, b"A" * 63, b"a" * 64, b"b" * 65, b"", b"a.b", b".", b"\xc3\xa9", b"\xff"]
    ),
)
# 253 text characters (the longest valid name) and 254
_long = st.sampled_from(
    [
        [b"a" * 63, b"b" * 63, b"c" * 63, b"d" * 61],
        [b"a" * 63, b"B" * 63, b"c" * 63, b"d" * 62],
        [b"a"] * 127,
        [b"a"] * 128,
    ]
)
_labels = st.one_of(st.lists(_valid_label, min_size=1, max_size=5), st.lists(_label, max_size=6), _long)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(labels=_labels)
def test_from_wire_labels_matches_the_oracle(labels):
    kind, value = _same(DomainName.from_wire_labels, oracle.from_wire_labels, labels)
    if kind == "ok":
        assert type(value) is DomainName


_text_label = st.one_of(
    st.text(alphabet="abcxyz019-_", min_size=1, max_size=12),
    st.text(max_size=12),
    st.sampled_from(["a" * 63, "a" * 64, "", "a.b", ".", "A", "\xe9", "\u0131"]),
)
_text_labels = st.one_of(
    st.lists(_text_label, max_size=6).map(tuple),
    _long.map(lambda labels: tuple(lb.decode().lower() for lb in labels)),
)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(labels=_text_labels)
def test_domain_name_matches_the_oracle(labels):
    kind, value = _same(DomainName, oracle.domain_name, labels)
    if kind == "ok":
        assert type(value) is DomainName and value.labels is labels


def _encode_labels(labels):
    return b"".join(bytes([min(len(lb), 255)]) + lb[:255] for lb in labels)


@st.composite
def _queries(draw):
    txid = draw(st.integers(0, 0xFFFF))
    # each field is valid more often than not (repeats weight the draw)
    flags = draw(st.sampled_from([0x0100] * 5 + [0x0000, 0x8100, 0x0900]))
    qdcount = draw(st.sampled_from([1] * 6 + [0, 2]))
    header = struct.pack("!HHHHHH", txid, flags, qdcount, 0, 0, draw(st.integers(0, 1)))
    name = _encode_labels(draw(_labels))
    end = draw(st.integers(0, 9))
    if end == 0:  # a compression pointer into the header
        name += bytes([0xC0, draw(st.integers(0, 13))])
    elif end == 1:  # a pointer to the name's own start, or past it
        name += bytes([0xC0, draw(st.integers(12, 40))])
    else:
        name += b"\x00"
    qtype = draw(st.sampled_from([1, 5, 28] * 3 + [16, 0, 0xFFFF]))
    qclass = draw(st.sampled_from([1] * 6 + [3, 255]))
    tail = struct.pack("!HH", qtype, qclass)[: draw(st.sampled_from([4] * 6 + [3, 0]))]
    return header + name + tail


def _key_case(data, key):
    # a valid query, then up to three byte edits and maybe a truncation
    wire = bytearray(build_query(data.draw(st.integers(0, 0xFFFF)), key))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(wire) - 1))
        wire[at] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(wire)))
    return bytes(wire[:cut]) if data.draw(st.booleans()) else bytes(wire)


_name_text = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=10),
    min_size=1,
    max_size=5,
).map(".".join)
_rtype = st.sampled_from(list(RecordType))


def _check_parse(wire):
    kind, value = _same(parse_query, oracle.parse_query, wire)
    if kind == "ok":
        key = value[0]
        assert type(key) is RecordKey and type(key.name) is DomainName
        assert type(key.rtype) is RecordType


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(wire=_queries())
def test_parse_query_matches_the_oracle_on_generated_queries(wire):
    _check_parse(wire)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data(), name=_name_text, rtype=_rtype)
def test_parse_query_matches_the_oracle_on_mutated_queries(data, name, rtype):
    _check_parse(_key_case(data, RecordKey(DomainName.from_text(name), rtype)))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(wire=st.binary(max_size=80), offset=st.integers(0, 16))
def test_read_name_matches_the_oracle(wire, offset):
    _same(_read_name, oracle._read_name, wire, offset)


def _mixed_case_wire(labels, flips):
    out = []
    for i, label in enumerate(labels):
        out.append(label.upper() if i in flips else label)
    return _encode_labels([lb.encode() for lb in out]) + b"\x00"


@st.composite
def _answers(draw):
    answers = []
    for _ in range(draw(st.integers(0, 4))):
        rtype = draw(_rtype)
        if rtype == RecordType.A:
            answers.append(RecordAnswer(rtype, draw(st.binary(min_size=4, max_size=4))))
        elif rtype == RecordType.AAAA:
            answers.append(RecordAnswer(rtype, draw(st.binary(min_size=16, max_size=16))))
        else:
            labels = draw(_name_text).split(".")
            flips = draw(st.sets(st.integers(0, len(labels) - 1)))
            answers.append(RecordAnswer(rtype, _mixed_case_wire(labels, flips)))
    return answers


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    txid=st.integers(0, 0xFFFF),
    name=_name_text,
    rtype=_rtype,
    answers=_answers(),
    ttl=st.integers(0, 2**32 - 1),
    rcode=st.integers(0, 15),
    as_tuple=st.booleans(),
)
def test_build_response_matches_the_oracle(txid, name, rtype, answers, ttl, rcode, as_tuple):
    key = RecordKey(DomainName.from_text(name), rtype)
    given_answers = tuple(answers) if as_tuple else answers
    assert build_response(txid, key, given_answers, ttl, rcode) == oracle.build_response(
        txid, key, answers, ttl, rcode
    )


def test_a_cname_target_with_a_pointer_is_rejected():
    # build_response lowercases CNAME rdata for the next owner; that is
    # its target's wire form only because valid rdata has no pointer
    for data in (b"\x01a\xc0\x00", b"\x03\x00bc\xc0\x01", b"\x01a\x01b\xc0\x02"):
        with pytest.raises(ValueError):
            RecordAnswer(RecordType.CNAME, data)


def _universe_resolver(universe):
    def resolve(key):
        out = []
        for _ in range(16):
            try:
                step = universe.resolve(key)
            except UpstreamFailure:
                return None
            if step.cname is None:
                return out + [RecordAnswer(key.rtype, a) for a in step.answers]
            out.append(RecordAnswer.cname(step.cname))
            key = RecordKey(step.cname, key.rtype)
        return None

    return resolve


def _resolve_all():
    """Every key of a 100k universe through the stub's handler: hits from
    the 25k list, misses from a fallback resolving from the universe.
    Returns (hits, misses, hits with a CNAME chain) and the SHA-256 of
    the responses."""
    universe = SyntheticUniverse(
        UniverseConfig(100_000, seed=23, lb_fraction=0.02, cname_fraction=0.05)
    )
    client = LluadClient(
        "pin",
        "pin-token",
        ("127.0.0.1", 9),
        shuffler_pubs={},
        server_pub=bytes(32),
        fallback=SimulatedFallback(_universe_resolver(universe)),
        rng=Random(23),
    )
    client._plist = build_list(universe.record_defs(25_000))
    digest = hashlib.sha256()
    chained_hits = 0
    for i, key in enumerate(universe.keys):
        hits = client.hits
        response = client.resolve(build_query(i & 0xFFFF, key))
        digest.update(response)
        if client.hits > hits and int.from_bytes(response[6:8], "big") > 1:
            chained_hits += 1
    return (client.hits, client.misses, chained_hits), digest.hexdigest()


def test_resolve_responses_are_pinned():
    assert _resolve_all() == (
        (25_000, 75_000, 4091),
        "f568f28627d0dff1bbcba0db0092591ea4d47f0bc00dd834e80dd919427f8a13",
    )
