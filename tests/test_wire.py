"""Codec round trips and framing behaviour for the server protocol."""

import random
import socket
import threading
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.maintenance import LbUpdate, MembershipUpdate, apply_update
from lluad.mixnet import MisbehaviorReport, MixPacket, RoundContext
from lluad.poplist import FormatError, RecordDef, build_list, deserialize, serialize
from lluad import wire

from conftest import random_defs


def key(text, rtype=RecordType.A):
    return RecordKey(DomainName.from_text(text), rtype)


def test_frame_encode_shape():
    frame = wire.encode_frame(wire.MSG_ERROR, b"abc")
    assert frame == b"\x00\x00\x00\x04" + bytes([wire.MSG_ERROR]) + b"abc"


def test_frame_stream_round_trip_over_socketpair():
    left, right = socket.socketpair()
    a, b = wire.FrameStream(left), wire.FrameStream(right)
    payloads = [(wire.MSG_LIST_REQUEST, b"x" * 10), (wire.MSG_ERROR, b""), (0x7F, b"y" * 100_000)]

    def sender():
        for msg_type, body in payloads:
            a.send(msg_type, body)

    thread = threading.Thread(target=sender)
    thread.start()
    for expected_type, expected_body in payloads:
        msg_type, body = b.recv()
        assert (msg_type, body) == (expected_type, expected_body)
    thread.join()
    a.close()
    with pytest.raises(wire.ConnectionClosed):
        b.recv()
    b.close()


def test_frames_sent_from_two_threads_arrive_whole():
    left, right = socket.socketpair()
    a, b = wire.FrameStream(left), wire.FrameStream(right)
    count, size = 20, 200_000
    received, errors = [], []

    def send_all(msg_type):
        try:
            for _ in range(count):
                a.send(msg_type, bytes([msg_type]) * size)
        except OSError as exc:  # only when the reader gave up and closed
            errors.append(exc)

    def read_all():
        try:
            for _ in range(2 * count):
                received.append(b.recv())
        except (wire.FrameError, wire.ConnectionClosed, OSError) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=send_all, args=(t,)) for t in (0x61, 0x62)]
    threads.append(threading.Thread(target=read_all))
    for thread in threads:
        thread.start()
    threads[-1].join(timeout=30.0)
    a.close()
    b.close()
    for thread in threads:
        thread.join()
    assert errors == []
    for msg_type, body in received:
        assert body == bytes([msg_type]) * size
    assert sorted(t for t, _ in received) == [0x61] * count + [0x62] * count


def test_list_request_round_trip():
    body = wire.encode_list_request("client-7", "s3cret tok")
    assert wire.decode_list_request(body) == ("client-7", "s3cret tok")
    with pytest.raises(wire.FrameError):
        wire.decode_list_request(body + b"x")
    with pytest.raises(wire.FrameError):
        wire.decode_list_request(body[:-3])


def test_list_snapshot_round_trip_preserves_generation():
    rng = random.Random(5)
    defs = random_defs(rng)
    plist = build_list(defs, generation=4242)
    body = wire.encode_list_snapshot(plist)
    restored = wire.decode_list_snapshot(body)
    assert restored.generation == 4242
    assert restored.same_structure(plist)


def test_lb_update_round_trip_and_entry_size():
    update = LbUpdate(entries=((0, 1), (999, -5), ((1 << 24) - 1, 32767)))
    body = wire.encode_lb_update(update)
    assert len(body) == 2 + 5 * 3
    assert wire.decode_lb_update(body) == update
    assert wire.decode_lb_update(wire.encode_lb_update(LbUpdate(()))) == LbUpdate(())
    with pytest.raises(ValueError):
        wire.encode_lb_update(LbUpdate(entries=((1 << 24, 0),)))


def test_membership_update_round_trip():
    update = MembershipUpdate(
        removals=(key("gone.example"), key("also.example", RecordType.AAAA)),
        additions=(
            RecordDef(key("plain.example"), RecordAnswer.a("192.0.2.1").data),
            RecordDef(
                key("pooled.example"),
                RecordAnswer.a("10.0.0.2").data,
                (RecordAnswer.a("10.0.0.1").data, RecordAnswer.a("10.0.0.2").data),
            ),
            RecordDef(
                key("alias.example", RecordType.CNAME),
                RecordAnswer.cname(DomainName.from_text("plain.example")).data,
            ),
        ),
    )
    assert wire.decode_membership_update(wire.encode_membership_update(update)) == update


def test_membership_update_rejects_garbage():
    with pytest.raises(wire.FrameError):
        wire.decode_membership_update(b"not zlib at all")
    import zlib

    with pytest.raises(wire.FrameError):
        wire.decode_membership_update(zlib.compress(b"\x00\x01"))


def test_an_inflate_bomb_is_refused_before_it_fills_memory():
    packer = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    # about 100 kB that inflates to 100 MiB, past the 64 MiB bound; were it
    # inflated whole, its first key would fail to decode
    body = packer.compress(b"\xff\xff")
    body += b"".join(packer.compress(zeros) for _ in range(100)) + packer.flush()
    assert len(body) < 120_000
    tracemalloc.start()
    try:
        with pytest.raises(wire.FrameError, match="inflates past"):
            wire.decode_membership_update(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80_000_000


@pytest.mark.parametrize("kind", ["snapshot", "membership"])
def test_a_zlib_stream_must_end_where_the_body_does(kind):
    if kind == "snapshot":
        plist = build_list(random_defs(random.Random(6)), generation=7)
        body, decode = wire.encode_list_snapshot(plist), wire.decode_list_snapshot
    else:
        update = MembershipUpdate(removals=(key("gone.example"),))
        body, decode = wire.encode_membership_update(update), wire.decode_membership_update
    decode(body)
    with pytest.raises(wire.FrameError, match="trailing bytes"):
        decode(body + b"junk")
    with pytest.raises(wire.FrameError, match="truncated"):
        decode(body[:-1])


def test_round_start_round_trip():
    ctx = RoundContext.for_online(2**40, [0, 5, 12], 16, n_shuffle=7)
    restored = wire.decode_round_start(wire.encode_round_start(ctx))
    assert restored == ctx
    assert restored.online_indexes == (0, 5, 12)


def test_round_start_limits():
    # the hop count is one byte and the bitmap length 16 bits: the
    # largest of each round-trips, one more is refused at construction
    ctx = RoundContext(7, b"\xff" * 65_535, n_shuffle=255)
    body = wire.encode_round_start(ctx)
    assert body[8:11] == b"\xff\xff\xff" and len(body) == 11 + 65_535
    assert wire.decode_round_start(body) == ctx
    with pytest.raises(ValueError, match="at most 255 shuffle hops"):
        RoundContext(7, b"\xff", n_shuffle=256)
    with pytest.raises(ValueError, match="over 65535 bytes"):
        RoundContext(7, bytes(65_536))
    with pytest.raises(ValueError, match="over 65535 bytes"):
        RoundContext.for_online(7, [0], 8 * 65_536)


def test_packet_batch_round_trip():
    rng = random.Random(9)
    packets = [
        MixPacket(rng.randbytes(32), rng.randbytes(16), rng.randbytes(32))
        for _ in range(7)
    ]
    body = wire.encode_packet_batch(packets)
    assert len(body) == 2 + 7 * 80
    assert wire.decode_packet_batch(body) == packets
    with pytest.raises(wire.FrameError):
        wire.decode_packet_batch(body[:-1])


def test_misbehavior_report_round_trip():
    report = MisbehaviorReport(123456, (0, 17, 300, 2**20))
    assert wire.decode_misbehavior_report(wire.encode_misbehavior_report(report)) == report


def test_hash_request_round_trip():
    rng = random.Random(11)
    digests = tuple(rng.randbytes(29) for _ in range(3))
    assert wire.decode_hash_request(wire.encode_hash_request(digests)) == digests
    with pytest.raises(ValueError):
        wire.encode_hash_request([b"short"])


def test_error_round_trip():
    code, message = wire.decode_error(wire.encode_error(3, "bad auth"))
    assert (code, message) == (3, "bad auth")


# -- counts past 16 bits -----------------------------------------------------------


def _a_records(n, salt):
    return [
        RecordDef(
            RecordKey(DomainName(("example", f"g{i >> 8}", f"r{i & 0xFF}")), RecordType.A),
            (i + salt).to_bytes(4, "big"),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [65_535, 65_536])
def test_lb_update_past_one_count_reaches_the_follower_intact(n):
    pools = [
        RecordDef(d.key, d.answer, (d.answer, bytes(4), b"\xff" * 4))
        for d in _a_records(3, 1)
    ]
    leader = build_list(pools)
    rng = random.Random(n)
    update = LbUpdate(tuple((rng.randrange(3), rng.randrange(-5, 6)) for _ in range(n)))
    body = wire.encode_lb_update(update)
    runs = -(-n // 0xFFFF)
    assert len(body) == 2 * runs + wire.LB_ENTRY_LEN * n
    follower = apply_update(leader, wire.decode_lb_update(body))
    leader = apply_update(leader, update)
    assert follower.generation == leader.generation == n
    assert serialize(follower) == serialize(leader)


@pytest.mark.parametrize("n", [65_535, 65_536])
def test_membership_update_past_one_count_reaches_the_follower_intact(n):
    base = build_list(_a_records(n, 0))
    update = MembershipUpdate(
        removals=tuple(base.records), additions=tuple(_a_records(n, 7))
    )
    body = wire.encode_membership_update(update)
    if n == 0xFFFF:  # one block: the bytes every shorter message has
        assert zlib.decompress(body)[:2] == b"\xff\xff"
    decoded = wire.decode_membership_update(body)
    assert decoded == update
    leader, follower = apply_update(base, update), apply_update(base, decoded)
    assert len(leader.records) == n
    assert serialize(follower) == serialize(leader)


@pytest.mark.parametrize("n", [65_535, 65_536])
def test_packet_batch_and_hash_request_past_one_count(n):
    packet = MixPacket(bytes(32), bytes(16), bytes(32))
    packets = [packet] * n
    assert wire.decode_packet_batch(wire.encode_packet_batch(packets)) == packets
    digests = tuple(i.to_bytes(29, "big") for i in range(n))
    assert wire.decode_hash_request(wire.encode_hash_request(digests)) == digests


def test_counts_must_be_split_as_the_encoder_splits_them():
    body = wire.encode_lb_update(LbUpdate(((0, 1), (1, 1))))
    split = b"\x00\x01" + body[2:7] + b"\x00\x01" + body[7:]
    with pytest.raises(wire.FrameError, match="runs"):
        wire.decode_lb_update(split)


@pytest.mark.parametrize(
    "decode, body",
    [
        (wire.decode_packet_batch, bytes(4 << 20)),
        (wire.decode_membership_update, zlib.compress(bytes(4 << 20))),
    ],
    ids=["packet-batch", "inflated-update"],
)
def test_a_body_of_empty_blocks_is_refused_at_once(decode, body):
    # a block follows only a full run, so zeros are not read as blocks
    start = time.perf_counter()
    with pytest.raises(wire.FrameError, match="runs"):
        decode(body)
    assert time.perf_counter() - start < 0.1


# -- decoders meet mutated bytes -----------------------------------------------


def _decode_membership_past_zlib(plain: bytes) -> MembershipUpdate:
    """So that mutations reach the records, not only the zlib stream."""
    return wire.decode_membership_update(zlib.compress(plain))


def _valid_encodings():
    """(decoder, valid input) pairs: every decoder a peer's bytes reach."""
    defs = [
        RecordDef(key("plain.example"), RecordAnswer.a("192.0.2.1").data),
        RecordDef(key("six.plain.example", RecordType.AAAA), bytes(range(16))),
        RecordDef(
            key("pooled.example"),
            RecordAnswer.a("10.0.0.2").data,
            (RecordAnswer.a("10.0.0.1").data, RecordAnswer.a("10.0.0.2").data),
        ),
        RecordDef(
            key("alias.example", RecordType.CNAME),
            RecordAnswer.cname(DomainName.from_text("plain.example")).data,
        ),
    ]
    plist = build_list(defs, generation=7)
    update = MembershipUpdate(removals=(key("gone.example"),), additions=tuple(defs))
    membership_plain = zlib.decompress(wire.encode_membership_update(update))
    rng = random.Random(3)
    packets = [MixPacket(rng.randbytes(32), rng.randbytes(16), rng.randbytes(32))]
    ctx = RoundContext.for_online(2**40, [0, 5, 12], 16, n_shuffle=3)
    return [
        (deserialize, serialize(plist)),
        (deserialize, serialize(plist, compress=True)),
        (wire.decode_list_snapshot, wire.encode_list_snapshot(plist)),
        (wire.decode_list_request, wire.encode_list_request("client-7", "tok")),
        (wire.decode_lb_update, wire.encode_lb_update(LbUpdate(((0, 1), (9, -2))))),
        (wire.decode_membership_update, wire.encode_membership_update(update)),
        (_decode_membership_past_zlib, membership_plain),
        (wire.decode_round_start, wire.encode_round_start(ctx)),
        (wire.decode_packet_batch, wire.encode_packet_batch(packets)),
        (
            wire.decode_misbehavior_report,
            wire.encode_misbehavior_report(MisbehaviorReport(99, (0, 17, 300))),
        ),
        (wire.decode_hash_request, wire.encode_hash_request([bytes(29), b"\x01" * 29])),
        (wire.decode_error, wire.encode_error(3, "bad auth")),
    ]


def _mutate(draw, valid: bytes, max_edits: int) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, max_edits))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "delete", "insert"]))
        if edit == "insert":
            data.insert(at, draw(st.integers(0, 255)))
        elif at < len(data) and edit == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif at < len(data):
            del data[at]
    return bytes(data)


@st.composite
def mutated_encodings(draw):
    decode, valid = draw(st.sampled_from(_valid_encodings()))
    return decode, _mutate(draw, valid, 4)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(mutated_encodings())
def test_decoders_return_or_raise_format_error(case):
    decode, data = case
    try:
        decode(data)
    except FormatError:
        pass


_SNAPSHOT = _valid_encodings()[0][1]  # the uncompressed 4-record snapshot


@st.composite
def mutated_snapshots(draw):
    return _mutate(draw, _SNAPSHOT, 3)


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(mutated_snapshots())
def test_a_decodable_snapshot_is_the_one_encoding_of_its_list(data):
    try:
        plist = deserialize(data)
    except FormatError:
        return
    assert serialize(plist) == data


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda b: b[:5] + bytes([b[5] | 0x02]) + b[6:], "unknown flags"),
        (lambda b: b.replace(b"\x05alias", b"\x05zlias"), "siblings not in label order"),
    ],
)
def test_snapshot_rejects_encodings_serialize_never_makes(edit, error):
    with pytest.raises(FormatError, match=error):
        deserialize(edit(_SNAPSHOT))


def test_snapshot_rejects_unmerged_nodes_and_slots_out_of_type_order():
    header = b"LLPL\x01\x00\x00\x00\x00\x01\x00\x00\x00\x00"
    a_slot = b"\x00\x00\x01\x04\xc0\x00\x02\x01"
    merged = b"\x02\x07example\x05plain\x01" + a_slot + b"\x00\x00"
    assert serialize(deserialize(header + merged)) == header + merged
    # "example" holds nothing and has one child: serialize merges it
    unmerged = b"\x01\x07example\x00\x00\x01" + b"\x01\x05plain\x01" + a_slot + b"\x00\x00"
    with pytest.raises(FormatError, match="does not branch"):
        deserialize(header + unmerged)

    both = build_list(
        [
            RecordDef(key("both.example"), bytes(4)),
            RecordDef(key("both.example", RecordType.AAAA), bytes(16)),
        ]
    )
    data = serialize(both)
    a, aaaa = b"\x00\x00\x01\x04" + bytes(4), b"\x00\x00\x1c\x10" + bytes(16)
    assert a + aaaa in data
    with pytest.raises(FormatError, match="type order"):
        deserialize(data.replace(a + aaaa, aaaa + a))
