"""List structure: construction, lookup, pool rotation, updates, wire format.

Two oracles carry most of the weight: a flat dict resolver (lookup must
agree with it on every key, hit or miss) and rebuild-from-records (every
incremental update must land on the same structure a fresh build of the
edited record set produces).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_resolve, random_defs
from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.poplist import (
    CnameSlot,
    FormatError,
    IndexOutOfRange,
    InvariantViolation,
    PoolSlot,
    RecordDef,
    UnknownRecord,
    apply_lb_update,
    apply_membership_update,
    build_list,
    deserialize,
    iter_records,
    lookup,
    record_count,
    serialize,
)


def key(text, rtype=RecordType.A):
    return RecordKey(DomainName.from_text(text), rtype)


def plain(text, ip="192.0.2.1", rtype=RecordType.A):
    data = RecordAnswer.a(ip).data if rtype == RecordType.A else RecordAnswer.aaaa(ip).data
    return RecordDef(key(text, rtype), data)


def cname(text, target):
    return RecordDef(
        key(text, RecordType.CNAME),
        RecordAnswer.cname(DomainName.from_text(target)).data,
    )


def test_single_child_chains_merge():
    plist = build_list([plain("mail.internal.example.com")])
    assert len(plist.roots) == 1
    assert plist.roots[0].labels == ("com", "example", "internal", "mail")
    assert plist.roots[0].children == ()
    assert record_count(plist) == 1


def test_shared_prefixes_split_nodes():
    plist = build_list(
        [plain("mail.example.com"), plain("www.example.com"), plain("example.com")]
    )
    root = plist.roots[0]
    assert root.labels == ("com", "example")
    assert len(root.slots) == 1  # example.com's own record
    assert [c.labels for c in root.children] == [("mail",), ("www",)]


def test_lookup_agrees_with_flat_resolver_on_random_sets():
    rng = random.Random(31)
    for _ in range(25):
        defs = random_defs(rng)
        plist = build_list(defs)
        for d in defs:
            for rtype in (RecordType.A, RecordType.AAAA, RecordType.CNAME):
                probe = RecordKey(d.key.name, rtype)
                expected = flat_resolve(defs, probe)
                got = lookup(plist, probe)
                if expected is None:
                    assert got is None, probe
                else:
                    assert got is not None, probe
                    assert list(got.answers) == expected
        # misses stay misses
        assert lookup(plist, key("definitely-absent.example")) is None


def test_cname_chain_lookup_returns_full_chain():
    defs = [
        plain("origin.example.net", "198.51.100.9"),
        cname("edge.example.net", "origin.example.net"),
        cname("www.shop.io", "edge.example.net"),
    ]
    hit = lookup(build_list(defs), key("www.shop.io"))
    assert hit is not None
    assert [a.rtype for a in hit.answers] == [
        RecordType.CNAME,
        RecordType.CNAME,
        RecordType.A,
    ]
    assert hit.answers[0].cname_target.dotted == "edge.example.net"
    assert hit.answers[-1].data == bytes([198, 51, 100, 9])


def test_closure_and_cycles_rejected():
    with pytest.raises(InvariantViolation):
        build_list([cname("a.example", "missing.example")])
    with pytest.raises(InvariantViolation):
        build_list([cname("a.example", "b.example"), cname("b.example", "a.example")])
    with pytest.raises(InvariantViolation):
        build_list([plain("a.example"), cname("a.example", "b.example"), plain("b.example")])
    with pytest.raises(InvariantViolation):
        build_list([plain("a.example"), plain("a.example", "192.0.2.9")])


def test_pool_groups_are_canonical():
    a1, a2, a3 = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]), bytes([10, 0, 0, 3])
    defs = [
        RecordDef(key("z.cdn.example"), a2, (a3, a2, a1)),
        RecordDef(key("a.cdn.example"), a1, (a1, a3)),
        plain("other.example"),
    ]
    plist = build_list(defs)
    names = [g.key.name.dotted for g in plist.pool.groups]
    assert names == ["a.cdn.example", "z.cdn.example"]
    assert plist.pool.groups[1].answers == (a1, a2, a3)  # sorted by content
    assert plist.pool.groups[1].active == a2
    hit = lookup(plist, key("z.cdn.example"))
    assert hit.answers[0].data == a2


def test_lb_update_rotates_mod_group_size():
    a = [bytes([10, 0, 0, i]) for i in range(1, 5)]
    plist = build_list([RecordDef(key("lb.example"), a[0], tuple(a))])
    plist2 = apply_lb_update(plist, [(0, 3)])
    assert plist2.pool.groups[0].active == a[3]
    assert plist2.generation == plist.generation + 1
    plist3 = apply_lb_update(plist2, [(0, 2)])  # wraps
    assert plist3.pool.groups[0].active == a[1]
    back = apply_lb_update(plist3, [(0, -1)])
    assert back.pool.groups[0].active == a[0]
    assert back.same_structure(plist)
    with pytest.raises(IndexOutOfRange):
        apply_lb_update(plist, [(5, 1)])


def test_lb_offsets_compose_additively():
    rng = random.Random(32)
    a = tuple(bytes([10, 1, 0, i]) for i in range(6))
    plist = build_list([RecordDef(key("pool.example"), a[0], a)])
    offsets = [rng.randint(-7, 7) for _ in range(30)]
    stepped = plist
    for off in offsets:
        stepped = apply_lb_update(stepped, [(0, off)])
    direct = apply_lb_update(plist, [(0, sum(offsets))])
    assert stepped.pool.groups[0] == direct.pool.groups[0]


def test_membership_update_matches_rebuild_oracle():
    rng = random.Random(33)
    for _ in range(15):
        defs = random_defs(rng)
        plist = build_list(defs)
        removable = [
            d.key
            for d in defs
            if d.key.rtype != RecordType.CNAME
            and not any(
                x.key.rtype == RecordType.CNAME and x.cname_target == d.key.name
                for x in defs
            )
        ]
        remove = rng.sample(removable, min(2, len(removable)))
        additions = random_defs(rng, n_plain=3, n_lb=1, n_cname=0)
        updated = apply_membership_update(plist, remove, additions)
        expected = build_list(
            [d for d in defs if d.key not in remove] + additions
        )
        assert updated.same_structure(expected)
        assert updated.generation == plist.generation + 1


def test_add_then_remove_is_identity_modulo_generation():
    defs = random_defs(random.Random(34))
    plist = build_list(defs)
    extra = plain("temp.example.org", "203.0.113.5")
    there = apply_membership_update(plist, additions=[extra])
    back = apply_membership_update(there, removals=[extra.key])
    assert back.same_structure(plist)
    assert back.generation == plist.generation + 2


def test_upsert_replaces_in_place():
    plist = build_list([plain("site.example", "192.0.2.1")])
    updated = apply_membership_update(
        plist, additions=[plain("site.example", "192.0.2.99")]
    )
    assert lookup(updated, key("site.example")).answers[0].data == bytes(
        [192, 0, 2, 99]
    )
    assert record_count(updated) == 1


def test_referenced_cname_target_is_retained():
    defs = [
        plain("origin.example", "198.51.100.1"),
        cname("www.example", "origin.example"),
    ]
    plist = build_list(defs)
    kept = apply_membership_update(plist, removals=[key("origin.example")])
    # still resolvable through the CNAME, target retained
    assert lookup(kept, key("www.example")) is not None
    assert lookup(kept, key("origin.example")) is not None
    # removing the last referrer lets the target go next time
    gone = apply_membership_update(
        kept, removals=[key("www.example", RecordType.CNAME), key("origin.example")]
    )
    assert lookup(gone, key("origin.example")) is None
    assert record_count(gone) == 0


def test_removing_unknown_record_raises():
    plist = build_list([plain("a.example")])
    with pytest.raises(UnknownRecord):
        apply_membership_update(plist, removals=[key("b.example")])


def test_iter_records_inverts_build():
    rng = random.Random(35)
    defs = random_defs(rng)
    plist = build_list(defs)
    recovered = sorted(iter_records(plist), key=lambda d: d.key.sort_key())
    original = sorted(defs, key=lambda d: d.key.sort_key())
    # pools come back deduplicated and sorted; normalize the originals
    normalized = [
        RecordDef(d.key, d.answer, tuple(sorted(set(d.pool))) if d.pool else ())
        for d in original
    ]
    assert recovered == normalized


def test_serialize_round_trip_and_determinism():
    rng = random.Random(36)
    for _ in range(20):
        defs = random_defs(rng)
        plist = build_list(defs, generation=7)
        for compress in (False, True):
            data = serialize(plist, compress=compress)
            again = deserialize(data, generation=7)
            assert again == plist
        assert serialize(plist) == serialize(build_list(list(reversed(defs)), generation=7))


def test_serialized_header_fields():
    defs = random_defs(random.Random(37))
    plist = build_list(defs)
    data = serialize(plist)
    assert data[:4] == b"LLPL"
    assert data[4] == 1
    assert data[5] == 0
    assert int.from_bytes(data[6:10], "big") == record_count(plist)
    assert int.from_bytes(data[10:14], "big") == len(plist.pool.groups)
    assert serialize(plist, compress=True)[5] == 1


def test_empty_list_round_trips():
    empty = build_list([])
    assert deserialize(serialize(empty)) == empty
    assert record_count(empty) == 0
    assert lookup(empty, key("anything.example")) is None


def test_deserialize_rejects_garbage():
    defs = [plain("a.example"), cname("b.example", "a.example")]
    data = serialize(build_list(defs))
    with pytest.raises(FormatError):
        deserialize(data[:10])
    with pytest.raises(FormatError):
        deserialize(b"XXXX" + data[4:])
    with pytest.raises(FormatError):
        deserialize(data[:4] + bytes([9]) + data[5:])
    with pytest.raises(FormatError):
        deserialize(data + b"\x00")
    truncated = data[:-3]
    with pytest.raises(FormatError):
        deserialize(truncated)
    compressed = serialize(build_list(defs), compress=True)
    with pytest.raises(FormatError):
        deserialize(compressed[:14] + b"\x00" + compressed[15:])


def test_cname_slot_paths_survive_forward_references():
    # target name sorts after the referrer, so the wire path points forward
    defs = [plain("zz-target.example"), cname("aa-alias.example", "zz-target.example")]
    plist = build_list(defs)
    again = deserialize(serialize(plist))
    hit = lookup(again, key("aa-alias.example"))
    assert hit.answers[0].rtype == RecordType.CNAME
    assert hit.answers[1].data == bytes([192, 0, 2, 1])


def test_slots_ordered_by_type_code():
    defs = [
        plain("dual.example", "192.0.2.4"),
        plain("dual.example", "2001:db8::4", RecordType.AAAA),
    ]
    plist = build_list(defs)
    node = plist.roots[0]
    assert [s.answer.rtype for s in node.slots] == [RecordType.A, RecordType.AAAA]


def test_pool_and_cname_slot_kinds_survive_round_trip():
    a = tuple(bytes([10, 9, 0, i]) for i in range(3))
    defs = [
        RecordDef(key("balance.example"), a[1], a),
        cname("alias.example", "balance.example"),
    ]
    plist = build_list(defs)
    again = deserialize(serialize(plist))
    node_types = set()
    for d in iter_records(again):
        node_types.add(d.key.rtype)
    assert again.pool.groups[0].current_index == 1
    assert node_types == {RecordType.A, RecordType.CNAME}

    def walk(node):
        yield from node.slots
        for child in node.children:
            yield from walk(child)

    slot_kinds = {type(s) for root in again.roots for s in walk(root)}
    assert PoolSlot in slot_kinds and CnameSlot in slot_kinds


# -- the record table against rebuild-from-records ---------------------------------

_NAMES = [
    DomainName.from_text(t)
    for t in ("a.example", "b.example", "c.b.example", "d.example.net", "e.net")
]
_ADDRESSES = {
    RecordType.A: [bytes([192, 0, 2, i]) for i in range(1, 5)],
    RecordType.AAAA: [bytes(15) + bytes([i]) for i in range(1, 5)],
}


def _old_membership_update(model, removals, additions):
    """The edit rules as the rebuild implementation applied them: remove,
    upsert, then put back removed records while a surviving CNAME targets
    their emptied name."""
    defs = dict(model)
    removed = set()
    for k in removals:
        if k not in defs:
            raise UnknownRecord(str(k))
        del defs[k]
        removed.add(k)
    for d in additions:
        defs[d.key] = d
    while True:
        present = {k.name for k in defs}
        needed = {
            d.cname_target
            for d in defs.values()
            if d.key.rtype == RecordType.CNAME and d.cname_target not in present
        }
        restorable = [k for k in removed if k.name in needed]
        if not restorable:
            return defs
        for k in restorable:
            defs[k] = model[k]
            removed.discard(k)


def _random_record(rng):
    name = rng.choice(_NAMES)
    kind = rng.choice(["plain", "pooled", "cname"])
    if kind == "cname":
        target = rng.choice(_NAMES)
        return RecordDef(RecordKey(name, RecordType.CNAME), target.wire)
    rtype = rng.choice([RecordType.A, RecordType.AAAA])
    if kind == "plain":
        return RecordDef(RecordKey(name, rtype), rng.choice(_ADDRESSES[rtype]))
    pool = tuple(rng.choices(_ADDRESSES[rtype], k=rng.randint(1, 4)))
    return RecordDef(RecordKey(name, rtype), rng.choice(pool), pool)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_incremental_updates_match_rebuild_of_flat_model(rng):
    model: dict = {}
    plist = build_list([])
    probes = [RecordKey(n, t) for n in _NAMES for t in RecordType]
    for _ in range(20):
        if rng.random() < 0.3:
            order = sorted(
                (k for k, d in model.items() if d.pool), key=RecordKey.sort_key
            )
            entries = [
                (rng.randint(0, len(order)), rng.randint(-5, 5))
                for _ in range(rng.randint(0, 4))
            ]
            if any(i >= len(order) for i, _ in entries):
                with pytest.raises(IndexOutOfRange):
                    apply_lb_update(plist, entries)
                continue
            for i, offset in entries:
                d = model[order[i]]
                pool = tuple(sorted(set(d.pool)))
                moved = pool[(pool.index(d.answer) + offset) % len(pool)]
                model[order[i]] = RecordDef(d.key, moved, pool)
            expected_generation = plist.generation + len(entries)
            plist = apply_lb_update(plist, entries)
        else:
            keys = sorted(model, key=RecordKey.sort_key)
            removals = rng.sample(keys, rng.randint(0, min(3, len(keys))))
            additions = [_random_record(rng) for _ in range(rng.randint(0, 3))]
            edited = _old_membership_update(model, removals, additions)
            try:
                build_list(edited.values())
            except InvariantViolation:
                with pytest.raises(InvariantViolation):
                    apply_membership_update(plist, removals, additions)
                continue
            model = edited
            expected_generation = plist.generation + 1
            plist = apply_membership_update(plist, removals, additions)
        assert plist.generation == expected_generation
        rebuilt = build_list(model.values(), generation=plist.generation)
        assert serialize(plist) == serialize(rebuilt)
        assert plist == rebuilt
        for probe in probes:
            expected = flat_resolve(list(model.values()), probe)
            got = lookup(plist, probe)
            assert (None if got is None else list(got.answers)) == expected, probe


def test_snapshot_bytes_pinned():
    import hashlib

    from lluad.traces import SyntheticUniverse, UniverseConfig

    universe = SyntheticUniverse(
        UniverseConfig(3000, seed=11, lb_fraction=0.05, cname_fraction=0.05)
    )
    defs = universe.record_defs(2500)
    plist = build_list(defs)
    data = serialize(plist)
    assert len(data) == 72874
    assert hashlib.sha256(data).hexdigest() == (
        "0fdc94dff183407b344a67437ff03a5bc48cc4d75934bc9d505d4a160a2b934e"
    )
    plist = apply_membership_update(plist, removals=[d.key for d in defs[100:110]])
    plist = apply_lb_update(plist, [(0, 1)])
    data = serialize(plist)
    assert (len(data), plist.generation) == (72300, 2)
    assert hashlib.sha256(data).hexdigest() == (
        "3db0df76f93f477e2a6572d95d1ec58689e25857a73d5d2d314cb07f09cf2f10"
    )


def test_rotations_share_the_tree_and_no_value_changes():
    defs = random_defs(random.Random(38))
    plist = build_list(defs)
    history = [(plist, serialize(plist), dict(plist.records))]
    rotated = apply_lb_update(plist, [(0, 1), (2, -1)])
    assert rotated.roots is plist.roots
    assert rotated.pool.groups[0].current_index != plist.pool.groups[0].current_index
    history.append((rotated, serialize(rotated), dict(rotated.records)))
    changed = apply_membership_update(rotated, additions=[plain("fresh.example")])
    assert changed.roots is not rotated.roots
    history.append((changed, serialize(changed), dict(changed.records)))
    upserted = apply_membership_update(
        changed, additions=[plain("fresh.example", "192.0.2.7")]
    )
    assert upserted.roots is not changed.roots
    removed = apply_membership_update(upserted, removals=[key("fresh.example")])
    assert removed.roots is not upserted.roots
    apply_lb_update(removed, [(1, 1)])
    for value, data, records in history:
        assert serialize(value) == data
        assert value.records == records


def test_deserialize_rejects_a_record_named_twice():
    def snapshot(records: int, body: bytes) -> bytes:
        return b"LLPL" + bytes([1, 0]) + records.to_bytes(4, "big") + bytes(4) + body

    answer = bytes([0, 0, 1, 4, 192, 0, 2, 1])  # inline slot: A 192.0.2.1
    node = bytes([2, 7]) + b"example" + bytes([1]) + b"a"
    one = snapshot(1, node + bytes([1]) + answer + bytes(2))
    assert lookup(deserialize(one), key("a.example")) is not None
    with pytest.raises(FormatError):  # two slots of one type at one node
        deserialize(snapshot(2, node + bytes([2]) + answer + answer + bytes(2)))
    with pytest.raises(FormatError):  # the same name reached by two nodes
        top = node + bytes([1]) + answer + bytes(2)
        deserialize(snapshot(2, top + top))
