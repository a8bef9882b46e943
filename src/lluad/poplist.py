"""The client-local popularity list: one record table, and the wire
format's label tree derived from it on demand.

A list is an immutable value: a membership (the first two fields, and
what is derived from them once: the entry index, pool sizes, CNAME
referrer counts and encoded tree), which every list reached from it by
rotations alone shares, and its own rotation vector.

    records         RecordKey -> RecordDef, the only live form of the list
    lb_entry_order  the load-balanced keys in canonical order; a key's
                    position is its pool entry index in pointer updates
    active          each pool group's active index, in entry order
    generation      advanced by one per update message and per pointer change

A record checks and canonicalizes itself when built: a `RecordDef`'s
pool is sorted and deduplicated, and a CNAME's answer is its target's
lowercase uncompressed wire form.  `records` holds a pooled record with
no answer: `PopularityList.answer` and `iter_records` read it through
`active`, and a rotation copies `active` alone.  Three rules hold for every
list: a CNAME never shares its name with another record, every CNAME
target holds a record (so a lookup never leaves the table) and CNAMEs
form no cycle.  `build_list` checks all records; membership updates copy
the table, edit the copy and check only the records they touch.  `chain`
is the one CNAME walk: `lookup` and the maintainer's chain index follow it.

The wire format is the label tree followed by the pool.  `wire_nodes`
walks the tree straight from the table: one node per record name and one
per name at which record names branch, in canonical preorder (children
sorted by label).  A chain of names that hold nothing and do not branch
is merged into the node below it, so "a.b.example.com" costs one node
when the names above it hold nothing.  Each record is one slot at its
node, in type-code order:

    inline        the answer bytes stored in place
    pool pointer  an index into the load-balancing pool (records whose
                  answer rotates across a set of addresses)
    cname         the index path of the target's node

`pool.groups` is a view of the pool in entry order.  `roots` is the
encoded tree section, built on first use, by `serialize` or by reading
`roots`, once per membership, so a snapshot after a rotation encodes only
the pool.

`deserialize` reads the format back through `Reader`, the one
bounds-checked reader for bytes a peer sends (`wire` reads its frame
bodies with it too), and rejects any malformed input with `FormatError`.
It also rejects every encoding `serialize` would not produce (unknown
flag bits, siblings out of label order, a node that holds no record and
does not branch, slots out of type order), so each list has one
uncompressed byte string; only the zlib stream of a compressed one may
vary.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

from .dnsmsg import MAX_NAME_TEXT_LEN, DomainName, RecordAnswer, RecordKey, RecordType

MAGIC = b"LLPL"
VERSION = 1
_FLAG_COMPRESSED = 0x01
MAX_FRAME_BODY = 1 << 26  # the largest frame body, and the most a body inflates to

CNAME_CHAIN_LIMIT = 16
# labels in the longest valid name: one-letter labels between dots
_MAX_LABELS = (MAX_NAME_TEXT_LEN + 1) // 2


class InvariantViolation(ValueError):
    """A structural rule was broken while building or mutating a list."""


class FormatError(ValueError):
    """Bytes do not follow the wire format, or a list is too large for it."""


class IndexOutOfRange(LookupError):
    """A pool entry or node reference points outside the structure."""


class UnknownRecord(LookupError):
    """An update referenced a record the list does not hold."""


@dataclass(frozen=True)
class PoolGroup:
    """All known answers for one load-balanced record, one of them active."""

    key: RecordKey
    answers: tuple[bytes, ...]
    current_index: int

    @property
    def active(self) -> bytes:
        return self.answers[self.current_index]


@dataclass(frozen=True)
class LoadBalancingPool:
    groups: tuple[PoolGroup, ...]


class RecordDef(namedtuple("RecordDef", "key answer pool cname_target")):
    """One record, checked and canonical once built: a nonempty `pool`
    (A/AAAA only) is sorted, deduplicated and holds the active `answer`;
    a CNAME's answer is its target's lowercase wire form, `cname_target`
    its name (None for other types).  A list's table stores a pooled record
    with `answer` None, so a stale read fails loudly: the list's rotation
    vector holds the active answer.  `_replace` copies without the checks
    (namedtuple's `_make` skips `__new__`).  Records have no order.  The
    hash is the 4-tuple's: no set or dict in lluad, `bench/` or `demos/`
    is keyed by a record."""

    __slots__ = ()

    def __new__(cls, key: RecordKey, answer: bytes, pool: Collection[bytes] = ()):
        rtype = key.rtype
        target = None
        if rtype == RecordType.CNAME:
            # one parse; a bad target raises as `RecordAnswer` would
            target = tuple.__new__(RecordAnswer, (rtype, answer)).cname_target
            answer = target.wire
        else:
            RecordAnswer(rtype, answer)  # validates length
        if pool:
            if rtype not in (RecordType.A, RecordType.AAAA):
                raise InvariantViolation("only A/AAAA records can be pooled")
            if answer not in pool:
                raise InvariantViolation("active answer missing from pool")
            for entry in pool:
                RecordAnswer(rtype, entry)
        pool = tuple(sorted(set(pool))) if pool else ()
        return tuple.__new__(cls, (key, answer, pool, target))

    def __getnewargs__(self):  # pickle and copy: the base would pass four fields
        return self.key, self.answer, self.pool

    # records have no order; the tuple base would order them by fields
    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented

    @property
    def load_balanced(self) -> bool:
        return bool(self.pool)


_TREE_LOCK = threading.Lock()


class _Membership:
    """What a membership derives from its table and entry order: the entry
    index (key -> pool entry), the pool sizes, the count of referring
    CNAMEs per target, and the wire tree once encoded."""

    __slots__ = ("entry_of", "sizes", "referrers", "tree")

    def __init__(self, records, order, referrers, like=None):
        """`like`, a membership of the same groups in the same order, lends
        its entry index and pool sizes."""
        if like is None:
            self.entry_of = {k: i for i, k in enumerate(order)}
            self.sizes = array("I", (len(records[k].pool) for k in order))
        else:
            self.entry_of, self.sizes = like.entry_of, like.sizes
        self.referrers, self.tree = referrers, None


@dataclass(frozen=True)
class PopularityList:
    """Equal lists serialize alike.  Treat `records` and `active` as
    read-only: list values share them with no copy."""

    records: Mapping[RecordKey, RecordDef]
    lb_entry_order: tuple[RecordKey, ...]
    active: array  # each pool group's active index, in entry order
    generation: int
    _members: _Membership = field(compare=False, repr=False)  # rotations share it

    @property
    def entry_index(self) -> Mapping[RecordKey, int]:
        return self._members.entry_of

    def answer(self, d: RecordDef) -> bytes:
        """The active answer of `d`, a record of this list or a full one
        (no answer is empty, so only a stored pooled record reads `active`)."""
        return d.answer or d.pool[self.active[self._members.entry_of[d.key]]]

    @property
    def roots(self) -> bytes:
        """The encoded label-tree section of the wire format: one object
        per membership, shared by every list reached by rotations alone."""
        return self._wire_tree()[0]

    def _wire_tree(self) -> tuple[bytes, tuple[bytes, ...]]:
        members = self._members
        with _TREE_LOCK:
            if members.tree is None:
                members.tree = _encode_tree(self)
            return members.tree

    @cached_property
    def pool(self) -> LoadBalancingPool:
        records, order = self.records, self.lb_entry_order
        return LoadBalancingPool(
            tuple(PoolGroup(k, records[k].pool, i) for k, i in zip(order, self.active))
        )

    def same_structure(self, other: "PopularityList") -> bool:
        """Equality modulo the generation counter."""
        return (self.records, self.lb_entry_order, self.active) == (
            other.records, other.lb_entry_order, other.active
        )


def _has_records(table: Mapping[RecordKey, RecordDef], name: DomainName) -> bool:
    return any(RecordKey(name, rtype) in table for rtype in RecordType)


def _check(table: Mapping[RecordKey, RecordDef], touched: Iterable[RecordDef]) -> None:
    """Check the list rules for the touched records, which must be the
    table's current entries.  The rest of the table is assumed to obey
    them already."""
    for d in touched:
        name = d.key.name
        if d.key.rtype != RecordType.CNAME:
            if RecordKey(name, RecordType.CNAME) in table:
                raise InvariantViolation(f"{name} has a CNAME next to other records")
            continue
        if any(RecordKey(name, t) in table for t in (RecordType.A, RecordType.AAAA)):
            raise InvariantViolation(f"{name} has a CNAME next to other records")
        target = d.cname_target
        if not _has_records(table, target):
            raise InvariantViolation(f"CNAME target {target} not in list")
        seen = {name}
        cursor = target
        while cursor not in seen:
            seen.add(cursor)
            step = table.get(RecordKey(cursor, RecordType.CNAME))
            if step is None:
                break
            cursor = step.cname_target
        else:
            raise InvariantViolation(f"CNAME cycle through {cursor}")


def _entry_order(keys: Iterable[RecordKey]) -> tuple[RecordKey, ...]:
    return tuple(sorted(keys, key=RecordKey.sort_key))


def _refer(referrers: dict, records: Iterable[RecordDef | None], step: int) -> dict:
    """Count each CNAME in `records` `step` more times as a referrer of its
    target; a target that no CNAME names leaves `referrers`."""
    for d in records:
        if d is not None and d.cname_target is not None:
            count = referrers.get(d.cname_target, 0) + step
            if count:
                referrers[d.cname_target] = count
            else:
                del referrers[d.cname_target]
    return referrers


def build_list(defs: Iterable[RecordDef], generation: int = 0) -> PopularityList:
    """Canonical constructor; the same records always build the same list."""
    table: dict[RecordKey, RecordDef] = {}
    for d in defs:
        if d.key in table:
            raise InvariantViolation(f"duplicate record {d.key}")
        table[d.key] = d
    _check(table, table.values())
    order = _entry_order(k for k, d in table.items() if d.pool)
    active = array("I", (table[k].pool.index(table[k].answer) for k in order))
    for k in order:
        table[k] = table[k]._replace(answer=None)
    members = _Membership(table, order, _refer({}, table.values(), 1))
    return PopularityList(table, order, active, generation, members)


def chain(
    records: Mapping[RecordKey, RecordDef], key: RecordKey
) -> tuple[list[RecordDef], DomainName | None]:
    """Follow CNAMEs from `key`'s name to a record of `key`'s type.

    Returns (passed, stop), the records walked through, CNAMEs first.
    `stop` is None when a record of the type ends the walk.  Otherwise it
    is where the walk stopped: a name holding neither that record nor a
    CNAME, or the target reached after `CNAME_CHAIN_LIMIT` CNAMEs."""
    passed: list[RecordDef] = []
    name, rtype = key.name, key.rtype
    while len(passed) < CNAME_CHAIN_LIMIT:
        found = records.get(key)
        if found is not None:
            passed.append(found)
            return passed, None
        via = records.get(RecordKey(name, RecordType.CNAME))
        if via is None:
            break
        passed.append(via)
        name = via.cname_target
        key = RecordKey(name, rtype)
    return passed, name


def lookup(plist: PopularityList, key: RecordKey) -> tuple[RecordAnswer, ...] | None:
    """Resolve a key, following CNAME indirections inside the list.

    Returns the complete answer chain, CNAMEs first, or None on a miss.
    """
    records = plist.records
    found = records.get(key)
    if found is not None:
        answer = found.answer or plist.answer(found)  # a pooled one has None
        return (tuple.__new__(RecordAnswer, (key.rtype, answer)),)
    passed, stop = chain(records, key)
    if stop is not None:
        return None
    return tuple(tuple.__new__(RecordAnswer, (d.key.rtype, plist.answer(d))) for d in passed)


def iter_records(plist: PopularityList) -> Iterator[RecordDef]:
    """The record definitions the list holds, each with its active answer."""
    for d in plist.records.values():
        yield d._replace(answer=plist.answer(d)) if d.pool else d


def record_count(plist: PopularityList) -> int:
    return len(plist.records)


def apply_lb_update(
    plist: PopularityList, entries: Iterable[tuple[int, int]]
) -> PopularityList:
    """Rotate pool groups' active answers.

    Each (pool entry index, signed offset) pair moves one group's active
    answer by the offset, modulo the group size, and advances the
    generation by one.  The result shares the membership of `plist`.
    """
    sizes = plist._members.sizes
    active = plist.active[:]
    applied = 0
    for entry_index, offset in entries:
        if not 0 <= entry_index < len(sizes):
            raise IndexOutOfRange(f"pool entry {entry_index} of {len(sizes)}")
        active[entry_index] = (active[entry_index] + offset) % sizes[entry_index]
        applied += 1
    if not applied:
        return plist
    return PopularityList(
        plist.records, plist.lb_entry_order, active, plist.generation + applied, plist._members
    )


def _retain(
    table: dict[RecordKey, RecordDef], removed: dict[RecordKey, RecordDef], referrers: dict
) -> None:
    """Put back removed records at names left with no record while a
    surviving CNAME still targets them (and, in turn, what the put-back
    CNAMEs target).  `referrers` counts the table's CNAMEs per target,
    and then the put-back ones too."""
    by_name: dict[DomainName, list[RecordKey]] = {}
    for key in removed:
        if key not in table and not _has_records(table, key.name):
            by_name.setdefault(key.name, []).append(key)
    pending = [name for name in by_name if name in referrers]
    while pending:
        for key in by_name.pop(pending.pop(), ()):
            table[key] = d = removed[key]
            _refer(referrers, (d,), 1)
            if d.cname_target in by_name:
                pending.append(d.cname_target)


def apply_membership_update(
    plist: PopularityList,
    removals: Iterable[RecordKey] = (),
    additions: Iterable[RecordDef] = (),
) -> PopularityList:
    """Remove, then upsert records.

    A removal whose record is still referenced as a CNAME target by a
    surviving record is retained until the last referrer goes.  Only the
    records the update touches are checked.
    """
    old = plist.records
    table = dict(old)
    removed: dict[RecordKey, RecordDef] = {}
    for key in removals:
        if key not in table:
            raise UnknownRecord(str(key))
        removed[key] = table.pop(key)
    added: dict[RecordKey, RecordDef] = {}  # as sent, pooled ones with their answer
    for d in additions:
        added[d.key] = d
        table[d.key] = d._replace(answer=None) if d.pool else d
    both = itertools.chain(removed.values(), added.values())
    cnames = {d.key for d in both if d.cname_target is not None}
    referrers = _refer(plist._members.referrers.copy(), map(old.get, cnames), -1)
    _refer(referrers, map(table.get, cnames), 1)
    _retain(table, removed, referrers)
    _check(table, added.values())

    order, active = plist.lb_entry_order, plist.active
    moved = {k: d.pool.index(d.answer) for k, d in added.items() if d.pool}
    if any(d.pool and k not in table for k, d in removed.items()) or any(
        bool(d.pool) != (k in old and bool(old[k].pool)) for k, d in added.items()
    ):
        order = _entry_order({k for k in order if k in table and table[k].pool}.union(moved))
    if moved or order is not plist.lb_entry_order:  # surviving groups keep their index
        was = dict(zip(plist.lb_entry_order, active)) | moved
        active = array("I", map(was.__getitem__, order))
    same = order is plist.lb_entry_order and not moved
    members = _Membership(table, order, referrers, plist._members if same else None)
    return PopularityList(table, order, active, plist.generation + 1, members)


def _u24(value: int) -> bytes:
    if not 0 <= value < 1 << 24:
        raise FormatError(f"value {value} exceeds 24 bits")
    return value.to_bytes(3, "big")


_KIND_INLINE = 0
_KIND_POOL = 1
_KIND_CNAME = 2


class WireNode(NamedTuple):
    """One node of the wire format's label tree."""

    labels: tuple[str, ...]  # merged labels, the parent's side first
    records: tuple[RecordDef, ...]  # sorted by type code
    children: int
    path: tuple[int, ...]  # preorder indexes from a top node down to this one


def wire_nodes(plist: PopularityList) -> list[WireNode]:
    """The label tree in canonical preorder, derived from the table.

    Preorder with sorted children is the sort order of the full label
    tuples.  The nodes are the record names plus every name at which two
    record names part: the longest common prefix of each adjacent pair in
    that order.  A node's parent is the nearest node that is a prefix of
    it, and its labels are the ones the parent lacks."""
    by_name: dict[tuple[str, ...], list[RecordDef]] = {}
    for key, d in plist.records.items():
        by_name.setdefault(key.name.labels, []).append(d)
    names = sorted(by_name)
    full = set(names)
    for a, b in zip(names, names[1:]):
        shared = 0
        for x, y in zip(a, b):
            if x != y:
                break
            shared += 1
        if shared:
            full.add(a[:shared])
    nodes: list[list] = []  # [labels, records, child count, path]
    stack: list[tuple[tuple[str, ...], tuple[int, ...]]] = []  # open ancestors
    for name in sorted(full):
        while stack and name[: len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        parent, path = stack[-1] if stack else ((), ())
        if path:
            nodes[path[-1]][2] += 1
        path += (len(nodes),)
        records = by_name.get(name, [])
        if len(records) > 1:
            records.sort(key=lambda d: d.key.rtype)
        nodes.append([name[len(parent) :], tuple(records), 0, path])
        stack.append((name, path))
    return [WireNode(*node) for node in nodes]


def _encode_tree(plist: PopularityList) -> tuple[bytes, tuple[bytes, ...]]:
    """The tree section of the wire format, and each pool group's node
    reference in entry order."""
    nodes = wire_nodes(plist)
    paths = {n.records[0].key.name.labels: n.path for n in nodes if n.records}
    entry_index = plist.entry_index
    body = bytearray()
    for labels, records, children, _ in nodes:
        body.append(len(labels))
        for label in labels:
            raw = label.encode("ascii")
            body.append(len(raw))
            body.extend(raw)
        body.append(len(records))
        for d in records:
            if d.key.rtype == RecordType.CNAME:
                target_path = paths[d.cname_target.labels]
                body.append(_KIND_CNAME)
                body.append(len(target_path))
                for idx in target_path:
                    body.extend(_u24(idx))
            elif d.pool:
                body.append(_KIND_POOL)
                body.extend(_u24(entry_index[d.key]))
            else:
                body.append(_KIND_INLINE)
                body.extend(int(d.key.rtype).to_bytes(2, "big"))
                body.append(len(d.answer))
                body.extend(d.answer)
        if children > 0xFFFF:
            raise FormatError("too many children")
        body.extend(children.to_bytes(2, "big"))
    refs = tuple(_u24(paths[key.name.labels][-1]) for key in plist.lb_entry_order)
    return bytes(body), refs


def serialize(plist: PopularityList, compress: bool = False) -> bytes:
    """Encode to the list wire format.  Deterministic for equal lists."""
    tree, refs = plist._wire_tree()
    body = bytearray(tree)
    records = plist.records
    for ref, key, current in zip(refs, plist.lb_entry_order, plist.active):
        pool = records[key].pool
        if len(pool) > 0xFF:
            raise FormatError("pool group too large")
        body.extend(ref)
        body.append(len(pool))
        body.append(current)
        for answer in pool:
            body.append(len(answer))
            body.extend(answer)

    payload = bytes(body)
    flags = 0
    if compress:
        payload = zlib.compress(payload, 6)
        flags |= _FLAG_COMPRESSED
    header = (
        MAGIC
        + bytes([VERSION, flags])
        + len(plist.records).to_bytes(4, "big")
        + len(plist.lb_entry_order).to_bytes(4, "big")
    )
    return header + payload


class Reader:
    """Bounds-checked reads from a byte string a peer sent.

    A short read raises FormatError.  As a context manager it also turns
    any ValueError (a bad name, record or text) or zlib error raised in
    its block into FormatError, so a decoder that reads inside one
    returns or raises FormatError and nothing else."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and not issubclass(kind, FormatError):
            if issubclass(kind, (ValueError, zlib.error)):
                raise FormatError(str(exc)) from exc

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated data")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u24(self) -> int:
        return int.from_bytes(self.take(3), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def short(self) -> bytes:
        """A field of up to 255 bytes after its one-byte length."""
        return self.take(self.take(1)[0])

    def inflate(self) -> None:
        """Replace the unread rest, one whole zlib stream, with its
        decompression of at most MAX_FRAME_BODY bytes.  It inflates a MiB
        at a time, so a stream that inflates past the bound is refused
        holding little more than the bound."""
        inflater, pieces, size = zlib.decompressobj(), [], 0
        rest = self.data[self.pos :]
        while not inflater.eof:
            pieces.append(inflater.decompress(rest, 1 << 20))
            rest, size = inflater.unconsumed_tail, size + len(pieces[-1])
            if size > MAX_FRAME_BODY:
                raise FormatError(f"inflates past {MAX_FRAME_BODY} bytes")
            if not pieces[-1] and not inflater.eof:
                raise FormatError("truncated zlib stream")
        if inflater.unused_data:
            raise FormatError("trailing bytes after the zlib stream")
        self.data, self.pos = b"".join(pieces), 0

    def at_end(self) -> bool:
        return self.pos == len(self.data)

    def end(self) -> None:
        if not self.at_end():
            raise FormatError("trailing bytes")


def deserialize(data: bytes, generation: int = 0) -> PopularityList:
    """Decode the list wire format, validating structural invariants.
    Returns the list or raises FormatError."""
    with Reader(data) as reader:
        if reader.take(4) != MAGIC:
            raise FormatError("bad magic")
        version = reader.u8()
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        flags = reader.u8()
        if flags & ~_FLAG_COMPRESSED:
            raise FormatError(f"unknown flags {flags:#04x}")
        records_declared = int.from_bytes(reader.take(4), "big")
        group_count = int.from_bytes(reader.take(4), "big")
        if flags & _FLAG_COMPRESSED:
            reader.inflate()
        return _read_list(reader, records_declared, group_count, generation)


def _read_list(
    reader: Reader, records_declared: int, group_count: int, generation: int
) -> PopularityList:
    names: list[tuple[str, ...]] = []  # preorder index -> full labels
    parents: list[int | None] = []
    table: dict[RecordKey, RecordDef] = {}
    cname_paths: list[tuple[RecordKey, tuple[int, ...]]] = []
    pool_nodes: dict[int, int] = {}  # pool entry -> node index of its slot
    multi_slot: list[list[int]] = []  # slot types of nodes with several
    records_seen = 0

    def put(d: RecordDef) -> None:
        if d.key in table:
            raise FormatError(f"record {d.key} appears twice")
        table[d.key] = d

    def read_node(
        prefix: tuple[str, ...], parent: int | None, after: str | None
    ) -> str:
        """Read one node and its subtree; returns its first label, which
        must sort after `after`, the previous sibling's."""
        nonlocal records_seen
        index = len(names)
        label_count = reader.u8()
        if label_count == 0:
            raise FormatError("node without labels")
        labels = []
        for _ in range(label_count):
            labels.append(reader.short().decode("ascii"))
        if after is not None and labels[0] <= after:
            raise FormatError("siblings not in label order")
        full = prefix + tuple(labels)
        if len(full) > _MAX_LABELS:  # also bounds the recursion
            raise FormatError("name too long")
        names.append(full)
        parents.append(parent)
        slot_count = reader.u8()
        name = DomainName(full) if slot_count else None
        types = []  # type code per slot; ~entry for a pool slot
        for _ in range(slot_count):
            kind = reader.u8()
            if kind == _KIND_INLINE:
                rtype = RecordType.from_code(reader.u16())
                if rtype == RecordType.CNAME:
                    raise FormatError("inline slot holds a CNAME")
                put(RecordDef(RecordKey(name, rtype), reader.short()))
                types.append(rtype)
            elif kind == _KIND_POOL:
                entry = reader.u24()
                if entry >= group_count:
                    raise FormatError(f"pool entry {entry} out of range")
                if entry in pool_nodes:
                    raise FormatError("pool entries and slots do not match one-to-one")
                pool_nodes[entry] = index
                types.append(~entry)
            elif kind == _KIND_CNAME:
                path = tuple(reader.u24() for _ in range(reader.u8()))
                if not path:
                    raise FormatError("empty reference path")
                cname_paths.append((RecordKey(name, RecordType.CNAME), path))
                types.append(RecordType.CNAME)
            else:
                raise FormatError(f"unknown slot kind {kind}")
            records_seen += 1
        if len(types) > 1:
            multi_slot.append(types)
        children = reader.u16()
        if not slot_count and children < 2:
            raise FormatError("node holds no record and does not branch")
        first = None
        for _ in range(children):
            first = read_node(full, index, first)
        return labels[0]

    top = None
    while records_seen < records_declared:
        top = read_node((), None, top)
    if records_seen != records_declared:
        raise FormatError("record count mismatch")

    def resolve_path(path: tuple[int, ...]) -> DomainName:
        for idx in path:
            if idx >= len(names):
                raise FormatError(f"node reference {idx} out of range")
        for a, b in zip(path, path[1:]):
            if parents[b] != a:
                raise FormatError("reference path is not an ancestor chain")
        if parents[path[0]] is not None:
            raise FormatError("reference path must start at a top node")
        return DomainName(names[path[-1]])

    for ckey, path in cname_paths:
        put(RecordDef(ckey, resolve_path(path).wire))

    if len(pool_nodes) != group_count:
        raise FormatError("pool entries and slots do not match one-to-one")
    order: list[RecordKey] = []
    active = array("I")
    for entry in range(group_count):
        node_ref = reader.u24()
        if node_ref >= len(names):
            raise FormatError(f"pool node reference {node_ref} out of range")
        answer_count = reader.u8()
        current = reader.u8()
        if answer_count == 0 or current >= answer_count:
            raise FormatError("bad pool group counters")
        answers = tuple(bytes(reader.short()) for _ in range(answer_count))
        if list(answers) != sorted(set(answers)):
            raise FormatError("pool answers not canonical")
        length = {len(a) for a in answers}
        if length == {4}:
            rtype = RecordType.A
        elif length == {16}:
            rtype = RecordType.AAAA
        else:
            raise FormatError("pool answers must be uniformly 4 or 16 bytes")
        key = RecordKey(DomainName(names[node_ref]), rtype)
        if order and order[-1] >= key:  # RecordKey orders by sort_key
            raise FormatError("pool groups not in canonical order")
        if key.name.labels != names[pool_nodes[entry]]:
            raise FormatError("pool group points at a different name")
        order.append(key)
        active.append(current)
        put(RecordDef._make((key, None, answers, None)))  # checked above
    reader.end()
    for types in multi_slot:
        codes = [int(order[~t].rtype) if t < 0 else int(t) for t in types]
        if codes != sorted(set(codes)):
            raise FormatError("slots not in type order")

    _check(table, table.values())
    order = tuple(order)
    members = _Membership(table, order, _refer({}, table.values(), 1))
    return PopularityList(table, order, active, generation, members)
