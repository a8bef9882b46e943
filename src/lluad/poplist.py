"""The client-local popularity list: one record table, a label tree derived
from it for the wire.

A list is an immutable value holding three things:

    records         RecordKey -> RecordDef, the only live form of the list
    lb_entry_order  the load-balanced keys in canonical order; a key's
                    position is its pool entry index in pointer updates
    generation      advanced by one per update message and per pointer change

A load-balanced record keeps its pool (sorted and deduplicated) and its
active answer in its RecordDef.  Three rules hold for every list: a CNAME
never shares its name with another record, every CNAME target holds a
record (so a lookup never leaves the table) and CNAMEs form no cycle.
`build_list` checks all records; updates copy the table, edit the copy and
check only the records they touch.

Two views are derived from the table.  `pool.groups` lists the pool in
entry order.  `roots` is the label tree of the wire format, in which
chains of single-child nodes carrying no records are merged into one node
holding several labels, so "a.b.example.com" costs one node when the
intermediate names hold nothing.  Each record occupies one slot at its
node:

    inline        the answer bytes stored in place
    pool pointer  an index into the load-balancing pool (records whose
                  answer rotates across a set of addresses)
    cname         a reference to another name in the tree

The tree is built on first use, by `serialize` or by reading `roots`, once
per membership: pointer rotations change no slot, so every list reached
from another by rotations alone shares its tree object.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType

MAGIC = b"LLPL"
VERSION = 1
_FLAG_COMPRESSED = 0x01

CNAME_CHAIN_LIMIT = 16


class InvariantViolation(ValueError):
    """A structural rule was broken while building or mutating a list."""


class FormatError(ValueError):
    """Serialized bytes do not follow the list wire format."""


class IndexOutOfRange(LookupError):
    """A pool entry or node reference points outside the structure."""


class UnknownRecord(LookupError):
    """An update referenced a record the list does not hold."""


@dataclass(frozen=True)
class InlineSlot:
    answer: RecordAnswer


@dataclass(frozen=True)
class PoolSlot:
    entry_index: int


@dataclass(frozen=True)
class CnameSlot:
    target: DomainName


Slot = InlineSlot | PoolSlot | CnameSlot


@dataclass(frozen=True)
class ListNode:
    """One tree node: one or more merged labels, record slots, children."""

    labels: tuple[str, ...]
    slots: tuple[Slot, ...]
    children: tuple["ListNode", ...]


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


@dataclass(frozen=True)
class RecordDef:
    """Source material for one record.

    `answer` is the active answer data (for CNAME records, the wire-encoded
    target name).  A nonempty `pool` marks the record load-balanced; the
    active answer must be one of the pool entries.
    """

    key: RecordKey
    answer: bytes
    pool: tuple[bytes, ...] = ()

    def __post_init__(self):
        RecordAnswer(self.key.rtype, self.answer)  # validates length/shape
        if self.pool:
            if self.key.rtype not in (RecordType.A, RecordType.AAAA):
                raise InvariantViolation("only A/AAAA records can be pooled")
            if self.answer not in self.pool:
                raise InvariantViolation("active answer missing from pool")
            for entry in self.pool:
                RecordAnswer(self.key.rtype, entry)

    @property
    def load_balanced(self) -> bool:
        return bool(self.pool)

    @cached_property
    def cname_target(self) -> DomainName:
        return RecordAnswer(RecordType.CNAME, self.answer).cname_target


_TREE_LOCK = threading.Lock()


@dataclass(frozen=True)
class PopularityList:
    """Treat `records` as read-only: list values share it with no copy."""

    records: Mapping[RecordKey, RecordDef]
    lb_entry_order: tuple[RecordKey, ...]
    generation: int = 0
    # the label tree of this membership, once built; rotations share it
    _tree: list = field(default_factory=lambda: [None], compare=False, repr=False)

    @property
    def roots(self) -> tuple[ListNode, ...]:
        with _TREE_LOCK:
            if self._tree[0] is None:
                self._tree[0] = _build_tree(self)
            return self._tree[0]

    @cached_property
    def pool(self) -> LoadBalancingPool:
        groups = []
        for key in self.lb_entry_order:
            d = self.records[key]
            groups.append(PoolGroup(key, d.pool, d.pool.index(d.answer)))
        return LoadBalancingPool(tuple(groups))

    def same_structure(self, other: "PopularityList") -> bool:
        """Equality modulo the generation counter."""
        return (
            self.records == other.records
            and self.lb_entry_order == other.lb_entry_order
        )


@dataclass(frozen=True)
class Hit:
    """Lookup success: the full answer chain, CNAMEs first."""

    answers: tuple[RecordAnswer, ...]


def _canonical(d: RecordDef) -> RecordDef:
    """The form the table holds: sorted, deduplicated pools and CNAME
    targets in uncompressed lowercase wire form."""
    if d.pool:
        pool = tuple(sorted(set(d.pool)))
        if pool != d.pool:
            return RecordDef(d.key, d.answer, pool)
    elif d.key.rtype == RecordType.CNAME:
        wire = d.cname_target.wire
        if wire != d.answer:
            return RecordDef(d.key, wire)
    return d


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


def build_list(defs: Iterable[RecordDef], generation: int = 0) -> PopularityList:
    """Canonical constructor; the same records always build the same list."""
    table: dict[RecordKey, RecordDef] = {}
    for d in defs:
        if d.key in table:
            raise InvariantViolation(f"duplicate record {d.key}")
        table[d.key] = _canonical(d)
    _check(table, table.values())
    order = _entry_order(k for k, d in table.items() if d.pool)
    return PopularityList(table, order, generation)


class _TrieNode:
    __slots__ = ("children", "slots")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.slots: dict[RecordType, Slot] = {}


def _build_tree(plist: PopularityList) -> tuple[ListNode, ...]:
    entry_index = {k: i for i, k in enumerate(plist.lb_entry_order)}
    root = _TrieNode()
    for key, d in plist.records.items():
        node = root
        for label in key.name.labels:
            child = node.children.get(label)
            if child is None:
                child = node.children[label] = _TrieNode()
            node = child
        if key.rtype == RecordType.CNAME:
            slot: Slot = CnameSlot(d.cname_target)
        elif d.pool:
            slot = PoolSlot(entry_index[key])
        else:
            slot = InlineSlot(RecordAnswer(key.rtype, d.answer))
        node.slots[key.rtype] = slot

    def convert(label: str, tnode: _TrieNode) -> ListNode:
        children = tuple(
            convert(lb, child) for lb, child in sorted(tnode.children.items())
        )
        slots = tuple(tnode.slots[t] for t in sorted(tnode.slots))
        if not slots and len(children) == 1:
            only = children[0]
            return ListNode((label,) + only.labels, only.slots, only.children)
        return ListNode((label,), slots, children)

    return tuple(convert(lb, child) for lb, child in sorted(root.children.items()))


def lookup(plist: PopularityList, key: RecordKey) -> Hit | None:
    """Resolve a key, following CNAME indirections inside the list.

    Returns the complete answer chain on success, None on a miss.
    """
    records = plist.records
    found = records.get(key)
    answers: list[RecordAnswer] = []
    name = key.name
    for _ in range(CNAME_CHAIN_LIMIT):
        if found is not None:
            answers.append(RecordAnswer(key.rtype, found.answer))
            return Hit(tuple(answers))
        via = records.get(RecordKey(name, RecordType.CNAME))
        if via is None:
            return None
        answers.append(RecordAnswer(RecordType.CNAME, via.answer))
        name = via.cname_target
        found = records.get(RecordKey(name, key.rtype))
    return None


def node_paths(plist: PopularityList) -> dict[tuple[str, ...], tuple[int, ...]]:
    """Full label tuple -> index path from the top, for every node, in the
    canonical preorder that serialization and node references use."""
    paths: dict[tuple[str, ...], tuple[int, ...]] = {}
    stack = [(node, (), ()) for node in reversed(plist.roots)]
    while stack:
        node, prefix, path = stack.pop()
        full = prefix + node.labels
        paths[full] = path = path + (len(paths),)  # full names are unique
        for child in reversed(node.children):
            stack.append((child, full, path))
    return paths


def iter_records(plist: PopularityList) -> Iterator[RecordDef]:
    """The record definitions the list holds."""
    return iter(plist.records.values())


def record_count(plist: PopularityList) -> int:
    return len(plist.records)


def apply_lb_update(
    plist: PopularityList, entries: Iterable[tuple[int, int]]
) -> PopularityList:
    """Rotate pool groups' active answers.

    Each (pool entry index, signed offset) pair moves one group's active
    answer by the offset, modulo the group size, and advances the
    generation by one.  The result shares the tree of `plist`.
    """
    table = dict(plist.records)
    order = plist.lb_entry_order
    applied = 0
    for entry_index, offset in entries:
        if not 0 <= entry_index < len(order):
            raise IndexOutOfRange(f"pool entry {entry_index} of {len(order)}")
        key = order[entry_index]
        d = table[key]
        pool = d.pool
        moved = pool[(pool.index(d.answer) + offset) % len(pool)]
        table[key] = RecordDef(key, moved, pool)
        applied += 1
    if not applied:
        return plist
    return PopularityList(table, order, plist.generation + applied, plist._tree)


def _retain(
    table: dict[RecordKey, RecordDef], removed: dict[RecordKey, RecordDef]
) -> None:
    """Put back removed records at names left with no record while a
    surviving CNAME still targets them (and, in turn, what the put-back
    CNAMEs target)."""
    by_name: dict[DomainName, list[RecordKey]] = {}
    for key in removed:
        if key not in table and not _has_records(table, key.name):
            by_name.setdefault(key.name, []).append(key)
    if not by_name:
        return
    targets = {
        d.cname_target for d in table.values() if d.key.rtype == RecordType.CNAME
    }
    pending = [name for name in by_name if name in targets]
    while pending:
        for key in by_name.pop(pending.pop(), ()):
            table[key] = removed[key]
            if key.rtype == RecordType.CNAME and table[key].cname_target in by_name:
                pending.append(table[key].cname_target)


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
    table = dict(plist.records)
    removed: dict[RecordKey, RecordDef] = {}
    for key in removals:
        if key not in table:
            raise UnknownRecord(str(key))
        removed[key] = table.pop(key)
    added: dict[RecordKey, RecordDef] = {}
    for d in additions:
        table[d.key] = added[d.key] = _canonical(d)
    _retain(table, removed)
    _check(table, added.values())

    order = plist.lb_entry_order
    old = plist.records
    if any(d.pool and k not in table for k, d in removed.items()) or any(
        bool(d.pool) != (k in old and bool(old[k].pool)) for k, d in added.items()
    ):
        pooled = {k for k in order if k in table and table[k].pool}
        order = _entry_order(pooled.union(k for k, d in added.items() if d.pool))
    return PopularityList(table, order, plist.generation + 1)


def _u24(value: int) -> bytes:
    if not 0 <= value < 1 << 24:
        raise FormatError(f"value {value} exceeds 24 bits")
    return value.to_bytes(3, "big")


_KIND_INLINE = 0
_KIND_POOL = 1
_KIND_CNAME = 2


def serialize(plist: PopularityList, compress: bool = False) -> bytes:
    """Encode to the list wire format.  Deterministic for equal lists."""
    paths = node_paths(plist)
    index_of = {full: path[-1] for full, path in paths.items()}

    body = bytearray()

    def emit_node(node: ListNode, prefix: tuple[str, ...]) -> None:
        full = prefix + node.labels
        if len(node.labels) > 0xFF or len(node.slots) > 0xFF:
            raise FormatError("node exceeds format limits")
        body.append(len(node.labels))
        for label in node.labels:
            raw = label.encode("ascii")
            body.append(len(raw))
            body.extend(raw)
        body.append(len(node.slots))
        for slot in node.slots:
            if isinstance(slot, InlineSlot):
                body.append(_KIND_INLINE)
                body.extend(int(slot.answer.rtype).to_bytes(2, "big"))
                body.append(len(slot.answer.data))
                body.extend(slot.answer.data)
            elif isinstance(slot, PoolSlot):
                body.append(_KIND_POOL)
                body.extend(_u24(slot.entry_index))
            else:
                target_path = paths.get(slot.target.labels)
                if target_path is None:
                    raise InvariantViolation(
                        f"CNAME target {slot.target} has no node"
                    )
                body.append(_KIND_CNAME)
                if len(target_path) > 0xFF:
                    raise FormatError("reference path too deep")
                body.append(len(target_path))
                for idx in target_path:
                    body.extend(_u24(idx))
        if len(node.children) > 0xFFFF:
            raise FormatError("too many children")
        body.extend(len(node.children).to_bytes(2, "big"))
        for child in node.children:
            emit_node(child, full)

    for root in plist.roots:
        emit_node(root, ())

    for group in plist.pool.groups:
        body.extend(_u24(index_of[group.key.name.labels]))
        if len(group.answers) > 0xFF:
            raise FormatError("pool group too large")
        body.append(len(group.answers))
        body.append(group.current_index)
        for answer in group.answers:
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


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated list data")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u24(self) -> int:
        return int.from_bytes(self.take(3), "big")

    def done(self) -> bool:
        return self.pos == len(self.data)


def deserialize(data: bytes, generation: int = 0) -> PopularityList:
    """Decode the list wire format, validating structural invariants."""
    if len(data) < 14:
        raise FormatError("short header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    if data[4] != VERSION:
        raise FormatError(f"unsupported version {data[4]}")
    flags = data[5]
    records_declared = int.from_bytes(data[6:10], "big")
    group_count = int.from_bytes(data[10:14], "big")
    payload = data[14:]
    if flags & _FLAG_COMPRESSED:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise FormatError(f"bad compressed payload: {exc}") from None

    reader = _Reader(payload)
    names: list[tuple[str, ...]] = []  # preorder index -> full labels
    parents: list[int | None] = []
    table: dict[RecordKey, RecordDef] = {}
    cname_paths: list[tuple[RecordKey, tuple[int, ...]]] = []
    pool_nodes: dict[int, int] = {}  # pool entry -> node index of its slot
    records_seen = 0

    def put(d: RecordDef) -> None:
        if d.key in table:
            raise FormatError(f"record {d.key} appears twice")
        table[d.key] = d

    def domain(labels: tuple[str, ...]) -> DomainName:
        try:
            return DomainName(labels)
        except ValueError as exc:
            raise FormatError(f"bad name: {exc}") from None

    def read_node(prefix: tuple[str, ...], parent: int | None) -> None:
        nonlocal records_seen
        index = len(names)
        label_count = reader.u8()
        if label_count == 0:
            raise FormatError("node without labels")
        labels = []
        for _ in range(label_count):
            n = reader.u8()
            labels.append(reader.take(n).decode("ascii"))
        full = prefix + tuple(labels)
        names.append(full)
        parents.append(parent)
        slot_count = reader.u8()
        name = domain(full) if slot_count else None
        for _ in range(slot_count):
            kind = reader.u8()
            if kind == _KIND_INLINE:
                rtype = RecordType.from_code(reader.u16())
                if rtype == RecordType.CNAME:
                    raise FormatError("inline slot holds a CNAME")
                put(RecordDef(RecordKey(name, rtype), reader.take(reader.u8())))
            elif kind == _KIND_POOL:
                entry = reader.u24()
                if entry >= group_count:
                    raise FormatError(f"pool entry {entry} out of range")
                if entry in pool_nodes:
                    raise FormatError("pool entries and slots do not match one-to-one")
                pool_nodes[entry] = index
            elif kind == _KIND_CNAME:
                path = tuple(reader.u24() for _ in range(reader.u8()))
                if not path:
                    raise FormatError("empty reference path")
                cname_paths.append((RecordKey(name, RecordType.CNAME), path))
            else:
                raise FormatError(f"unknown slot kind {kind}")
            records_seen += 1
        for _ in range(reader.u16()):
            read_node(full, index)

    while records_seen < records_declared:
        read_node((), None)
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
        return domain(names[path[-1]])

    for ckey, path in cname_paths:
        put(RecordDef(ckey, resolve_path(path).wire))

    groups = []
    for _ in range(group_count):
        node_ref = reader.u24()
        if node_ref >= len(names):
            raise FormatError(f"pool node reference {node_ref} out of range")
        answer_count = reader.u8()
        current = reader.u8()
        if answer_count == 0 or current >= answer_count:
            raise FormatError("bad pool group counters")
        answers = tuple(bytes(reader.take(reader.u8())) for _ in range(answer_count))
        length = {len(a) for a in answers}
        if length == {4}:
            rtype = RecordType.A
        elif length == {16}:
            rtype = RecordType.AAAA
        else:
            raise FormatError("pool answers must be uniformly 4 or 16 bytes")
        groups.append((RecordKey(domain(names[node_ref]), rtype), answers, current))
    if not reader.done():
        raise FormatError("trailing bytes")

    keys = [key.sort_key() for key, _, _ in groups]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        raise FormatError("pool groups not in canonical order")
    if len(pool_nodes) != group_count:
        raise FormatError("pool entries and slots do not match one-to-one")
    for entry, (key, answers, current) in enumerate(groups):
        if list(answers) != sorted(set(answers)):
            raise FormatError("pool answers not canonical")
        if key.name.labels != names[pool_nodes[entry]]:
            raise FormatError("pool group points at a different name")
        put(RecordDef(key, answers[current], answers))

    try:
        _check(table, table.values())
    except InvariantViolation as exc:
        raise FormatError(str(exc)) from None
    return PopularityList(table, tuple(key for key, _, _ in groups), generation)
