"""Build a small popularity list by hand and resolve against it.

Shows the three record shapes side by side: a plain address, a
load-balanced pool whose active answer rotates without touching the
tree, and a CNAME whose lookup chases down to the final address.
"""

import socket

from lluad.dnsmsg import DomainName, RecordKey, RecordType
from lluad.poplist import (
    RecordDef,
    apply_lb_update,
    build_list,
    deserialize,
    lookup,
    record_count,
    serialize,
)


def ip(text: str) -> bytes:
    return socket.inet_aton(text)


def key(name: str, rtype: RecordType = RecordType.A) -> RecordKey:
    return RecordKey(DomainName.from_text(name), rtype)


def show(plist, name: str) -> None:
    answers = lookup(plist, key(name))
    if answers is None:
        print(f"  {name:18s} -> miss, would fall back to an external resolver")
        return
    chain = []
    for answer in answers:
        if answer.rtype == RecordType.CNAME:
            chain.append(f"CNAME {answer.cname_target}")
        else:
            chain.append(socket.inet_ntoa(answer.data))
    print(f"  {name:18s} -> " + "  ".join(chain))


def main() -> None:
    defs = [
        RecordDef(key("news.example"), ip("192.0.2.10")),
        RecordDef(key("mail.example"), ip("192.0.2.11")),
        RecordDef(
            key("cdn.example"),
            ip("198.51.100.1"),
            pool=(ip("198.51.100.1"), ip("198.51.100.2"), ip("198.51.100.3")),
        ),
        RecordDef(
            key("www.example", RecordType.CNAME),
            DomainName.from_text("cdn.example").wire,
        ),
    ]
    plist = build_list(defs, generation=1)
    print(f"built generation {plist.generation}, {record_count(plist)} records")
    for name in ("news.example", "www.example", "nothere.example"):
        show(plist, name)

    # a one-byte pointer rotation redirects every alias of the pool entry
    print("\nrotating the cdn pool pointer three times:")
    for _ in range(3):
        plist = apply_lb_update(plist, [(0, 1)])
        show(plist, "www.example")

    raw = serialize(plist)
    packed = serialize(plist, compress=True)
    print(f"\nsnapshot is {len(raw)} bytes raw, {len(packed)} compressed")
    restored = deserialize(packed, generation=plist.generation)
    print("round trip intact:", restored.same_structure(plist))


if __name__ == "__main__":
    main()
