"""Shared helpers: random but structurally valid record sets, a flat
dict-based resolver used as an oracle against the tree lookup, and a
pure-Python Montgomery ladder used as an oracle for the curve."""

import random

from lluad.curve import FIELD_PRIME
from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.poplist import RecordDef

_WORDS = [
    "alpha", "beta", "gamma", "delta", "media", "login", "static",
    "cdn", "api", "shop", "news", "mail", "edge", "img", "files",
]
_TLDS = ["com", "net", "org", "io", "dev"]


def random_defs(
    rng: random.Random,
    n_plain: int = 12,
    n_lb: int = 4,
    n_cname: int = 4,
) -> list[RecordDef]:
    """A closed, valid record set: plain records, pooled records, and
    CNAMEs pointing at earlier records (so no cycles, closure holds)."""
    defs: list[RecordDef] = []
    used_names: set[DomainName] = set()
    target_names: list[DomainName] = []

    def fresh_name() -> DomainName:
        while True:
            depth = rng.randint(1, 3)
            labels = [rng.choice(_TLDS)]
            for _ in range(depth):
                labels.append(f"{rng.choice(_WORDS)}{rng.randrange(100)}")
            name = DomainName(tuple(labels))
            if name not in used_names:
                used_names.add(name)
                return name

    def rand_answer(rtype: RecordType) -> bytes:
        return rng.randbytes(4 if rtype == RecordType.A else 16)

    for _ in range(n_plain):
        rtype = rng.choice([RecordType.A, RecordType.AAAA])
        name = fresh_name()
        defs.append(RecordDef(RecordKey(name, rtype), rand_answer(rtype)))
        target_names.append(name)

    for _ in range(n_lb):
        rtype = rng.choice([RecordType.A, RecordType.AAAA])
        name = fresh_name()
        pool = tuple(sorted({rand_answer(rtype) for _ in range(rng.randint(2, 6))}))
        defs.append(RecordDef(RecordKey(name, rtype), rng.choice(pool), pool))
        target_names.append(name)

    for _ in range(n_cname):
        if not target_names:
            break
        name = fresh_name()
        target = rng.choice(target_names)
        defs.append(
            RecordDef(
                RecordKey(name, RecordType.CNAME),
                RecordAnswer.cname(target).data,
            )
        )
    rng.shuffle(defs)
    return defs


def flat_resolve(defs: list[RecordDef], key: RecordKey, limit: int = 16):
    """Reference resolver over the raw record set (no tree involved)."""
    by_key = {d.key: d for d in defs}
    answers = []
    name = key.name
    for _ in range(limit):
        direct = by_key.get(RecordKey(name, key.rtype))
        if direct is not None:
            answers.append(RecordAnswer(key.rtype, direct.answer))
            return answers
        via = by_key.get(RecordKey(name, RecordType.CNAME))
        if via is None:
            return None
        answers.append(RecordAnswer(RecordType.CNAME, via.answer))
        name = via.cname_target
    return None


def ladder(scalar: int, u: int) -> int:
    """Montgomery ladder over the unclamped scalar, in plain Python.

    The reference ``curve.mult`` is tested against.  Not constant-time.
    Returns 0 for the identity.
    """
    if scalar <= 0 or scalar >= 1 << 255:
        raise ValueError("scalar out of range")
    p = FIELD_PRIME
    a24 = 121665
    x1 = u % p
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in range(254, -1, -1):
        bit = (scalar >> t) & 1
        if swap ^ bit:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit
        a = (x2 + z2) % p
        aa = a * a % p
        b = (x2 - z2) % p
        bb = b * b % p
        e = (aa - bb) % p
        c = (x3 + z3) % p
        d = (x3 - z3) % p
        da = d * a % p
        cb = c * b % p
        t0 = (da + cb) % p
        x3 = t0 * t0 % p
        t1 = (da - cb) % p
        z3 = x1 * (t1 * t1 % p) % p
        x2 = aa * bb % p
        z2 = e * ((aa + a24 * e) % p) % p
    if swap:
        x2, z2 = x3, z3
    if z2 == 0:
        return 0
    return x2 * pow(z2, p - 2, p) % p
