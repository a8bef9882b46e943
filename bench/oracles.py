"""Expected outputs, worked out from the inputs alone.

Keys are (dotted name, type code) pairs, so no oracle leans on the
program's own lookup, codec or list code.  The universe (the input
generator) supplies the truth: plain answers, CNAME targets and the
pool of every load-balanced record.
"""

from __future__ import annotations

from collections import Counter

from common import TYPE_CNAME, BadResponse, parse_response

HIT_TTL = 60  # the client answers list hits with this TTL ...
MISS_TTL = 300  # ... and the simulated fallback answers misses with this one
CHAIN_LIMIT = 16


def wire_name_text(data: bytes) -> str:
    """Dotted form of an uncompressed wire name."""
    labels = []
    pos = 0
    while data[pos]:
        labels.append(data[pos + 1 : pos + 1 + data[pos]].decode("ascii"))
        pos += 1 + data[pos]
    if pos + 1 != len(data):
        raise ValueError("trailing bytes after name")
    return ".".join(labels)


def kt(key) -> tuple[str, int]:
    return key.name.dotted, int(key.rtype)


class UniverseOracle:
    """Answer chains and the hit set of a universe whose top
    `n_popular` ranks were put on the list."""

    def __init__(self, universe, n_popular: int):
        from lluad.dnsmsg import RecordKey  # the universe's own key type
        from lluad.maintenance import UpstreamFailure

        self._key_type = RecordKey
        self._unknown = UpstreamFailure
        self.universe = universe
        defs = universe.record_defs(n_popular)
        self.hit_set = {kt(d.key) for d in defs}
        self.pools = {kt(d.key): frozenset(d.pool) for d in defs if d.pool}
        for rank, kind in enumerate(universe.kind):
            if kind == "lb" and kt(universe.keys[rank]) not in self.pools:
                raise ValueError(f"load-balanced rank {rank} lies outside the list")
        self._chains: dict[int, list[tuple[str, int, frozenset]]] = {}

    def expected_hit(self, key) -> bool:
        name, rtype = kt(key)
        return (name, rtype) in self.hit_set or (name, TYPE_CNAME) in self.hit_set

    def answers_for(self, key, now: float = 0.0) -> frozenset:
        """Acceptable answer data for one non-CNAME key."""
        pool = self.pools.get(kt(key))
        if pool is not None:
            return pool
        return frozenset(self.universe.resolve(key, now).answers)

    def chain(self, rank: int) -> list[tuple[str, int, frozenset]]:
        """(owner, type, acceptable data) per answer, CNAMEs first."""
        cached = self._chains.get(rank)
        if cached is not None:
            return cached
        key = self.universe.keys[rank]
        out = []
        name = key.name
        for _ in range(CHAIN_LIMIT):
            step = self.universe.resolve(self._key_type(name, key.rtype))
            if step.cname is None:
                out.append(
                    (name.dotted, int(key.rtype), self.answers_for(self._key_type(name, key.rtype)))
                )
                break
            out.append((name.dotted, TYPE_CNAME, frozenset([step.cname.dotted.encode()])))
            name = step.cname
        else:
            raise ValueError(f"CNAME chain from rank {rank} does not end")
        self._chains[rank] = out
        return out

    def response_error(self, rank: int, txid: int, msg: bytes) -> str | None:
        """Why a stub response to the query for `rank` is wrong, or None."""
        key = self.universe.keys[rank]
        try:
            resp = parse_response(msg)
        except BadResponse as exc:
            return f"unparseable response: {exc}"
        if resp.txid != txid:
            return "transaction id mismatch"
        if not resp.flags & 0x8000 or resp.flags & 0xF:
            return f"flags 0x{resp.flags:04x}"
        if (resp.qname, resp.qtype) != kt(key):
            return "question mismatch"
        want_ttl = HIT_TTL if self.expected_hit(key) else MISS_TTL
        chain = self.chain(rank)
        if len(resp.answers) != len(chain):
            return f"{len(resp.answers)} answers, expected {len(chain)}"
        for got, (owner, rtype, accepted) in zip(resp.answers, chain):
            if (got.owner, got.rtype) != (owner, rtype):
                return f"answer {got.owner}/{got.rtype}, expected {owner}/{rtype}"
            if got.data not in accepted:
                return f"wrong data for {owner}"
            if got.ttl != want_ttl:
                return "hit/miss mismatch" if got.ttl in (HIT_TTL, MISS_TTL) else "bad ttl"
        return None

    def record_error(self, record, now: float) -> str | None:
        """Why a list record disagrees with the universe, or None."""
        name, rtype = kt(record.key)
        if rtype == TYPE_CNAME:
            try:
                step = self.universe.resolve(record.key, now)
            except self._unknown as exc:
                return f"{name}: {exc}"
            if step.cname is None or step.cname.dotted != wire_name_text(record.answer):
                return f"{name}: wrong CNAME target"
            return None
        try:
            accepted = self.answers_for(record.key, now)
        except self._unknown as exc:
            return f"{name}: {exc}"
        if record.answer not in accepted:
            return f"{name}: answer not in the universe"
        if record.pool and not set(record.pool) <= accepted:
            return f"{name}: pool holds answers the universe never gave"
        return None


def pool_state(plist) -> list:
    """Every field of the load-balancing pool the list format encodes."""
    return [
        (kt(g.key), g.answers, g.current_index) for g in plist.pool.groups
    ]


def expected_tally(votes) -> Counter:
    """The tally one round must produce: each submitted vote once."""
    return Counter(kt(key) for keys in votes.values() for key in keys)


def tally_of(result) -> Counter:
    return Counter({kt(key): n for key, n in result.tally.items()})
