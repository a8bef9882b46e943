"""Synthetic query universes and replayable traces.

The real campus traffic behind the published measurements is not
redistributable, so experiments run on synthetic material with the same
shape: a Zipf-distributed record universe with a head-heavy share of
actively load-balanced records, CNAME indirections, per-day popularity
churn, and per-client query streams.  Everything is deterministic given
the seed.

Fixed shape of every synthetic universe:

- `AAAA_FRACTION`: share of AAAA records among plain records in the
  popular head (the top 30 % of ranks); the rest are A records.
- `TAIL_AAAA_FRACTION`: the same share in the long tail below it.
- `LB_TTL`: TTL in seconds of load-balanced records.
- `PLAIN_TTL`: TTL in seconds of CNAME aliases.  Plain records draw
  theirs from 1, 2, 4 or 12 hours.
- `LB_ROTATION`: seconds between moves of a load-balanced record's
  active answer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from random import Random
from typing import Iterator

import numpy as np

from .dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from .maintenance import SimulatedUpstream, UpstreamAnswer, UpstreamFailure
from .poplist import RecordDef

TRACE_HEADER = ["unix_ts", "client_id", "qname", "qtype"]

_TLDS = ["com", "com", "com", "net", "net", "org", "io", "dev", "co"]
_SERVICES = [
    "www", "api", "cdn", "img", "static", "mail", "login", "media",
    "edge", "shop", "news", "m", "video", "auth", "app", "files",
]
_LB_REGIONS = [
    "eu-west-1", "eu-north-1", "us-east-1", "us-west-2", "ap-south-1",
    "sa-east-1", "af-south-1", "ap-northeast-2",
]
_LB_ROLES = ["media-cache", "edge-relay", "balancer", "ingest-front", "tls-term"]

AAAA_FRACTION = 0.4
TAIL_AAAA_FRACTION = 0.1
LB_TTL = 60
PLAIN_TTL = 14400
LB_ROTATION = 60


@dataclass(frozen=True)
class TraceEvent:
    timestamp: int
    client_id: str
    key: RecordKey


class TraceFormatError(ValueError):
    pass


class QueryTrace:
    """An ordered stream of resolution events."""

    def __init__(self, events: list[TraceEvent], skipped: int = 0):
        last = None
        for event in events:
            if last is not None and event.timestamp < last:
                raise TraceFormatError("timestamps must be nondecreasing")
            last = event.timestamp
        self.events = events
        self.skipped = skipped

    def __len__(self) -> int:
        return len(self.events)

    @property
    def clients(self) -> set[str]:
        return {e.client_id for e in self.events}

    def hours(self) -> Iterator[tuple[int, list[TraceEvent]]]:
        """Yield (hour index, events) buckets; empty hours are skipped."""
        if not self.events:
            return
        base = self.events[0].timestamp - (self.events[0].timestamp % 3600)
        bucket: list[TraceEvent] = []
        hour = 0
        for event in self.events:
            h = (event.timestamp - base) // 3600
            if h != hour:
                if bucket:
                    yield hour, bucket
                bucket = []
                hour = h
            bucket.append(event)
        if bucket:
            yield hour, bucket


def write_trace_csv(trace: QueryTrace, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for event in trace.events:
            writer.writerow(
                [
                    event.timestamp,
                    event.client_id,
                    event.key.name.dotted,
                    event.key.rtype.name,
                ]
            )


def load_trace_csv(path: str) -> QueryTrace:
    """Read a trace, skipping malformed rows (counted, not fatal)."""
    events: list[TraceEvent] = []
    skipped = 0
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise TraceFormatError(f"expected header {TRACE_HEADER}, got {header}")
        for row in reader:
            if len(row) != 4:
                skipped += 1
                continue
            try:
                timestamp = int(row[0])
                key = RecordKey(DomainName.from_text(row[2]), RecordType[row[3]])
            except (ValueError, KeyError):
                skipped += 1
                continue
            events.append(TraceEvent(timestamp, row[1], key))
    return QueryTrace(events, skipped=skipped)


# -- synthetic universe ----------------------------------------------------------


@dataclass(frozen=True)
class UniverseConfig:
    size: int
    seed: int = 0
    lb_fraction: float = 0.0  # of all records; placed in the popular head
    cname_fraction: float = 0.0


def _b36(n: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    while True:
        out = digits[n % 36] + out
        n //= 36
        if n == 0:
            return out


class SyntheticUniverse:
    """Record population with fixed answers, rotating load-balanced pools,
    and CNAME indirections; rank 0 is the most popular."""

    def __init__(self, config: UniverseConfig):
        if config.size < 1:
            raise ValueError("universe needs at least one record")
        self.config = config
        rng = Random(("universe", config.seed).__repr__())
        u = config.size
        n_lb = int(u * config.lb_fraction)
        n_cname = int(u * config.cname_fraction)

        # popular records cluster under popular domains, which is what
        # makes the label tree share aggressively at scale
        n_slds = max(12, u // 24)
        slds = []
        seen = set()
        while len(slds) < n_slds:
            word = f"{rng.choice(_SERVICES)}{rng.randrange(10000)}"
            sld = f"{word}.{rng.choice(_TLDS)}"
            if sld not in seen:
                seen.add(sld)
                slds.append(sld)
        sld_weights = np.arange(1, n_slds + 1, dtype=np.float64) ** -0.8
        sld_cdf = np.cumsum(sld_weights / sld_weights.sum())

        # head-heavy roles: the busiest fifth of ranks hosts the
        # actively load-balanced records
        head = max(1, int(u * 0.2))
        lb_ranks = set(rng.sample(range(head), min(n_lb, head)))
        # aliases also live in the popular head: indirection is a trait of
        # managed services, not of the long tail
        alias_space = [r for r in range(max(1, int(u * 0.3))) if r not in lb_ranks]
        cname_ranks = set(rng.sample(alias_space, min(n_cname, len(alias_space))))

        self.keys: list[RecordKey] = []
        self.kind: list[str] = []
        self._answers: list[bytes | None] = []
        self._pools: dict[int, tuple[bytes, ...]] = {}
        self._cname_target: dict[int, int] = {}
        self._ttl: list[int] = []
        self.rank_of: dict[RecordKey, int] = {}
        used_names: set[str] = set()

        def fresh_name(build) -> DomainName:
            for attempt in range(1000):
                text = build(attempt)
                if text not in used_names:
                    used_names.add(text)
                    return DomainName.from_text(text)
            raise RuntimeError("name space exhausted")

        def pick_sld() -> str:
            return slds[int(np.searchsorted(sld_cdf, rng.random()))]

        # the popular head carries the expensive unique structure; deep
        # ranks are terse leaves under parents the head already created,
        # which is where real resolver data gets its sublinear growth
        head_cut = max(1, int(u * 0.3))
        parent_pool: list[str] = []
        leaf_counter = 0
        plain_ranks: list[int] = []
        for rank in range(u):
            if rank in lb_ranks:
                rtype = (
                    RecordType.AAAA
                    if rng.random() < 0.6
                    else RecordType.A
                )
                name = fresh_name(
                    lambda a: f"c{rng.randrange(10 + a):02d}"
                    f".{rng.choice(_LB_ROLES)}-{rng.choice(_LB_REGIONS)}"
                    f".glb.{pick_sld()}"
                )
                width = 16 if rtype == RecordType.AAAA else 4
                pool = tuple(
                    sorted({rng.randbytes(width) for _ in range(rng.randint(3, 8))})
                )
                self.keys.append(RecordKey(name, rtype))
                self.kind.append("lb")
                self._answers.append(None)
                self._pools[rank] = pool
                self._ttl.append(LB_TTL)
            elif rank in cname_ranks and plain_ranks:
                target = rng.choice(plain_ranks)
                name = fresh_name(
                    lambda a: f"{rng.choice(_SERVICES)}{rng.randrange(100 + a * 50)}"
                    f".{pick_sld()}"
                )
                # queried with the target's type so the chain resolves
                self.keys.append(RecordKey(name, self.keys[target].rtype))
                self.kind.append("cname")
                self._answers.append(None)
                self._cname_target[rank] = target
                self._ttl.append(PLAIN_TTL)
            elif rank < head_cut or not parent_pool:
                rtype = (
                    RecordType.AAAA
                    if rng.random() < AAAA_FRACTION
                    else RecordType.A
                )
                depth = rng.random()
                if depth < 0.08:
                    name = fresh_name(
                        lambda a: f"{rng.choice(_SERVICES)}{rng.randrange(9000 + a)}"
                        f".{rng.choice(_TLDS)}"
                    )
                else:
                    sld = pick_sld()
                    svc = rng.choice(_SERVICES)
                    if depth < 0.30:
                        name = fresh_name(lambda a: f"{svc}{a or ''}.{sld}")
                    else:
                        # popular sites front services with verbose
                        # CDN-style hostnames
                        name = fresh_name(
                            lambda a: f"{svc}-{rng.choice(_LB_ROLES)}"
                            f"-{rng.choice(_LB_REGIONS)}-{rng.randrange(9000 + a)}"
                            f".{sld}"
                        )
                    parent_pool.append(
                        ".".join(name.dotted.split(".")[1:])
                    )
                self._append_plain(rank, name, rtype, rng)
                plain_ranks.append(rank)
            else:
                rtype = (
                    RecordType.AAAA
                    if rng.random() < TAIL_AAAA_FRACTION
                    else RecordType.A
                )
                # quadratic bias: tail leaves cluster under popular parents
                parent = parent_pool[int(len(parent_pool) * rng.random() ** 2)]
                name = DomainName.from_text(f"h{_b36(leaf_counter)}.{parent}")
                leaf_counter += 1
                used_names.add(name.dotted)
                self._append_plain(rank, name, rtype, rng)
                plain_ranks.append(rank)
            self.rank_of[self.keys[rank]] = rank

    def _append_plain(self, rank: int, name, rtype, rng: Random) -> None:
        self.keys.append(RecordKey(name, rtype))
        self.kind.append("plain")
        self._answers.append(rng.randbytes(16 if rtype == RecordType.AAAA else 4))
        self._ttl.append(rng.choice((3600, 7200, 14400, 43200)))

    @property
    def size(self) -> int:
        return self.config.size

    def active_answer(self, rank: int, now: float) -> bytes:
        pool = self._pools[rank]
        return pool[(int(now) // LB_ROTATION) % len(pool)]

    def resolve(self, key: RecordKey, now: float = 0.0) -> UpstreamAnswer:
        """Upstream view: one level of resolution at time `now`."""
        rank = self.rank_of.get(key)
        if rank is None:
            # a CNAME link gets requeried under its own key
            alias = self.rank_of.get(RecordKey(key.name, RecordType.A))
            if alias is None:
                alias = self.rank_of.get(RecordKey(key.name, RecordType.AAAA))
            if (
                key.rtype == RecordType.CNAME
                and alias is not None
                and self.kind[alias] == "cname"
            ):
                target = self._cname_target[alias]
                return UpstreamAnswer(
                    self._ttl[alias], cname=self.keys[target].name
                )
            raise UpstreamFailure(f"not in universe: {key}")
        kind = self.kind[rank]
        if kind == "cname":
            target = self._cname_target[rank]
            return UpstreamAnswer(self._ttl[rank], cname=self.keys[target].name)
        if kind == "lb":
            return UpstreamAnswer(self._ttl[rank], (self.active_answer(rank, now),))
        return UpstreamAnswer(self._ttl[rank], (self._answers[rank],))

    def upstream(self, clock=lambda: 0.0) -> SimulatedUpstream:
        """Adapter with a controllable clock for the maintenance loop."""
        return SimulatedUpstream(lambda key: self.resolve(key, now=clock()))

    def record_defs(self, n: int, now: float = 0.0) -> list[RecordDef]:
        """Definitions for the top n ranks, closed over CNAME targets."""
        chosen: dict[RecordKey, RecordDef] = {}
        for rank in range(min(n, self.size)):
            if self.kind[rank] == "cname":
                target = self._cname_target[rank]
                ckey = RecordKey(self.keys[rank].name, RecordType.CNAME)
                chosen[ckey] = RecordDef(
                    ckey, RecordAnswer.cname(self.keys[target].name).data
                )
                self._add_plain_def(chosen, target, now)
            else:
                self._add_plain_def(chosen, rank, now)
        return list(chosen.values())

    def _add_plain_def(self, chosen, rank: int, now: float) -> None:
        key = self.keys[rank]
        if self.kind[rank] == "lb":
            chosen.setdefault(
                key, RecordDef(key, self.active_answer(rank, now), self._pools[rank])
            )
        else:
            chosen.setdefault(key, RecordDef(key, self._answers[rank]))


# -- zipf trace generation --------------------------------------------------------


@dataclass(frozen=True)
class ZipfGeneratorConfig:
    universe: int
    exponent: float = 1.0
    clients: int = 100
    queries_per_client_hour: int = 50
    hours: int = 24
    churn_rate: float = 0.0  # fraction of ranks permuted per day
    seed: int = 0
    start_ts: int = 0

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("zipf exponent must be positive")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn rate must be within [0, 1]")


def zipf_cdf(universe: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights / weights.sum())


def generate_trace(
    config: ZipfGeneratorConfig, universe: SyntheticUniverse
) -> QueryTrace:
    """Zipf-by-rank query stream with optional daily rank churn."""
    if universe.size < config.universe:
        raise ValueError("universe smaller than the configured rank space")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cdf = zipf_cdf(config.universe, config.exponent)
    perm = np.arange(config.universe)
    client_ids = [f"c{i:04d}" for i in range(config.clients)]
    events: list[TraceEvent] = []
    per_hour = config.clients * config.queries_per_client_hour
    for hour in range(config.hours):
        if config.churn_rate > 0 and hour > 0 and hour % 24 == 0:
            _churn(perm, config.churn_rate, rng)
        offsets = np.sort(rng.integers(0, 3600, size=per_hour))
        ranks = np.searchsorted(cdf, rng.random(per_hour))
        owners = rng.integers(0, config.clients, size=per_hour)
        base = config.start_ts + hour * 3600
        for i in range(per_hour):
            events.append(
                TraceEvent(
                    int(base + offsets[i]),
                    client_ids[owners[i]],
                    universe.keys[int(perm[ranks[i]])],
                )
            )
    return QueryTrace(events)


def _churn(perm: np.ndarray, rate: float, rng: np.random.Generator) -> None:
    count = int(len(perm) * rate)
    if count < 2:
        return
    chosen = rng.choice(len(perm), size=count, replace=False)
    perm[chosen] = np.roll(perm[chosen], 1)
