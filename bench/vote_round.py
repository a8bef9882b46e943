"""Workload `vote-round`: in-process rounds of the voting mix.

The shape of acceptance criterion 1: 50 clients, quota 10, 10 hops,
30 shufflers, all on the program's `LocalTransport`.  Each round votes
fresh names; about a fifth of the votes are for names too long to vote
in the clear, which the `RoundServer` knows as `known_records`, so the
hashed-vote path is tallied too.  One round is: every client submits,
the server runs the round, every client verifies its acks.

A round over loopback daemons is left out: at 10 hops it needs at
least 11 shuffler connections, more than a 2-core machine has cores,
so it would measure the scheduler more than the mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from common import HostSpeed, Result, crypto_task, median, peak_rss_mb, quantile
from oracles import expected_tally, tally_of


@dataclass(frozen=True)
class Config:
    clients: int = 50
    quota: int = 10
    hops: int = 10
    shufflers: int = 30
    known_records: int = 25_000
    long_share: float = 0.2
    setups: int = 9


class AuditTransport:
    """Passes exchanges through, counting relayed packets and any whose
    size is not the constant packet size."""

    def __init__(self, inner, packet_len: int):
        self.inner = inner
        self.packet_len = packet_len
        self.relayed = 0
        self.violations = 0

    def begin_round(self, ctx) -> None:
        self.inner.begin_round(ctx)

    def exchange(self, assignments, phase, hop, t_timestamp):
        out = self.inner.exchange(assignments, phase, hop, t_timestamp)
        for batch in out.values():
            for pkt in batch:
                if len(pkt.to_bytes()) != self.packet_len:
                    self.violations += 1
            if phase == "vote":
                self.relayed += len(batch)
        return out


def long_names(seed: int, count: int, limit: int) -> list:
    """Distinct names whose dotted form is longer than `limit`."""
    from lluad.dnsmsg import DomainName, RecordKey, RecordType

    rng = Random(f"long-names-{seed}")
    out = []
    for i in range(count):
        text = f"edge-cache-{rng.randrange(10**6):06d}-{i}.region{rng.randrange(64)}.example.net"
        if len(text) <= limit:
            raise ValueError(f"{text} fits a direct vote")
        rtype = RecordType.AAAA if rng.random() < 0.4 else RecordType.A
        out.append(RecordKey(DomainName.from_text(text), rtype))
    return out


class _Mix:
    """Shuffler nodes, their transport and the round server."""

    def __init__(self, cfg: Config, seed: int, known, plant):
        from lluad.curve import encode_element, mult_base, random_scalar
        from lluad.mixnet import PACKET_LEN, LocalTransport, RoundServer, ShufflerNode

        rng = Random(f"mix-keys-{seed}")
        privs = [random_scalar(rng) for _ in range(cfg.shufflers)]
        self.pubs = {j: encode_element(mult_base(p)) for j, p in enumerate(privs)}
        server_priv = random_scalar(rng)
        self.server_pub = encode_element(mult_base(server_priv))
        self.nodes = {
            j: ShufflerNode(j, p, Random(f"node-{seed}-{j}")) for j, p in enumerate(privs)
        }
        inner = LocalTransport(self.nodes)
        if plant is not None:
            inner = plant(inner)
        self.transport = AuditTransport(inner, PACKET_LEN)
        self.server = RoundServer(server_priv, cfg.quota, self.transport, known_records=known)


def run(seed: int, seconds: float, tracer=None, cfg: Config = Config(), plant=None) -> Result:
    """`plant`, for the self-test, wraps the shufflers' transport."""
    from lluad import mixnet
    from lluad.dnsmsg import DomainName, RecordKey, RecordType

    known = long_names(seed, cfg.known_records, mixnet.MAX_DIRECT_NAME_LEN)
    long_order = Random(f"long-order-{seed}").sample(range(len(known)), len(known))
    draw = Random(f"votes-{seed}")
    submit_rng = Random(f"submit-{seed}")

    speed = HostSpeed(crypto_task, 0.0023)
    setup_times = []
    for _ in range(cfg.setups):
        speed.sample()
        t0 = time.perf_counter()
        mix = _Mix(cfg, seed, known, plant)
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        from layers import install

        install(tracer)

    next_long = 0

    def round_votes(r: int) -> dict:
        nonlocal next_long
        votes = {}
        for i in range(cfg.clients):
            keys = []
            for v in range(draw.randrange(cfg.quota + 1)):
                if draw.random() < cfg.long_share:
                    keys.append(known[long_order[next_long % len(known)]])
                    next_long += 1
                else:
                    keys.append(RecordKey(DomainName.from_text(f"r{r}c{i}v{v}.vote.example"), RecordType.A))
            votes[f"c{i}"] = keys
        return votes

    res = Result()
    rounds, submits = [], []
    packets = cfg.clients * cfg.quota
    base = dict(tracer.counters) if tracer is not None else {}
    cover_base = sum(n.cover_acks_sent for n in mix.nodes.values())
    relayed_base = mix.transport.relayed
    since_ns = time.perf_counter_ns()
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        votes = round_votes(r)  # input, made off the clock
        for _ in range(4):
            speed.sample()
        ctx = mixnet.RoundContext.for_online(
            10_000 + r, range(cfg.shufflers), cfg.shufflers, cfg.hops
        )
        t0 = time.perf_counter()
        sent = {}
        for client, keys in votes.items():
            s0 = time.perf_counter()
            sent[client] = mixnet.client_submit(
                keys, ctx, cfg.quota, mix.pubs, mix.server_pub, submit_rng
            )
            submits.append(time.perf_counter() - s0)
        result = mix.server.run_round(
            ctx, {c: [v.packet for v in planned] for c, planned in sent.items()}
        )
        verified = reports = 0
        for client, planned in sent.items():
            outcomes, client_reports = mixnet.verify_round_acks(planned, result.acks.get(client, []))
            verified += outcomes.count(mixnet.AckOutcome.VERIFIED)
            reports += len(client_reports)
        rounds.append(time.perf_counter() - t0)
        res.attempted += 1
        errors = []
        if tally_of(result) != expected_tally(votes):
            errors.append("tally differs from the submitted votes")
        if verified != packets or reports:
            errors.append(f"{verified}/{packets} acks verified, {reports} reports")
        submitted = [v.packet for planned in sent.values() for v in planned]
        if len(submitted) != packets or any(len(p.to_bytes()) != mix.transport.packet_len for p in submitted):
            errors.append("submitted packets are not all of constant size")
        if result.dropped_per_hop or result.unknown_digests:
            errors.append(f"dropped {result.dropped_per_hop}, {len(result.unknown_digests)} unknown digests")
        if errors:
            res.fail(f"round {r}: " + "; ".join(errors))
        r += 1
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    relayed = mix.transport.relayed - relayed_base
    if mix.transport.violations:
        res.correct = False
        res.notes.append(f"{mix.transport.violations} relayed packets not {mix.transport.packet_len} B")
    if relayed != packets * cfg.hops * r and not res.failed:
        res.correct = False
        res.notes.append(f"{relayed} packets relayed, expected {packets * cfg.hops * r}")

    setup_s = median(setup_times)
    round_p50 = median(rounds)
    scale = speed.scale()
    res.named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "round_s": (round_p50, "s"),
        "submit_p50_ms": (quantile(submits, 0.5) * 1e3, "ms"),
        "submit_p90_ms": (quantile(submits, 0.9) * 1e3, "ms"),
        "packets_per_s": (packets * r / sum(rounds), "1/s"),
        "rounds": (r, "count"),
        "host_scale": (scale, "x"),
    }
    res.e2e = {
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (packets / round_p50 / scale, "1/s"),
        "fast_p50_ms": (quantile(submits, 0.5) * 1e3 * scale, "ms"),
        "fast_tail_ms": (quantile(submits, 0.9) * 1e3, "ms"),
        "slow_p50_ms": (round_p50 * 1e3 * scale, "ms"),
    }
    if tracer is not None:
        from layers import per_layer, window_counters
        from tracing import span_cost_s

        own = {
            "mixnet.packets_relayed": relayed,
            "mixnet.cover_acks": sum(n.cover_acks_sent for n in mix.nodes.values()) - cover_base,
        }
        counters = window_counters(tracer, base, own)
        res.layers = per_layer(tracer, since_ns, counters, r, wall, span_cost_s())
    return res
