"""Workload `stub-zipf`: one user's queries through the client's UDP stub.

A server daemon holds the top `n_popular` records of the universe; one
client connects over loopback and answers misses through a zero-latency
simulated fallback that resolves from the universe.  One thread sends
one query at a time on one UDP socket (a closed loop, one outstanding
query); keys are drawn Zipf(1.0) over the whole universe, so most
queries hit the list and the rest take the fallback path.  One round
of the workload sends a block of `block` queries through the stub,
then hands the same queries straight to the stub's handler,
`LluadClient.resolve`: the gated figures come from those direct calls,
whose cost tracks the host's speed, while the UDP round trip adds a
thread hand-off that does not (see the README).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from random import Random

import numpy as np

from common import HostSpeed, Result, median, peak_rss_mb, quantile, query, question
from oracles import HIT_TTL, MISS_TTL, UniverseOracle


@dataclass(frozen=True)
class Config:
    universe: int = 100_000
    lb_fraction: float = 0.02
    cname_fraction: float = 0.05
    n_popular: int = 25_000
    setups: int = 3
    block: int = 500  # queries per round; a run attempts whole rounds


class _Stack:
    """A server daemon and a connected client with its stub listening."""

    def __init__(self, universe, cfg: Config, seed: int, keys, resolver):
        from lluad.client import LluadClient, SimulatedFallback
        from lluad.maintenance import MaintenanceConfig, Maintainer
        from lluad.server import LluadServer

        registry, server_priv, server_pub = keys
        self.maintainer = Maintainer(
            MaintenanceConfig(n_popular=cfg.n_popular),
            universe.upstream(),
            rng=Random(f"leader-{seed}"),
        )
        self.maintainer.ingest_votes(universe.keys[: cfg.n_popular])
        self.maintainer.run_refresh(0.0)
        self.server = LluadServer(registry, self.maintainer, server_priv)
        self.server.start()
        self.client = LluadClient(
            "stub",
            "stub-token",
            self.server.address,
            shuffler_pubs={},
            server_pub=server_pub,
            min_ttl=HIT_TTL,
            fallback=SimulatedFallback(resolver, ttl=MISS_TTL),
            rng=Random(f"client-{seed}"),
        )
        self.client.connect()
        self.dns_address = self.client.start_dns_listener(port=0)

    def close(self) -> None:
        self.client.close()
        self.server.stop()


class _Path:
    """Latencies of one way of asking: through the UDP stub, or by a
    direct call to the stub's handler, `LluadClient.resolve`."""

    def __init__(self):
        self.hit_ns: list[int] = []
        self.miss_ns: list[int] = []
        self.rates: list[float] = []  # queries/s of each block

    def figures(self) -> dict[str, float]:
        return {
            # the median block: a stall slows one block, not the figure
            "qps": median(self.rates),
            "hit_p50": quantile(self.hit_ns, 0.5) * 1e-3,
            "hit_p99": quantile(self.hit_ns, 0.99) * 1e-3,
            "miss_p50": quantile(self.miss_ns, 0.5) * 1e-3,
            "miss_p99": quantile(self.miss_ns, 0.99) * 1e-3,
        }


def _credentials(seed: int):
    from lluad.curve import encode_element, mult_base, random_scalar
    from lluad.server import ClientRegistry, RegistryEntry

    rng = Random(f"credentials-{seed}")
    server_priv = random_scalar(rng)
    client_pub = encode_element(mult_base(random_scalar(rng)))
    registry = ClientRegistry([RegistryEntry("stub", "stub-token", client_pub, False)])
    return registry, server_priv, encode_element(mult_base(server_priv))


def universe_resolver(universe):
    """The fallback's resolver: the universe's answer chain for a key."""
    from lluad.dnsmsg import RecordAnswer, RecordKey
    from lluad.maintenance import UpstreamFailure

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


def run(seed: int, seconds: float, tracer=None, cfg: Config = Config(), plant=None) -> Result:
    """`plant`, for the self-test, wraps the fallback's resolver."""
    from lluad.traces import SyntheticUniverse, UniverseConfig, zipf_cdf

    # inputs: not part of set-up time
    universe = SyntheticUniverse(
        UniverseConfig(
            cfg.universe,
            seed=seed,
            lb_fraction=cfg.lb_fraction,
            cname_fraction=cfg.cname_fraction,
        )
    )
    oracle = UniverseOracle(universe, cfg.n_popular)
    expected_hit = np.array([oracle.expected_hit(k) for k in universe.keys], dtype=bool)
    questions = [question(k.name.dotted, int(k.rtype)) for k in universe.keys]
    cdf = zipf_cdf(cfg.universe, 1.0)
    draws = np.random.Generator(np.random.PCG64(seed))
    keys = _credentials(seed)
    resolver = universe_resolver(universe)
    if plant is not None:
        resolver = plant(resolver)

    res = Result()
    speed = HostSpeed()
    setup_times = []
    stack = None
    for i in range(cfg.setups):
        if stack is not None:
            stack.close()
            stack = None
        if tracer is not None and i == cfg.setups - 1:
            from layers import install

            install(tracer)  # the last set-up is traced, so the snapshot shows
        speed.sample()
        t0 = time.perf_counter()
        stack = _Stack(universe, cfg, seed, keys, resolver)
        setup_times.append(time.perf_counter() - t0)

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(stack.dns_address)
    sock.settimeout(5.0)

    def udp(msg: bytes) -> bytes:
        sock.send(msg)
        return sock.recv(4096)

    paths = {"udp": _Path(), "direct": _Path()}
    askers = {"udp": udp, "direct": stack.client.resolve}
    span_ids = {
        kind: tracer.name_id(f"stub.{kind}") if tracer is not None else None for kind in paths
    }
    seen: dict[tuple[int, bytes], list[int]] = {}  # (rank, body) -> [count, txid]
    sent = 0
    clock = time.perf_counter_ns
    since_ns = clock()
    base = dict(tracer.counters) if tracer is not None else {}
    start = time.perf_counter()
    try:
        while True:
            ranks = np.searchsorted(cdf, draws.random(cfg.block)).tolist()
            # a round sends its queries through the stub, then hands the
            # same queries straight to the stub's handler
            for kind, path in paths.items():
                ask, span = askers[kind], span_ids[kind]
                block_start = time.perf_counter()
                for rank in ranks:
                    txid = sent & 0xFFFF
                    msg = query(txid, questions[rank])
                    sent += 1
                    t0 = clock()
                    try:
                        resp = ask(msg)
                    except socket.timeout:
                        res.fail(f"no response for rank {rank}")
                        continue
                    t1 = clock()
                    if span is not None:
                        tracer.record(span, t0, t1)
                    (path.hit_ns if expected_hit[rank] else path.miss_ns).append(t1 - t0)
                    if resp is None or resp[:2] != msg[:2]:
                        res.fail(f"no response with the query's id for rank {rank}")
                        continue
                    entry = seen.get((rank, resp[2:]))
                    if entry is None:
                        seen[(rank, resp[2:])] = [1, txid]
                    else:
                        entry[0] += 1
                path.rates.append(len(ranks) / (time.perf_counter() - block_start))
            speed.sample()
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        rss = peak_rss_mb()
        hits, misses = stack.client.hits, stack.client.misses
    finally:
        sock.close()
        stack.close()

    # one check per distinct (key, response body); its verdict covers
    # every query that got those same bytes back
    for (rank, body), (count, txid) in seen.items():
        error = oracle.response_error(rank, txid, txid.to_bytes(2, "big") + body)
        if error is not None:
            res.fail(f"rank {rank}: {error}", count)
    res.attempted = sent
    want = (
        sum(len(p.hit_ns) for p in paths.values()),
        sum(len(p.miss_ns) for p in paths.values()),
    )
    if (hits, misses) != want:
        res.correct = False
        res.notes.append(f"client counted {hits} hits, {misses} misses; expected {want}")

    udp_fig, direct_fig = paths["udp"].figures(), paths["direct"].figures()
    scale = speed.scale()
    setup_s = median(setup_times)
    res.named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "query_qps": (udp_fig["qps"], "queries/s"),
        "hit_p50_us": (udp_fig["hit_p50"], "us"),
        "hit_p99_us": (udp_fig["hit_p99"], "us"),
        "miss_p50_us": (udp_fig["miss_p50"], "us"),
        "miss_p99_us": (udp_fig["miss_p99"], "us"),
        "resolve_qps": (direct_fig["qps"], "queries/s"),
        "resolve_hit_p50_us": (direct_fig["hit_p50"], "us"),
        "resolve_hit_p99_us": (direct_fig["hit_p99"], "us"),
        "resolve_miss_p50_us": (direct_fig["miss_p50"], "us"),
        "resolve_miss_p99_us": (direct_fig["miss_p99"], "us"),
        "hit_ratio": (want[0] / max(sum(want), 1), "share"),
        "host_scale": (scale, "x"),
        "queries": (sent, "count"),
    }
    res.e2e = {
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (direct_fig["qps"] / scale, "1/s"),
        "fast_p50_ms": (direct_fig["hit_p50"] / 1e3 * scale, "ms"),
        "fast_tail_ms": (direct_fig["hit_p99"] / 1e3, "ms"),
        "slow_p50_ms": (direct_fig["miss_p50"] / 1e3 * scale, "ms"),
    }
    if tracer is not None:
        from layers import per_layer, window_counters
        from tracing import span_cost_s

        counters = window_counters(tracer, base, {"client.hits": hits, "client.misses": misses})
        res.layers = per_layer(tracer, since_ns, counters, sent, elapsed, span_cost_s())
    return res
