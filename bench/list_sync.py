"""Workload `list-sync`: the write side of the list, on a virtual clock.

A server daemon holds a list of the top `n_popular` records of a
universe with many load-balanced records; one follower client stays
connected over loopback.  Every virtual minute the server runs its TTL
requery (`trigger_ttl`), which re-resolves the load-balanced records
and broadcasts pointer rotations.  At the end of every virtual hour
the votes of one hour of a Zipf trace are ingested, deduplicated per
client and capped at the quota as the client's vote buffer does, and
`trigger_refresh` reshapes membership.  After every trigger the
workload waits for the follower to reach the leader's generation.
After every hour the follower reconnects, which times connect to
snapshot.  One virtual hour is one round of the workload.

Set-up learns the load-balancing pools before the full list is built:
the load-balanced records alone are listed first and requeried once a
minute for `warm_minutes` virtual minutes, so each measured minute
sees the steady state (pointer rotations), not a one-time cascade of
whole-list rebuilds while pools are discovered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from common import HostSpeed, Result, median, peak_rss_mb, quantile
from oracles import UniverseOracle, pool_state


@dataclass(frozen=True)
class Config:
    universe: int = 30_000
    lb_fraction: float = 0.05
    cname_fraction: float = 0.05
    n_popular: int = 25_000
    clients: int = 500
    queries_per_client_hour: int = 40
    voting_rate: float = 0.3
    quota: int = 10
    warm_minutes: int = 10
    setups: int = 2
    min_hours: int = 2  # at least 120 ticks, for the tick p90
    converge_timeout: float = 120.0


class _Stack:
    def __init__(self, universe, cfg: Config, seed: int, keys, clock):
        from lluad.client import LluadClient
        from lluad.maintenance import MaintenanceConfig, Maintainer
        from lluad.server import LluadServer

        registry, server_priv, server_pub = keys
        self.maintainer = Maintainer(
            MaintenanceConfig(n_popular=cfg.n_popular),
            universe.upstream(clock=lambda: clock[0]),
            rng=Random(f"leader-{seed}"),
        )
        top = universe.keys[: cfg.n_popular]
        self.maintainer.ingest_votes(
            k for k, kind in zip(top, universe.kind) if kind == "lb"
        )
        self.maintainer.run_refresh(clock[0])
        for _ in range(cfg.warm_minutes):
            clock[0] += 60.0
            self.maintainer.run_ttl(clock[0])
            self.maintainer.flush_lb_updates(clock[0])
        self.maintainer.ingest_votes(top)
        self.maintainer.run_refresh(clock[0])
        self.server = LluadServer(registry, self.maintainer, server_priv)
        self.server.start()
        self.follower = LluadClient(
            "follower",
            "follower-token",
            self.server.address,
            shuffler_pubs={},
            server_pub=server_pub,
            rng=Random(f"follower-{seed}"),
        )
        self.follower.connect()

    def close(self) -> None:
        self.follower.close()
        self.server.stop()


def _credentials(seed: int):
    from lluad.curve import encode_element, mult_base, random_scalar
    from lluad.server import ClientRegistry, RegistryEntry

    rng = Random(f"credentials-{seed}")
    server_priv = random_scalar(rng)
    pub = encode_element(mult_base(random_scalar(rng)))
    registry = ClientRegistry([RegistryEntry("follower", "follower-token", pub, False)])
    return registry, server_priv, encode_element(mult_base(server_priv))


def hour_votes(universe, cfg: Config, seed: int, hour: int) -> list:
    """One hour of a Zipf trace, reduced to the votes its clients cast:
    each query is sampled at the voting rate, each client votes a key
    once, and at most `quota` keys per client."""
    from lluad.traces import ZipfGeneratorConfig, generate_trace

    trace = generate_trace(
        ZipfGeneratorConfig(
            universe=cfg.universe,
            clients=cfg.clients,
            queries_per_client_hour=cfg.queries_per_client_hour,
            hours=1,
            seed=seed * 1000 + hour,
        ),
        universe,
    )
    rng = Random(f"votes-{seed}-{hour}")
    buffers: dict[str, dict] = {}
    for event in trace.events:
        if rng.random() < cfg.voting_rate:
            buffers.setdefault(event.client_id, {})[event.key] = None
    votes = []
    for client in sorted(buffers):
        keys = list(buffers[client])
        votes.extend(rng.sample(keys, min(cfg.quota, len(keys))))
    return votes


class _Checker:
    """Convergence and universe agreement after every trigger.

    Convergence means the follower's `serialize` bytes equal the
    leader's.  Those bytes are the label tree followed by the pool.
    The tree objects are immutable, so while both sides still hold the
    tree objects of the last byte-for-byte comparison, their trees
    still serialize alike, and comparing every pool field covers all
    the bytes that can differ.  Likewise every leader record is checked
    against the universe whenever the leader's tree is new, and the
    pooled records (the ones that rotate) after every trigger."""

    def __init__(self, oracle: UniverseOracle, plant=None):
        from lluad.poplist import iter_records, serialize

        self._iter_records = iter_records
        self._serialize = serialize
        self.oracle = oracle
        self.plant = plant
        self._compared = (None, None)  # trees at the last byte comparison
        self._checked = None  # leader tree whose records were all checked
        self.full_checks = 0

    def error(self, leader, follower, now: float) -> str | None:
        if self.plant is not None:
            follower = self.plant(follower)
        if leader.roots is not self._checked:
            self.full_checks += 1
            for record in self._iter_records(leader):
                error = self.oracle.record_error(record, now)
                if error is not None:
                    return error
            self._checked = leader.roots
        for group in leader.pool.groups:
            accepted = self.oracle.answers_for(group.key, now)
            if group.active not in accepted or not set(group.answers) <= accepted:
                return f"pooled record {group.key} disagrees with the universe"
        if leader.roots is self._compared[0] and follower.roots is self._compared[1]:
            if pool_state(leader) != pool_state(follower):
                return "follower's pool differs from the leader's"
            return None
        self._compared = (None, None)
        if self._serialize(leader) != self._serialize(follower):
            return "follower's serialize bytes differ from the leader's"
        self._compared = (leader.roots, follower.roots)
        return None


def run(seed: int, seconds: float, tracer=None, cfg: Config = Config(), plant=None) -> Result:
    """`plant`, for the self-test, stands in for the follower's list at
    each check (say, an older copy that skipped an update)."""
    from lluad import wire
    from lluad.traces import SyntheticUniverse, UniverseConfig

    universe = SyntheticUniverse(
        UniverseConfig(
            cfg.universe,
            seed=seed,
            lb_fraction=cfg.lb_fraction,
            cname_fraction=cfg.cname_fraction,
        )
    )
    oracle = UniverseOracle(universe, cfg.n_popular)
    keys = _credentials(seed)

    # count the update frames the follower receives (one subscriber's share)
    received = [0]
    originals = {
        name: getattr(wire, name) for name in ("decode_membership_update", "decode_lb_update")
    }

    def counting(decode):
        def decode_counted(body):
            received[0] += wire.FRAME_HEADER_LEN + len(body)
            return decode(body)

        return decode_counted

    for name, decode in originals.items():
        setattr(wire, name, counting(decode))

    speed = HostSpeed()
    setup_times = []
    stack = None
    clock = [0.0]
    try:
        for i in range(cfg.setups):
            if stack is not None:
                stack.close()
                stack = None
            if tracer is not None and i == cfg.setups - 1:
                from layers import install

                install(tracer)
            clock[0] = 0.0
            speed.sample()
            t0 = time.perf_counter()
            stack = _Stack(universe, cfg, seed, keys, clock)
            setup_times.append(time.perf_counter() - t0)
        res = _measure(stack, universe, oracle, cfg, seed, seconds, tracer, clock, received, plant, setup_times, speed)
    finally:
        if stack is not None:
            stack.close()
        if tracer is not None:
            tracer.unwrap_all()
        for name, decode in originals.items():
            setattr(wire, name, decode)
    return res


def _measure(stack, universe, oracle, cfg, seed, seconds, tracer, clock, received, plant, setup_times, speed):
    res = Result()
    checker = _Checker(oracle, plant)
    maintainer, server, follower = stack.maintainer, stack.server, stack.follower
    propagation = tracer.name_id("server.propagation") if tracer is not None else None

    def converge(t_return: int) -> float | None:
        ok = follower.wait_for_generation(maintainer.generation, timeout=cfg.converge_timeout)
        t_done = time.perf_counter_ns()
        if propagation is not None:
            tracer.record(propagation, t_return, t_done)
        return t_done if ok else None

    def trigger(kind: str, action) -> float:
        t0 = time.perf_counter_ns()
        action(clock[0])
        t_done = converge(time.perf_counter_ns())
        res.attempted += 1
        if t_done is None:
            res.fail(f"{kind} at t={clock[0]:.0f}: follower did not converge")
            return (time.perf_counter_ns() - t0) * 1e-9
        error = checker.error(maintainer.plist, follower.plist, clock[0])
        if error is not None:
            res.fail(f"{kind} at t={clock[0]:.0f}: {error}")
        return (t_done - t0) * 1e-9

    # the first full check runs before the window: it is the baseline
    error = checker.error(maintainer.plist, follower.plist, clock[0])
    if error is not None:
        res.correct = False
        res.notes.append(f"after set-up: {error}")

    ticks, refreshes, hours, snapshots = [], [], [], []
    upstream_calls = [0]
    upstream = maintainer.upstream
    resolve = upstream.resolve

    def counted_resolve(key):
        upstream_calls[0] += 1
        return resolve(key)

    upstream.resolve = counted_resolve
    received[0] = 0
    base = dict(tracer.counters) if tracer is not None else {}
    since_ns = time.perf_counter_ns()
    start = time.perf_counter()
    hour = 0
    while hour < cfg.min_hours or time.perf_counter() - start < seconds:
        votes = hour_votes(universe, cfg, seed, hour)  # input, made off the clock
        hour_s = 0.0
        for _ in range(60):
            speed.sample()
            clock[0] += 60.0
            tick = trigger("tick", server.trigger_ttl)
            ticks.append(tick)
            hour_s += tick
        maintainer.ingest_votes(votes)
        refresh = trigger("refresh", server.trigger_refresh)
        refreshes.append(refresh)
        hours.append(hour_s + refresh)
        t0 = time.perf_counter()
        follower.reconnect()
        snapshots.append(time.perf_counter() - t0)
        res.attempted += 1
        error = checker.error(maintainer.plist, follower.plist, clock[0])
        if error is not None:
            res.fail(f"reconnect at t={clock[0]:.0f}: {error}")
        hour += 1
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    upstream.resolve = resolve

    setup_s = median(setup_times)
    tick_p50, tick_p90 = quantile(ticks, 0.5), quantile(ticks, 0.9)
    res.named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "tick_p50_ms": (tick_p50 * 1e3, "ms"),
        "tick_p90_ms": (tick_p90 * 1e3, "ms"),
        "refresh_s": (median(refreshes), "s"),
        "hour_s": (median(hours), "s"),
        "snapshot_s": (median(snapshots), "s"),
        "broadcast_bytes": (received[0] / hour, "B/hour"),
        "virtual_hours": (hour, "count"),
        "full_checks": (checker.full_checks, "count"),
    }
    scale = speed.scale()
    res.named["host_scale"] = (scale, "x")
    res.e2e = {
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (60.0 / median(hours) / scale, "1/s"),
        "fast_p50_ms": (tick_p50 * 1e3 * scale, "ms"),
        "fast_tail_ms": (tick_p90 * 1e3, "ms"),
        "slow_p50_ms": (median(refreshes) * 1e3 * scale, "ms"),
    }
    if tracer is not None:
        from layers import per_layer, window_counters
        from tracing import span_cost_s

        counters = window_counters(tracer, base, {"maintenance.upstream": upstream_calls[0]})
        res.layers = per_layer(tracer, since_ns, counters, hour, wall, span_cost_s())
    return res
