"""Deterministic trace-replay experiments over the live maintenance code.

Four engines, one per published evaluation axis:

- `run_hit_ratio` replays a query trace hour by hour against a real
  `Maintainer`, with fast-start seeding, vote sampling, voter caps, and a
  vote-freeze mode.
- `exposure_rate` is the analytic resolution-exposure model under partial
  relay collusion.
- `run_bandwidth` accounts wire bytes for list distribution and vote
  traffic against a full-tuple retransmission baseline.
- `run_latency` composes hourly mean lookup latency from a hit-ratio
  series by sampling, 1000 draws per hour.

`write_figure_batch` runs all four for the paper's figures and writes
them as one batch of CSVs with a manifest.  Everything is
single-threaded and deterministic given the seed; CSV writers use fixed
formatting so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Sequence

from .dnsmsg import RecordKey, RecordType
from .maintenance import (
    LbUpdate,
    MaintenanceConfig,
    Maintainer,
    MembershipUpdate,
    SimulatedUpstream,
)
from .poplist import build_list, lookup, record_count, serialize
from .traces import (
    QueryTrace,
    SyntheticUniverse,
    UniverseConfig,
    ZipfGeneratorConfig,
    generate_trace,
)
from .wire import (
    FRAME_HEADER_LEN,
    encode_lb_update,
    encode_list_snapshot,
    encode_membership_update,
    encode_packet_batch,
    encode_round_start,
)
from .mixnet import PACKET_LEN, RoundContext, availability_bits

BROWSER_CACHE_SECONDS = 60.0
# a run has settled over its last hours; the figures judge it there
STEADY_HOURS = 3


# -- hit ratio ---------------------------------------------------------------------


@dataclass(frozen=True)
class HitRatioConfig:
    n_popular: int
    voting_rate: float = 0.3
    max_votes_per_round: int = 10
    fast_start_hours: int = 18
    freeze_votes_after: int | None = None  # hour index; None = never freeze
    voter_cap: int | None = None  # fixed-size participating subset
    browser_cache: bool = False  # 60 s per-client dedup before the list
    seed: int = 0


@dataclass(frozen=True)
class HourStats:
    hour: int
    queries: int
    hits: int
    records: int
    votes: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.queries if self.queries else 0.0


def run_hit_ratio(
    trace: QueryTrace, universe: SyntheticUniverse, config: HitRatioConfig
) -> list[HourStats]:
    """Replay `trace` against a live list maintainer, hour by hour.

    Votes collected during hour h are tallied at the refresh closing that
    hour, so hour h+1 queries see their effect, matching the daemons.
    During the fast-start window every query is offered as a vote;
    afterwards each query is offered with probability `voting_rate`.
    Per client and hour, offers are deduplicated like the client's
    buffer, and each client votes for its first `max_votes_per_round`
    distinct sampled keys.  The live client instead submits a uniform
    sample of `quota` of its buffered keys (`select_vote_payloads`).
    """
    if not len(trace):
        raise ValueError("empty trace")
    if config.n_popular == 0:
        # no list at all: every query goes external
        return [
            HourStats(hour, len(events), 0, 0, 0) for hour, events in trace.hours()
        ]
    rng = Random(("hit-ratio", config.seed).__repr__())
    now = [float(trace.events[0].timestamp)]
    maintainer = Maintainer(
        MaintenanceConfig(n_popular=config.n_popular),
        universe.upstream(clock=lambda: now[0]),
        rng=Random(("maintainer", config.seed).__repr__()),
    )
    allowed: set[str] | None = None
    if config.voter_cap is not None:
        allowed = set(
            rng.sample(sorted(trace.clients), min(config.voter_cap, len(trace.clients)))
        )
    cache_seen: dict[tuple[str, RecordKey], float] = {}
    rows: list[HourStats] = []
    for hour, events in trace.hours():
        frozen = (
            config.freeze_votes_after is not None
            and hour >= config.freeze_votes_after
        )
        fast = hour < config.fast_start_hours
        buffers: dict[str, dict[RecordKey, None]] = {}
        queries = hits = 0
        for event in events:
            now[0] = float(event.timestamp)
            if config.browser_cache:
                mark = (event.client_id, event.key)
                last = cache_seen.get(mark)
                cache_seen[mark] = now[0]
                if last is not None and now[0] - last < BROWSER_CACHE_SECONDS:
                    continue  # absorbed before reaching the resolver
            queries += 1
            if lookup(maintainer.plist, event.key) is not None:
                hits += 1
            if frozen:
                continue
            if allowed is not None and event.client_id not in allowed:
                continue
            # sampling draw comes before dedup, like the client buffer
            if not fast and rng.random() >= config.voting_rate:
                continue
            bucket = buffers.setdefault(event.client_id, {})
            if event.key not in bucket and len(bucket) < config.max_votes_per_round:
                bucket[event.key] = None
        votes = [key for bucket in buffers.values() for key in bucket]
        maintainer.ingest_votes(votes)
        now[0] = float(trace.events[0].timestamp + (hour + 1) * 3600)
        maintainer.run_refresh(now=now[0])
        rows.append(
            HourStats(hour, queries, hits, record_count(maintainer.plist), len(votes))
        )
    return rows


def steady_hit_ratio(rows: Sequence[HourStats]) -> float:
    """Mean hit ratio over the last `STEADY_HOURS` hours of a run."""
    tail = rows[-STEADY_HOURS:]
    return sum(r.hit_ratio for r in tail) / len(tail)


def sweep_hit_ratio(
    trace: QueryTrace,
    universe: SyntheticUniverse,
    n_values: Sequence[int],
    base: HitRatioConfig,
) -> dict[int, list[HourStats]]:
    out = {}
    for n in n_values:
        out[n] = run_hit_ratio(
            trace, universe, dataclasses.replace(base, n_popular=n)
        )
    return out


# -- exposure model ----------------------------------------------------------------

# resolver paths a client can fall back to on a list miss, with the
# number of intermediate relays each one routes through (only `plain`,
# `doh` and `simulated` have live transports in the client)
FALLBACK_RELAY_HOPS = {
    "plain": 0,
    "doh": 0,
    "dnscrypt": 0,
    "anon-dnscrypt": 1,
    "dohot": 3,
    "simulated": 0,
}
COLLUSION_GRID = [i / 20 for i in range(21)]


@dataclass(frozen=True)
class ExposureModelParams:
    """Inputs to the resolution-exposure model.

    A resolution is exposed when its origin can be linked to its name:
    a missed query leaks when all `fallback_relays` on the external path
    collude (each independently with probability `collusion`); a voted
    name leaks when the full mix path of `mix_hops` nodes colludes.
    `overlap` removes double counting for queries that both missed and
    were voted.  A finite `voters` count models a small anonymity set:
    even an honest path hides a vote only among the voters actually
    present, which lifts the curve at low collusion.
    """

    miss_fraction: float
    vote_fraction: float
    fallback_relays: int
    collusion: float
    mix_hops: int = 10
    overlap: float = 0.0
    voters: int | None = None

    def __post_init__(self):
        for field in ("miss_fraction", "vote_fraction", "collusion", "overlap"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be within [0, 1]")
        if self.fallback_relays < 0 or self.mix_hops < 1:
            raise ValueError("relay counts out of range")
        if self.voters is not None and self.voters < 1:
            raise ValueError("voters must be positive")


def exposure_rate(params: ExposureModelParams) -> float:
    c = params.collusion
    path_leak = c**params.mix_hops
    if params.voters is not None:
        path_leak = path_leak + (1.0 - path_leak) / params.voters
    return (
        params.miss_fraction * c**params.fallback_relays
        + params.vote_fraction * (1.0 - params.overlap) * path_leak
    )


def fit_overlap(miss_fraction: float, vote_fraction: float, target: float) -> float:
    """Solve for the voted-and-missed overlap that makes full collusion
    hit `target` exactly."""
    if vote_fraction <= 0:
        raise ValueError("cannot fit overlap without votes")
    overlap = 1.0 - (target - miss_fraction) / vote_fraction
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("target not reachable with these fractions")
    return overlap


def exposure_curve(
    params: ExposureModelParams, collusions: Iterable[float]
) -> list[tuple[float, float]]:
    return [
        (c, exposure_rate(dataclasses.replace(params, collusion=c)))
        for c in collusions
    ]


def mode_exposure_params(
    mode: str,
    *,
    miss_fraction: float,
    vote_fraction: float,
    collusion: float = 0.0,
    **extra,
) -> ExposureModelParams:
    if mode not in FALLBACK_RELAY_HOPS:
        raise ValueError(f"unknown fallback mode: {mode}")
    return ExposureModelParams(
        miss_fraction=miss_fraction,
        vote_fraction=vote_fraction,
        fallback_relays=FALLBACK_RELAY_HOPS[mode],
        collusion=collusion,
        **extra,
    )


# -- bandwidth ---------------------------------------------------------------------

DEFAULT_FALLBACK_QUERY_BYTES = {
    # rough request+response wire estimate per external resolution
    "plain": 160,
    "doh": 620,
    "dnscrypt": 512,
    "anon-dnscrypt": 1024,
    "dohot": 1660,
    "simulated": 0,
}
# request+response wire estimate per server-side TTL requery
UPSTREAM_BYTES_PER_QUERY = 180


@dataclass(frozen=True)
class BandwidthConfig:
    hours: int = 2
    clients: int = 1
    participate: bool = True  # mix cover traffic on/off
    quota: int = 10
    n_shuffle: int = 10
    ttl_step: float = 60.0
    n_popular: int = 25000
    fallback_mode: str = "doh"
    seed: int = 0


@dataclass(frozen=True)
class BandwidthHour:
    hour: int
    snapshot_bytes: int  # initial download, charged to hour 0
    lb_update_bytes: int
    lb_entries: int
    lb_flushes: int
    baseline_lb_bytes: int  # full (name, type, answer) tuples per change
    membership_bytes: int
    round_control_bytes: int
    vote_bytes_up: int
    ack_bytes_down: int
    shuffle_duty_bytes: int
    fallback_bytes: int
    upstream_queries: int
    upstream_bytes: int

    @property
    def client_received_broadcast(self) -> int:
        """Broadcast bytes one client downloads this hour."""
        return (
            self.snapshot_bytes
            + self.lb_update_bytes
            + self.membership_bytes
            + self.round_control_bytes
        )


@dataclass(frozen=True)
class BandwidthReport:
    hours: list[BandwidthHour]
    clients: int

    def total(self, field: str) -> int:
        return sum(getattr(row, field) for row in self.hours)

    @property
    def broadcast_bytes(self) -> int:
        """Per-client broadcast download over the whole run."""
        return sum(row.client_received_broadcast for row in self.hours)

    @property
    def all_clients_received(self) -> int:
        return self.broadcast_bytes * self.clients


def _framed(body: bytes) -> int:
    return FRAME_HEADER_LEN + len(body)


def _baseline_tuple_bytes(maintainer: Maintainer, update: LbUpdate) -> int:
    """What the same pointer rotations would cost if each change resent
    the full record: type, dotted name, and the new active answer."""
    total = 2  # entry count, mirroring the real batch header
    order = maintainer.plist.lb_entry_order
    for entry_index, _offset in update.entries:
        key = order[entry_index]
        answer_len = 16 if key.rtype == RecordType.AAAA else 4
        total += 2 + 1 + len(key.name.dotted) + 1 + answer_len
    return FRAME_HEADER_LEN + total


def run_bandwidth(
    universe: SyntheticUniverse,
    config: BandwidthConfig,
    trace: QueryTrace | None = None,
) -> BandwidthReport:
    """Account hourly wire bytes for a population of `config.clients`
    subscribed to one server.

    Broadcast costs (snapshot, LB batches, membership batches, round
    starts) are counted once per client.  Vote traffic is cover traffic:
    a participating client uploads `quota` packets per round and
    downloads as many acks whether or not it has anything to say.
    Shuffle duty counts each stage's batch relay in both directions,
    reported population-wide.  Misses from `trace` are charged the
    per-query fallback cost of the configured mode; the server side pays
    `UPSTREAM_BYTES_PER_QUERY` per TTL requery.
    """
    if config.fallback_mode not in DEFAULT_FALLBACK_QUERY_BYTES:
        raise ValueError(f"unknown fallback mode: {config.fallback_mode}")
    counter = {"queries": 0}
    clock = [0.0]

    def resolve(key):
        counter["queries"] += 1
        return universe.resolve(key, now=clock[0])

    maintainer = Maintainer(
        MaintenanceConfig(n_popular=config.n_popular),
        SimulatedUpstream(resolve),
        rng=Random(("bandwidth", config.seed).__repr__()),
    )
    # seed the list with the whole universe, then charge the snapshot
    maintainer.ingest_votes(universe.keys)
    maintainer.run_refresh(now=0.0)
    counter["queries"] = 0
    snapshot = _framed(encode_list_snapshot(maintainer.plist))

    events_by_hour = dict(trace.hours()) if trace is not None else {}
    per_query_fallback = DEFAULT_FALLBACK_QUERY_BYTES[config.fallback_mode]

    rows: list[BandwidthHour] = []
    batch_body = len(
        encode_packet_batch([])
    ) + config.quota * PACKET_LEN  # count prefix + packets
    round_batch_all = 2 + config.clients * config.quota * PACKET_LEN
    for hour in range(config.hours):
        lb_bytes = lb_entries = lb_flushes = baseline = membership_bytes = 0
        upstream_before = counter["queries"]
        step = config.ttl_step
        t = hour * 3600.0
        while t < (hour + 1) * 3600.0:
            t += step
            clock[0] = t
            for message in maintainer.run_ttl(now=t):
                assert isinstance(message, MembershipUpdate)
                membership_bytes += _framed(encode_membership_update(message))
            update = maintainer.flush_lb_updates(now=t)
            if update is not None:
                baseline += _baseline_tuple_bytes(maintainer, update)
                lb_bytes += _framed(encode_lb_update(update))
                lb_entries += len(update.entries)
                lb_flushes += 1
        fallback = 0
        for event in events_by_hour.get(hour, []):
            if lookup(maintainer.plist, event.key) is None:
                fallback += per_query_fallback
        # one vote round per hour
        ctx = RoundContext(
            int(3600 * (hour + 1)),
            availability_bits(range(config.clients), max(config.clients, 1)),
            config.n_shuffle,
        )
        round_ctl = _framed(encode_round_start(ctx))
        vote_up = _framed(b"\x00" * batch_body) if config.participate else 0
        duty = 0
        if config.participate:
            # vote stages + ack stages, each relayed in and out
            stages = config.n_shuffle + 1
            duty = 2 * 2 * stages * _framed(b"\x00" * round_batch_all)
        requeries = counter["queries"] - upstream_before
        rows.append(
            BandwidthHour(
                hour=hour,
                snapshot_bytes=snapshot if hour == 0 else 0,
                lb_update_bytes=lb_bytes,
                lb_entries=lb_entries,
                lb_flushes=lb_flushes,
                baseline_lb_bytes=baseline,
                membership_bytes=membership_bytes,
                round_control_bytes=round_ctl,
                vote_bytes_up=vote_up,
                ack_bytes_down=vote_up,
                shuffle_duty_bytes=duty,
                fallback_bytes=fallback,
                upstream_queries=requeries,
                upstream_bytes=requeries * UPSTREAM_BYTES_PER_QUERY,
            )
        )
    return BandwidthReport(hours=rows, clients=config.clients)


# -- latency -----------------------------------------------------------------------

DEFAULT_LATENCY_MS = {
    "local_hit": 0.5,
    "local_miss": 0.5,  # time spent concluding the list cannot answer
    "plain": 20.0,
    "doh": 55.0,
    "dnscrypt": 65.0,
    "anon-dnscrypt": 180.0,
    "dohot": 350.0,  # established circuit
    "dohot-new": 1100.0,  # fresh circuit per lookup
    "simulated": 0.0,
}


@dataclass(frozen=True)
class LatencyHour:
    hour: int
    hit_ratio: float
    mean_ms: float


def analytic_latency_ms(hit_ratio: float, mode: str) -> float:
    table = DEFAULT_LATENCY_MS
    miss = 1.0 - hit_ratio
    return hit_ratio * table["local_hit"] + miss * (
        table["local_miss"] + table[mode]
    )


def run_latency(
    hit_series: Sequence[float],
    mode: str,
    *,
    samples: int = 1000,
    seed: int = 0,
) -> list[LatencyHour]:
    """Sample `samples` lookups per hour at the given hit ratio and
    average their composed latencies."""
    table = DEFAULT_LATENCY_MS
    if mode not in table:
        raise ValueError(f"no latency entry for mode: {mode}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = Random(("latency", seed).__repr__())
    rows = []
    for hour, hit in enumerate(hit_series):
        if not 0.0 <= hit <= 1.0:
            raise ValueError("hit ratio out of range")
        total = 0.0
        for _ in range(samples):
            if rng.random() < hit:
                total += table["local_hit"]
            else:
                total += table["local_miss"] + table[mode]
        rows.append(LatencyHour(hour, hit, total / samples))
    return rows


# -- output ------------------------------------------------------------------------


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_hit_ratio_csv(
    series: Mapping[int, Sequence[HourStats]], path: str | Path
) -> None:
    _write_csv(
        path,
        ["n_popular", "hour", "queries", "hits", "hit_ratio", "records", "votes"],
        (
            [n, r.hour, r.queries, r.hits, f"{r.hit_ratio:.6f}", r.records, r.votes]
            for n in sorted(series)
            for r in series[n]
        ),
    )


def write_exposure_csv(
    curves: Mapping[str, Sequence[tuple[float, float]]], path: str | Path
) -> None:
    _write_csv(
        path,
        ["mode", "collusion", "exposure"],
        (
            [mode, f"{c:.6f}", f"{rate:.6f}"]
            for mode in sorted(curves)
            for c, rate in curves[mode]
        ),
    )


def write_bandwidth_csv(report: BandwidthReport, path: str | Path) -> None:
    fields = [f.name for f in dataclasses.fields(BandwidthHour)]
    _write_csv(
        path, fields, ([getattr(row, name) for name in fields] for row in report.hours)
    )


def write_latency_csv(rows: Sequence[LatencyHour], path: str | Path) -> None:
    _write_csv(
        path,
        ["hour", "hit_ratio", "mean_ms"],
        ([r.hour, f"{r.hit_ratio:.6f}", f"{r.mean_ms:.6f}"] for r in rows),
    )


def code_version() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_manifest(path: str | Path, config, seed: int, **extra) -> dict:
    """Machine-readable run description: config, seed, code version.
    No timestamps, so reruns stay byte-identical."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    data = {"config": config, "seed": seed, "code_version": code_version()}
    data.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return data


# -- figure batch ------------------------------------------------------------------


@dataclass(frozen=True)
class FigureBatch:
    """What `write_figure_batch` computed, for callers that summarize it."""

    trace: QueryTrace
    series: dict[int, list[HourStats]]
    steady_hit: float  # of the largest list: sets the exposure and latency inputs
    vote_fraction: float
    exposure: dict[str, list[tuple[float, float]]]
    latency: dict[str, tuple[float, float]]  # mode -> (analytic, sampled) ms
    bandwidth: BandwidthReport
    listsize: list[tuple[int, int, int]]  # (records, raw bytes, compressed bytes)


def write_figure_batch(
    out_dir: str | Path,
    universe: SyntheticUniverse,
    trace_cfg: ZipfGeneratorConfig,
    n_values: Sequence[int],
    *,
    max_votes: int,
    seed: int,
) -> FigureBatch:
    """Run the experiments behind the paper's figures and write their six
    CSVs and manifest.json to `out_dir`.  Bandwidth runs on its own fixed
    2000-record universe."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = generate_trace(trace_cfg, universe)
    base = HitRatioConfig(
        n_values[0],
        max_votes_per_round=max_votes,
        fast_start_hours=trace_cfg.hours,
        seed=seed,
    )
    series = sweep_hit_ratio(trace, universe, n_values, base)
    write_hit_ratio_csv(series, out_dir / "hit_ratio.csv")

    top = series[max(n_values)]
    _write_csv(
        out_dir / "voter_participation.csv",
        ["hour", "queries", "votes", "vote_fraction"],
        (
            [r.hour, r.queries, r.votes, f"{r.votes / max(1, r.queries):.6f}"]
            for r in top
        ),
    )
    steady_hit = steady_hit_ratio(top)
    tail = top[-STEADY_HOURS:]
    vote_frac = sum(r.votes for r in tail) / max(1, sum(r.queries for r in tail))
    fractions = {"miss_fraction": 1.0 - steady_hit, "vote_fraction": vote_frac}
    curves = {
        mode: exposure_curve(mode_exposure_params(mode, **fractions), COLLUSION_GRID)
        for mode in sorted(FALLBACK_RELAY_HOPS)
    }
    write_exposure_csv(curves, out_dir / "exposure.csv")

    latency = {
        mode: (
            analytic_latency_ms(steady_hit, mode),
            run_latency([steady_hit], mode, seed=seed)[0].mean_ms,
        )
        for mode in sorted(DEFAULT_LATENCY_MS)
        if mode not in ("local_hit", "local_miss")
    }
    _write_csv(
        out_dir / "latency.csv",
        ["mode", "hit_ratio", "analytic_ms", "sampled_ms"],
        (
            [mode, f"{steady_hit:.6f}", f"{analytic:.3f}", f"{sampled:.3f}"]
            for mode, (analytic, sampled) in latency.items()
        ),
    )

    bw_universe = UniverseConfig(2000, seed=seed, lb_fraction=0.35, cname_fraction=0.05)
    bw_config = BandwidthConfig(hours=3, clients=2, n_popular=2000, seed=seed)
    report = run_bandwidth(SyntheticUniverse(bw_universe), bw_config)
    write_bandwidth_csv(report, out_dir / "bandwidth.csv")

    listsize = []
    for n in n_values:
        plist = build_list(universe.record_defs(n))
        raw, packed = serialize(plist), serialize(plist, compress=True)
        listsize.append((n, len(raw), len(packed)))
    _write_csv(
        out_dir / "listsize.csv",
        ["n_records", "raw_bytes", "compressed_bytes", "ratio"],
        ([n, raw, packed, f"{packed / raw:.6f}"] for n, raw, packed in listsize),
    )

    write_manifest(
        out_dir / "manifest.json",
        trace_cfg,
        seed,
        universe=dataclasses.asdict(universe.config),
        bandwidth_universe=dataclasses.asdict(bw_universe),
        bandwidth_config=dataclasses.asdict(bw_config),
        n_values=n_values,
        max_votes=max_votes,
        steady_hit=steady_hit,
        **fractions,
    )
    return FigureBatch(
        trace, series, steady_hit, vote_frac, curves, latency, report, listsize
    )
