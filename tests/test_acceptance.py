"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line with the measured values.

The trace-driven criteria run against desk-scale synthetic Zipf traces.
Field-trace calibration targets are printed alongside for context but
never asserted; the capture they came from is not redistributable, so
those criteria check analytic masses and trends instead.
"""

import json
import random
import time
from collections import Counter

import pytest

from conftest import random_defs
from lluad.curve import encode_element, mult_base, random_scalar
from lluad.dnsmsg import DomainName, RecordKey, RecordType
from lluad.maintenance import (
    Maintainer,
    MaintenanceConfig,
    PopularityScore,
    apply_update,
    update_score,
)
from lluad.mixcrypto import build_path_plan, derive_shared
from lluad.mixnet import (
    PACKET_LEN,
    AckOutcome,
    LocalTransport,
    MixPacket,
    RoundContext,
    RoundServer,
    ShufflerNode,
    client_submit,
    encode_vote_payload,
    plan_vote_packet,
    verify_round_acks,
)
from lluad.poplist import build_list, deserialize, serialize
from lluad.simharness import (
    BandwidthConfig,
    HitRatioConfig,
    exposure_curve,
    exposure_rate,
    fit_overlap,
    mode_exposure_params,
    run_bandwidth,
    run_hit_ratio,
    sweep_hit_ratio,
    write_manifest,
)
from lluad.traces import (
    SyntheticUniverse,
    UniverseConfig,
    ZipfGeneratorConfig,
    generate_trace,
)
from lluad.wire import (
    FRAME_HEADER_LEN,
    LB_ENTRY_LEN,
    decode_lb_update,
    decode_list_snapshot,
    decode_membership_update,
    encode_lb_update,
    encode_list_snapshot,
    encode_membership_update,
)
from lluad.maintenance import LbUpdate, MembershipUpdate


_PENDING_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _emit_criterion_lines(capfd):
    """Print each criterion's verdict past pytest's capture, pass or fail."""
    yield
    with capfd.disabled():
        while _PENDING_LINES:
            print(_PENDING_LINES.pop(0), flush=True)


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _PENDING_LINES.append(f"ACCEPTANCE {criterion:2d} {verdict}: {detail}")
    assert passed, detail


def key(text: str, rtype=RecordType.A) -> RecordKey:
    return RecordKey(DomainName.from_text(text), rtype)


def harmonic(n: int) -> float:
    total = 0.0
    for k in range(1, n + 1):
        total += 1.0 / k
    return total


class MixCluster:
    """All shufflers plus the terminal tally server, in one process."""

    def __init__(self, n_shufflers, n_shuffle, quota, seed, t=4242):
        self.rng = random.Random(("cluster", seed).__repr__())
        self.privs, self.pubs = {}, {}
        for j in range(n_shufflers):
            priv = random_scalar(self.rng)
            self.privs[j] = priv
            self.pubs[j] = encode_element(mult_base(priv))
        self.server_priv = random_scalar(self.rng)
        self.server_pub = encode_element(mult_base(self.server_priv))
        self.nodes = {
            j: ShufflerNode(j, self.privs[j], random.Random(("node", seed, j).__repr__()))
            for j in range(n_shufflers)
        }
        self.transport = LocalTransport(self.nodes)
        self.server = RoundServer(self.server_priv, quota, self.transport)
        self.ctx = RoundContext.for_online(t, range(n_shufflers), n_shufflers, n_shuffle)
        self.quota = quota

    def submit(self, client_votes):
        sent, batches = {}, {}
        for client, votes in client_votes.items():
            planned = client_submit(
                votes, self.ctx, self.quota, self.pubs, self.server_pub, self.rng
            )
            sent[client] = planned
            batches[client] = [v.packet for v in planned]
        return sent, batches


class ConstantSizeTransport:
    """Counts every relayed packet and every size violation."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = 0
        self.violations = 0

    def _audit(self, batches):
        for batch in batches.values():
            for pkt in batch:
                self.seen += 1
                if len(pkt.to_bytes()) != PACKET_LEN:
                    self.violations += 1

    def exchange(self, assignments, phase, hop, t_timestamp):
        self._audit(assignments)
        out = self.inner.exchange(assignments, phase, hop, t_timestamp)
        self._audit(out)
        return out


def test_criterion_01_mixnet_end_to_end():
    started = time.monotonic()
    cluster = MixCluster(n_shufflers=30, n_shuffle=10, quota=10, seed=1001)
    cluster.server.transport = ConstantSizeTransport(cluster.transport)
    votes = {
        f"c{i}": [key(f"q{i}-{v}.example") for v in range(random.Random(i).randrange(0, 11))]
        for i in range(50)
    }
    sent, batches = cluster.submit(votes)
    result = cluster.server.run_round(cluster.ctx, batches)
    payloads = sum(result.accepted.values())
    verified = 0
    false_reports = 0
    for client, planned in sent.items():
        outcomes, reports = verify_round_acks(planned, result.acks[client])
        verified += outcomes.count(AckOutcome.VERIFIED)
        false_reports += len(reports)
    elapsed = time.monotonic() - started
    transport = cluster.server.transport
    report(
        1,
        payloads == 500
        and verified == 500
        and false_reports == 0
        and transport.violations == 0
        and elapsed < 30.0,
        f"50 clients / quota 10 / 10 hops / 30 shufflers: {payloads}/500 payloads, "
        f"{verified}/500 acks verified, {transport.seen} packets all "
        f"{PACKET_LEN} B, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_sender_and_node_secrets_agree():
    rng = random.Random(1002)
    paths = 1000
    hops_checked = 0
    disagreements = 0
    for _ in range(paths):
        length = rng.randrange(1, 13)
        relays = []
        for j in range(length):
            priv = random_scalar(rng)
            relays.append((priv, encode_element(mult_base(priv))))
        terminal_priv = random_scalar(rng)
        plan = build_path_plan(
            [(j, pub) for j, (_, pub) in enumerate(relays)],
            encode_element(mult_base(terminal_priv)),
            t_timestamp=rng.randrange(1, 2**48),
            rng=rng,
        )
        node_privs = [priv for priv, _ in relays] + [terminal_priv]
        for hop, node_priv in zip(plan.hops, node_privs, strict=True):
            hops_checked += 1
            if derive_shared(hop.key_element, node_priv) != hop.sym_key:
                disagreements += 1
    report(
        2,
        disagreements == 0,
        f"{paths} random paths (length 1-12), {hops_checked} hops: "
        f"{disagreements} sender/node key disagreements",
    )


def test_criterion_03_streaming_score_matches_closed_form():
    rng = random.Random(1003)
    streams = 10_000
    worst = 0.0
    for _ in range(streams):
        a = rng.choice((0.05, 0.1, 0.25, 0.5, 0.9))
        rounds = []
        r = 0
        for _ in range(rng.randrange(1, 25)):
            r += rng.randrange(1, 4)  # skipped rounds must decay identically
            rounds.append((r, rng.randrange(0, 40)))
        score = PopularityScore(key("stream.example"), 0.0, 0)
        for r, occ in rounds:
            score = update_score(score, occ, r, weight_a=a)
        last = rounds[-1][0]
        expect = 0.0
        for r, occ in rounds:
            expect += a * occ * (1.0 - a) ** (last - r)
        err = abs(score.weighted - expect) / expect if expect else abs(score.weighted)
        worst = max(worst, err)
    report(
        3,
        worst <= 1e-9,
        f"streaming score vs geometric closed form over {streams} streams: "
        f"worst relative error {worst:.2e} (<= 1e-9)",
    )


def test_criterion_04_hit_ratio_matches_analytic_zipf_mass():
    size = 100_000
    universe = SyntheticUniverse(
        UniverseConfig(size, seed=7, lb_fraction=0.02, cname_fraction=0.05)
    )
    trace = generate_trace(
        ZipfGeneratorConfig(
            universe=size,
            exponent=1.0,
            clients=1500,
            queries_per_client_hour=40,
            hours=18,
            seed=7,
        ),
        universe,
    )
    base = HitRatioConfig(
        n_popular=100, max_votes_per_round=40, fast_start_hours=18, seed=7
    )
    series = sweep_hit_ratio(trace, universe, [100, 1000, 10_000], base)

    h_total = harmonic(size)
    field_context = {100: 39.2, 1000: 72.6, 10_000: 91.4}
    steady = {}
    parts = []
    within = True
    for n in (100, 1000, 10_000):
        mass = harmonic(n) / h_total
        rows = series[n][-3:]
        steady[n] = sum(r.hit_ratio for r in rows) / len(rows)
        delta = abs(steady[n] - mass) * 100
        within = within and delta <= 2.0
        parts.append(
            f"N={n}: {steady[n] * 100:.1f}% vs analytic {mass * 100:.1f}% "
            f"(d={delta:.2f}pp, field context {field_context[n]}%)"
        )
    monotone = steady[100] < steady[1000] < steady[10_000]
    report(4, within and monotone, "; ".join(parts) + f"; monotone={monotone}")


def test_criterion_05_vote_stoppage_stays_within_5pp(tmp_path):
    size = 30_000
    universe = SyntheticUniverse(
        UniverseConfig(size, seed=11, lb_fraction=0.02, cname_fraction=0.05)
    )
    trace_cfg = ZipfGeneratorConfig(
        universe=size,
        exponent=1.0,
        clients=40,
        queries_per_client_hour=50,
        hours=144,  # one warmup day plus five frozen days
        churn_rate=0.005,
        seed=11,
    )
    trace = generate_trace(trace_cfg, universe)
    base = dict(n_popular=3000, max_votes_per_round=50, fast_start_hours=24, seed=11)
    active = run_hit_ratio(trace, universe, HitRatioConfig(**base))
    frozen = run_hit_ratio(
        trace, universe, HitRatioConfig(**base, freeze_votes_after=24)
    )
    steady_active = sum(r.hit_ratio for r in active[-3:]) / 3
    steady_frozen = sum(r.hit_ratio for r in frozen[-3:]) / 3
    drop = (steady_active - steady_frozen) * 100

    manifest = write_manifest(
        tmp_path / "manifest.json",
        trace_cfg,
        seed=11,
        n_popular=3000,
        freeze_votes_after_hour=24,
        steady_active=steady_active,
        steady_frozen=steady_frozen,
    )
    assert manifest["config"]["churn_rate"] == 0.005
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["churn_rate"] == 0.005
    report(
        5,
        drop <= 5.0,
        f"votes frozen after hour 24: steady hit {steady_frozen * 100:.2f}% vs "
        f"{steady_active * 100:.2f}% active, drop {drop:+.2f}pp over 5 days "
        f"(churn 0.005/day, in manifest)",
    )


def test_criterion_06_lb_update_wire_cost():
    started = time.monotonic()
    universe = SyntheticUniverse(
        UniverseConfig(2000, seed=5, lb_fraction=0.45, cname_fraction=0.02)
    )
    result = run_bandwidth(
        universe, BandwidthConfig(hours=2, clients=1, n_popular=2000, seed=5)
    )
    lb_bytes = result.total("lb_update_bytes")
    entries = result.total("lb_entries")
    flushes = result.total("lb_flushes")
    baseline = result.total("baseline_lb_bytes")
    elapsed = time.monotonic() - started

    expected = flushes * (FRAME_HEADER_LEN + 2) + LB_ENTRY_LEN * entries
    reduction = 1.0 - lb_bytes / baseline
    report(
        6,
        lb_bytes == expected and reduction >= 0.90 and elapsed < 60.0,
        f"{entries} pointer entries in {flushes} batches = {lb_bytes} B "
        f"(exactly {LB_ENTRY_LEN} B/entry + framing: {lb_bytes == expected}); "
        f"{reduction * 100:.1f}% below {baseline} B full-tuple baseline "
        f"(>= 90%); {elapsed:.1f}s (< 60s)",
    )


def test_criterion_07_serialization_round_trip_and_size():
    rng = random.Random(1007)
    round_trips = 1000
    mismatches = 0
    for i in range(round_trips):
        defs = random_defs(
            rng,
            n_plain=rng.randrange(1, 30),
            n_lb=rng.randrange(0, 8),
            n_cname=rng.randrange(0, 8),
        )
        plist = build_list(defs, generation=rng.randrange(2**32))
        blob = serialize(plist, compress=bool(i % 2))
        twin = deserialize(blob, generation=plist.generation)
        if not (plist.same_structure(twin) and serialize(twin) == serialize(plist)):
            mismatches += 1

    universe = SyntheticUniverse(
        UniverseConfig(30_000, seed=7, lb_fraction=0.02, cname_fraction=0.05)
    )
    p10 = build_list(universe.record_defs(10_000))
    p25 = build_list(universe.record_defs(25_000))
    raw10 = len(serialize(p10))
    comp10 = len(serialize(p10, compress=True))
    raw25 = len(serialize(p25))
    compression = comp10 / raw10
    growth = raw25 / raw10
    report(
        7,
        mismatches == 0 and compression <= 0.60 and growth <= 1.75,
        f"{round_trips} randomized lists round-tripped, {mismatches} mismatches; "
        f"10^4-record list compresses to {compression * 100:.1f}% (<= 60%); "
        f"25k/10k size ratio {growth:.3f} (<= 1.75)",
    )


def test_criterion_08_exposure_model_anchors():
    m, v = 0.056, 0.157
    relayed = mode_exposure_params("dohot", miss_fraction=m, vote_fraction=v)

    # closed form at full collusion, overlap zero then fitted
    plain_sum = exposure_rate(
        mode_exposure_params("dohot", miss_fraction=m, vote_fraction=v, collusion=1.0)
    )
    overlap = fit_overlap(m, v, 0.205)
    fitted_rate = exposure_rate(
        mode_exposure_params(
            "dohot", miss_fraction=m, vote_fraction=v, collusion=1.0, overlap=overlap
        )
    )

    doh_alone = mode_exposure_params("doh", miss_fraction=1.0, vote_fraction=0.0)
    doh_curve = exposure_curve(doh_alone, [i / 10 for i in range(11)])
    doh_constant = all(rate == 1.0 for _, rate in doh_curve)

    grid = [i / 20 for i in range(21)]
    monotone = True
    for mode in ("plain", "doh", "dnscrypt", "anon-dnscrypt", "dohot", "simulated"):
        curve = exposure_curve(
            mode_exposure_params(
                mode, miss_fraction=m, vote_fraction=v, overlap=overlap
            ),
            grid,
        )
        rates = [rate for _, rate in curve]
        monotone = monotone and all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    report(
        8,
        plain_sum == pytest.approx(m + v, abs=1e-12)
        and abs(fitted_rate - 0.205) <= 0.01
        and doh_constant
        and monotone,
        f"c=1 closed form {plain_sum:.4f} = m+v; fitted overlap {overlap:.4f} "
        f"gives {fitted_rate:.4f} (0.205 +/- 0.01); resolver-only curve "
        f"constant 1.0: {doh_constant}; all 6 mode curves monotone: {monotone}",
    )


def test_criterion_09_quota_caps_adversarial_clients():
    cluster = MixCluster(n_shufflers=8, n_shuffle=3, quota=10, seed=1009)
    honest_votes = {
        "h1": [key("a.example"), key("b.example")],
        "h2": [key("b.example")],
        "h3": [],
    }
    sent, batches = cluster.submit(honest_votes)
    greedy_keys = [key(f"greedy{i}.example") for i in range(50)]
    batches["greedy"] = [
        plan_vote_packet(
            encode_vote_payload(k),
            cluster.ctx,
            cluster.pubs,
            cluster.server_pub,
            cluster.rng,
        ).packet
        for k in greedy_keys
    ]
    result = cluster.server.run_round(cluster.ctx, batches)

    greedy_tallied = sum(result.tally[k] for k in greedy_keys)
    honest_ok = (
        result.tally[key("a.example")] == 1 and result.tally[key("b.example")] == 2
    )
    conserved = sum(result.accepted.values()) == (
        sum(result.tally.values()) + result.dummy_count + result.undecodable
    )
    all_honest_acked = all(
        verify_round_acks(planned, result.acks[c])[0] == [AckOutcome.VERIFIED] * 10
        for c, planned in sent.items()
    )
    report(
        9,
        result.accepted["greedy"] <= 10
        and greedy_tallied <= 10
        and honest_ok
        and conserved
        and all_honest_acked,
        f"adversary sent 50 packets, {result.accepted['greedy']} accepted / "
        f"{greedy_tallied} tallied (quota 10); honest tallies intact, "
        f"conservation holds, honest acks all verified",
    )


class PayloadReplacer(ShufflerNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_batch(self, batch, t_timestamp):
        out = super().process_batch(batch, t_timestamp)
        if self.armed and out:
            self.armed = False
            victim = out[0]
            out[0] = MixPacket(
                victim.p, victim.h, bytes([victim.d[0] ^ 0xFF]) + victim.d[1:]
            )
        return out


class PacketDropper(ShufflerNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_batch(self, batch, t_timestamp):
        out = super().process_batch(batch, t_timestamp)
        if self.armed and out:
            self.armed = False
            out.pop(0)
        return out


class AckDropper(ShufflerNode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.armed = True

    def process_acks(self, acks, t_timestamp):
        acks = list(acks)
        if self.armed and acks:
            self.armed = False
            acks.pop(0)
        return super().process_acks(acks, t_timestamp)


def test_criterion_10_fault_injection_flags_exactly_victims():
    fault_kinds = (PayloadReplacer, PacketDropper, AckDropper)
    fault_rounds = 100
    honest_rounds = 20
    picker = random.Random(1010)

    missed_flags = 0
    false_flags = 0
    fired = 0
    for i in range(fault_rounds + honest_rounds):
        cluster = MixCluster(n_shufflers=5, n_shuffle=2, quota=2, seed=3000 + i)
        injected = i < fault_rounds
        evil = None
        if injected:
            node_cls = fault_kinds[i % len(fault_kinds)]
            j = picker.randrange(5)  # fault lands wherever routing sends it
            evil = node_cls(j, cluster.privs[j], random.Random(("evil", i).__repr__()))
            cluster.nodes[j] = evil
            cluster.transport.nodes[j] = evil
        votes = {f"c{k}": [key(f"r{i}-{k}.example")] for k in range(6)}
        sent, batches = cluster.submit(votes)
        result = cluster.server.run_round(cluster.ctx, batches)

        flagged = 0
        for client, planned in sent.items():
            outcomes, reports = verify_round_acks(
                planned, result.acks.get(client, [])
            )
            if reports or set(outcomes) != {AckOutcome.VERIFIED}:
                flagged += 1
        if injected and not evil.armed:
            # the fault actually fired on some flow
            fired += 1
            if flagged == 0:
                missed_flags += 1
            false_flags += max(0, flagged - 1)
        else:
            false_flags += flagged
    report(
        10,
        missed_flags == 0 and false_flags == 0 and fired >= 90,
        f"{fired}/{fault_rounds} injected faults fired (replace/drop/ack-drop "
        f"at routed hops): {missed_flags} unflagged, {false_flags} false flags "
        f"across {fault_rounds + honest_rounds} rounds",
    )


def test_criterion_11_update_stream_converges_to_snapshot():
    universe = SyntheticUniverse(
        UniverseConfig(4000, seed=13, lb_fraction=0.2, cname_fraction=0.1)
    )
    now = [0.0]
    maintainer = Maintainer(
        MaintenanceConfig(n_popular=600, t_refresh=3600),
        universe.upstream(clock=lambda: now[0]),
        rng=random.Random(("maint", 13).__repr__()),
    )
    rng = random.Random(1011)
    # seed round, then the client joins from a snapshot
    maintainer.ingest_votes(
        universe.keys[r] for r in range(800) for _ in range(800 - r)
    )
    maintainer.run_refresh(now[0])
    follower = decode_list_snapshot(encode_list_snapshot(maintainer.plist))

    def deliver(message):
        # every update crosses the wire codec, as it would in production
        if isinstance(message, LbUpdate):
            wired = decode_lb_update(encode_lb_update(message))
        elif isinstance(message, MembershipUpdate):
            wired = decode_membership_update(encode_membership_update(message))
        else:
            raise AssertionError(f"unexpected update type {type(message)!r}")
        return apply_update(plist=follower, message=wired)

    delivered = 0
    while delivered < 1000:
        for _ in range(6):
            now[0] += 600.0
            for message in maintainer.run_ttl(now[0]):
                follower = deliver(message)
                delivered += 1
            flush = maintainer.flush_lb_updates(now[0])
            if flush is not None:
                follower = deliver(flush)
                delivered += 1
        votes = Counter()
        for _ in range(3000):
            rank = int(len(universe.keys) * rng.random() ** 3)
            votes[universe.keys[rank]] += 1
        maintainer.ingest_votes(k for k, c in votes.items() for _ in range(c))
        for message in maintainer.run_refresh(now[0]):
            follower = deliver(message)
            delivered += 1

    reconnecting = decode_list_snapshot(encode_list_snapshot(maintainer.plist))
    follower_matches = follower.same_structure(
        maintainer.plist
    ) and serialize(follower) == serialize(maintainer.plist)
    reconnect_matches = reconnecting.same_structure(follower) and serialize(
        reconnecting
    ) == serialize(follower)
    report(
        11,
        follower_matches and reconnect_matches,
        f"{delivered} mixed updates applied through wire codecs: incremental "
        f"follower identical to authoritative list ({follower_matches}) and to "
        f"a reconnecting client's snapshot ({reconnect_matches})",
    )
