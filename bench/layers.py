"""The per-layer view of a traced run: which public functions are
wrapped, and how their spans become the per-layer metrics.

Layers are modules of `lluad`.  `traces` (it only builds inputs),
`simharness`, `cli` and `config` lie on no measured path.

Units: `.calls` and the counts and byte totals are per workload
operation (a stub query, a virtual hour, a vote round); `.us`, `.ms`
and `.s` after a function name are the mean time of one call;
`.self_s` is self time per workload operation.
"""

from __future__ import annotations

from tracing import SpanStats, Tracer


def install(tracer: Tracer) -> None:
    """Wrap every layer function where its callers look it up."""
    from lluad import client, curve, maintenance, mixcrypto, mixnet, poplist, server, wire

    w = tracer.wrap
    # curve: mixcrypto imported `mult` by name; mult_base calls curve.mult
    w(curve, "mult", "curve.mult")
    w(mixcrypto, "mult", "curve.mult")
    # mixcrypto
    w(mixnet, "transform_packet", "mixcrypto.transform_packet")
    w(mixcrypto.PathPlanBuilder, "add_hop", "mixcrypto.add_hop")
    # mixnet
    w(mixnet, "client_submit", "mixnet.client_submit")
    w(mixnet.RoundServer, "run_round", "mixnet.run_round")
    w(mixnet.LocalTransport, "exchange", "mixnet.exchange")
    w(mixnet, "verify_round_acks", "mixnet.verify_round_acks")
    # poplist
    w(client, "lookup", "poplist.lookup")
    w(maintenance, "build_list", "poplist.build_list")
    w(poplist, "build_list", "poplist.build_list")
    w(maintenance, "apply_membership_update", "poplist.apply_membership_update")
    w(maintenance, "apply_lb_update", "poplist.apply_lb_update")
    w(wire, "serialize", "poplist.serialize")
    w(wire, "deserialize", "poplist.deserialize")
    # maintenance
    w(maintenance.Maintainer, "run_refresh", "maintenance.run_refresh")
    w(maintenance.ScoreBoard, "top", "maintenance.top")
    w(maintenance.Maintainer, "run_ttl", "maintenance.run_ttl")
    w(maintenance.Maintainer, "flush_lb_updates", "maintenance.flush_lb_updates")
    # wire
    w(wire, "encode_membership_update", "wire.encode_membership_update", "wire.membership_update.bytes")
    w(wire, "decode_membership_update", "wire.decode_membership_update")
    w(wire, "encode_lb_update", "wire.encode_lb_update", "wire.lb_update.bytes")
    w(wire, "encode_list_snapshot", "wire.encode_list_snapshot", "snapshot.bytes")
    w(wire, "decode_list_snapshot", "wire.decode_list_snapshot")
    # dnsmsg, as the client module calls it
    w(client, "parse_query", "dnsmsg.parse_query")
    w(client, "build_response", "dnsmsg.build_response")
    # client
    w(client.LluadClient, "resolve", "client.resolve")
    w(client.SimulatedFallback, "forward", "client.fallback")
    w(client, "apply_update", "client.apply_update")
    # server
    w(server.LluadServer, "trigger_ttl", "server.trigger_ttl")
    w(server.LluadServer, "trigger_refresh", "server.trigger_refresh")


_US, _MS, _S = 1e6, 1e3, 1.0

# (metric, span name, kind, unit, scale); kinds: calls, mean, self, counter
_SPAN_METRICS = [
    ("curve.mult.calls", "curve.mult", "calls", "count", 1),
    ("curve.mult.us", "curve.mult", "mean", "us", _US),
    ("curve.mult.self_s", "curve.mult", "self", "s", _S),
    ("mixcrypto.transform_packet.calls", "mixcrypto.transform_packet", "calls", "count", 1),
    ("mixcrypto.transform_packet.us", "mixcrypto.transform_packet", "mean", "us", _US),
    ("mixcrypto.add_hop.us", "mixcrypto.add_hop", "mean", "us", _US),
    ("mixnet.client_submit.ms", "mixnet.client_submit", "mean", "ms", _MS),
    ("mixnet.run_round.self_s", "mixnet.run_round", "self", "s", _S),
    ("mixnet.exchange.s", "mixnet.exchange", "mean", "s", _S),
    ("mixnet.verify_round_acks.ms", "mixnet.verify_round_acks", "mean", "ms", _MS),
    ("mixnet.packets_relayed", "mixnet.packets_relayed", "counter", "count", 1),
    ("mixnet.cover_acks", "mixnet.cover_acks", "counter", "count", 1),
    ("poplist.lookup.calls", "poplist.lookup", "calls", "count", 1),
    ("poplist.lookup.us", "poplist.lookup", "mean", "us", _US),
    ("poplist.build_list.calls", "poplist.build_list", "calls", "count", 1),
    ("poplist.build_list.s", "poplist.build_list", "mean", "s", _S),
    ("poplist.apply_membership_update.calls", "poplist.apply_membership_update", "calls", "count", 1),
    ("poplist.apply_membership_update.s", "poplist.apply_membership_update", "mean", "s", _S),
    ("poplist.apply_lb_update.calls", "poplist.apply_lb_update", "calls", "count", 1),
    ("poplist.apply_lb_update.us", "poplist.apply_lb_update", "mean", "us", _US),
    ("poplist.serialize.s", "poplist.serialize", "mean", "s", _S),
    ("poplist.deserialize.s", "poplist.deserialize", "mean", "s", _S),
    ("maintenance.run_refresh.s", "maintenance.run_refresh", "mean", "s", _S),
    ("maintenance.top.s", "maintenance.top", "mean", "s", _S),
    ("maintenance.run_ttl.ms", "maintenance.run_ttl", "mean", "ms", _MS),
    ("maintenance.flush_lb_updates.ms", "maintenance.flush_lb_updates", "mean", "ms", _MS),
    ("maintenance.upstream.calls", "maintenance.upstream", "counter", "count", 1),
    ("wire.encode_membership_update.ms", "wire.encode_membership_update", "mean", "ms", _MS),
    ("wire.decode_membership_update.ms", "wire.decode_membership_update", "mean", "ms", _MS),
    ("wire.encode_list_snapshot.s", "wire.encode_list_snapshot", "mean", "s", _S),
    ("wire.decode_list_snapshot.s", "wire.decode_list_snapshot", "mean", "s", _S),
    ("wire.membership_update.bytes", "wire.membership_update.bytes", "counter", "B", 1),
    ("wire.lb_update.bytes", "wire.lb_update.bytes", "counter", "B", 1),
    ("dnsmsg.parse_query.us", "dnsmsg.parse_query", "mean", "us", _US),
    ("dnsmsg.build_response.us", "dnsmsg.build_response", "mean", "us", _US),
    ("client.resolve.us", "client.resolve", "mean", "us", _US),
    ("client.fallback.us", "client.fallback", "mean", "us", _US),
    ("client.apply_update.ms", "client.apply_update", "mean", "ms", _MS),
    ("client.hits", "client.hits", "counter", "count", 1),
    ("client.misses", "client.misses", "counter", "count", 1),
    ("server.trigger_ttl.ms", "server.trigger_ttl", "mean", "ms", _MS),
    ("server.trigger_refresh.s", "server.trigger_refresh", "mean", "s", _S),
    ("server.propagation.ms", "server.propagation", "mean", "ms", _MS),
]

# every per-layer metric a traced run prints, with its unit
PER_LAYER = [(name, unit) for name, _, _, unit, _ in _SPAN_METRICS] + [
    ("poplist.snapshot_bytes", "B"),
    ("client.wait.us", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
]


def window_counters(tracer: Tracer, base: dict, own: dict) -> dict:
    """The tracer's counters since `base` was copied, plus the
    workload's own counts for the window."""
    out = {k: v - base.get(k, 0.0) for k, v in tracer.counters.items()}
    out.update(own)
    return out


def per_layer(
    tracer: Tracer,
    since_ns: int,
    counters: dict,
    ops: int,
    wall_s: float,
    span_cost_s: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run.

    Counts are taken over the measured window (spans that started at
    or after `since_ns`, and `counters` gathered in it); a mean time
    comes from the window when the function ran there and from the
    whole run otherwise, so a function that only ran during set-up
    (the first snapshot, say) still shows its cost.
    """
    window = tracer.stats(since_ns)
    whole = tracer.stats(0)
    empty = SpanStats()
    ops = max(ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for metric, span, kind, unit, scale in _SPAN_METRICS:
        st = window.get(span, empty)
        if kind == "calls":
            value = st.calls / ops
        elif kind == "self":
            value = st.self_s / ops
        elif kind == "counter":
            value = counters.get(span, 0.0) / ops
        else:
            value = (st if st.calls else whole.get(span, empty)).mean(scale)
        out[metric] = (value, unit)
    snap = whole.get("wire.encode_list_snapshot", empty)
    out["poplist.snapshot_bytes"] = (
        tracer.counters.get("snapshot.bytes", 0.0) / snap.calls if snap.calls else 0.0,
        "B",
    )
    # the same queries through the UDP stub and straight to its handler
    udp = window.get("stub.udp", empty)
    direct = window.get("stub.direct", empty)
    out["client.wait.us"] = (
        udp.mean(_US) - direct.mean(_US) if udp.calls and direct.calls else 0.0,
        "us",
    )
    spans = sum(st.calls for st in window.values())
    out["trace.spans"] = (spans / ops, "count")
    out["trace.overhead_pct"] = (100.0 * spans * span_cost_s / max(wall_s, 1e-9), "%")
    return out
