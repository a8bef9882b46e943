"""Operator command line.

Subcommands: `server` and `client` run the two daemons, `sim` runs the
trace-driven experiments, `trace gen` writes synthetic query traces,
`list inspect` pretty-prints a serialized list, `plotdata` emits a batch
of figure-ready CSVs, and `keygen` mints a curve keypair for registry
files.  A `--config` file supplies defaults for the subcommand's flags:
flags beat the file, the file beats built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import socket
import sys
import time
from pathlib import Path
from random import Random

from . import wire
from .client import (
    DEFAULT_DNS_PORT,
    DohFallback,
    LluadClient,
    PlainUdpFallback,
)
from .config import ConfigError, load_config, parse_hostport
from .curve import encode_element, mult_base, random_scalar
from .dnsmsg import RecordType
from .maintenance import Maintainer, MaintenanceConfig, PlainUdpUpstream
from .poplist import (
    MAGIC,
    PopularityList,
    RecordDef,
    deserialize,
    record_count,
    wire_nodes,
)
from .server import ClientRegistry, LluadServer
from .simharness import (
    COLLUSION_GRID,
    FALLBACK_RELAY_HOPS,
    STEADY_HOURS,
    BandwidthConfig,
    HitRatioConfig,
    exposure_curve,
    fit_overlap,
    mode_exposure_params,
    run_bandwidth,
    run_latency,
    steady_hit_ratio,
    sweep_hit_ratio,
    write_bandwidth_csv,
    write_exposure_csv,
    write_figure_batch,
    write_hit_ratio_csv,
    write_latency_csv,
)
from .traces import (
    SyntheticUniverse,
    UniverseConfig,
    ZipfGeneratorConfig,
    generate_trace,
    load_trace_csv,
    write_trace_csv,
)
from .wire import decode_list_snapshot

SERVER_PORT = 5853
# flags a config file cannot set: they name one run's inputs and outputs
FLAG_ONLY = frozenset({"config", "out", "trace", "from_csv", "csv_n_popular"})


class UsageError(Exception):
    """Bad flag combination or missing required value."""


def _ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _words(text: str) -> list[str]:
    return text.split(",")


def _given(**values) -> dict:
    """The values a flag or the config file set; the rest keep the
    defaults of the constructor they are passed to."""
    return {key: value for key, value in values.items() if value is not None}


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing {flag}")
    return value


# -- key material ---------------------------------------------------------------


def _cmd_keygen(args) -> int:
    rng = Random(("keygen", args.seed).__repr__()) if args.seed is not None else None
    priv = random_scalar(rng)
    pub = encode_element(mult_base(priv))
    line = f"{priv:064x} {pub.hex()}\n"
    if args.out:
        Path(args.out).write_text(line, encoding="utf-8")
    else:
        sys.stdout.write(line)
    return 0


# -- daemons ----------------------------------------------------------------------


def _universe(args) -> SyntheticUniverse:
    return SyntheticUniverse(
        UniverseConfig(
            args.universe,
            seed=args.seed,
            lb_fraction=args.lb_fraction,
            cname_fraction=args.cname_fraction,
        )
    )


def _cmd_server(args) -> int:
    registry = ClientRegistry.load(_require(args.registry, "--registry"))
    server_priv = int(_require(args.key, "--key"), 16)

    if (args.upstream is None) == (args.universe is None):
        raise UsageError("pick exactly one of --upstream and --universe")
    universe = None
    if args.upstream is not None:
        upstream = PlainUdpUpstream(parse_hostport(args.upstream, 53))
    else:
        universe = _universe(args)
        upstream = universe.upstream(clock=time.time)

    maintenance = MaintenanceConfig(
        **_given(
            n_popular=args.n_popular, t_refresh=args.t_refresh, min_ttl=args.min_ttl
        )
    )
    maintainer = Maintainer(
        maintenance, upstream, rng=Random(("server", args.seed).__repr__())
    )
    if args.prepopulate:
        if universe is None:
            raise UsageError("--prepopulate only works with --universe")
        maintainer.ingest_votes(universe.keys[: maintenance.n_popular])
        maintainer.run_refresh(time.time())

    server = LluadServer(
        registry,
        maintainer,
        server_priv,
        port=args.port,
        **_given(
            host=args.host,
            quota=args.quota,
            n_shuffle=args.n_shuffle,
            straggler_timeout=args.straggler_timeout,
        ),
    )
    server.start()
    host, port = server.address
    print(f"listening on {host}:{port}, {len(registry.entries)} registered", flush=True)
    try:
        server.run_forever(maintainer.cfg.t_refresh)
    finally:
        server.stop()
    return 0


def _cmd_client(args) -> int:
    registry = ClientRegistry.load(_require(args.registry, "--registry"))
    server_pub = bytes.fromhex(_require(args.server_pub, "--server-pub"))
    server_addr = parse_hostport(_require(args.server, "--server"), SERVER_PORT)

    fallback = None
    if args.fallback == "plain":
        endpoint = _require(args.fallback_endpoint, "--fallback-endpoint")
        fallback = PlainUdpFallback(parse_hostport(endpoint, 53))
    elif args.fallback == "doh":
        fallback = DohFallback(_require(args.fallback_url, "--fallback-url"))
    elif args.fallback is not None:
        raise UsageError(f"no live transport for fallback mode {args.fallback!r}")

    client_id = _require(args.id, "--id")
    client = LluadClient(
        client_id,
        _require(args.token, "--token"),
        server_addr,
        shuffler_pubs=registry.shuffler_pubs(),
        server_pub=server_pub,
        shuffler_index=registry.shuffler_index.get(client_id),
        shuffler_priv=None if args.shuffler_key is None else int(args.shuffler_key, 16),
        fallback=fallback,
        **_given(quota=args.quota, voting_rate=args.voting_rate, min_ttl=args.min_ttl),
    )
    client.connect()
    if args.listen is None:
        bound = client.start_dns_listener()
    else:
        bound = client.start_dns_listener(*parse_hostport(args.listen, DEFAULT_DNS_PORT))
    print(f"resolving on {bound[0]}:{bound[1]} udp", flush=True)
    try:
        while True:
            # short sleeps: a SIGINT that lands on a listener thread is
            # only acted on once the main thread's sleep ends
            time.sleep(1.0)
            if not client.connected:
                try:
                    client.reconnect()
                except (OSError, wire.FrameError, wire.ConnectionClosed):
                    pass  # the server is away: try again on the next tick
    finally:
        client.close()
    return 0


# -- traces -------------------------------------------------------------------------


def _trace_config(args, universe_size: int) -> ZipfGeneratorConfig:
    return ZipfGeneratorConfig(
        universe=universe_size,
        seed=args.seed,
        **_given(
            exponent=args.zipf,
            clients=args.clients,
            queries_per_client_hour=args.queries,
            hours=args.hours,
            churn_rate=args.churn,
            start_ts=args.start_ts,
        ),
    )


def _cmd_trace_gen(args) -> int:
    universe = _universe(args)
    trace_cfg = _trace_config(args, universe.config.size)
    trace = generate_trace(trace_cfg, universe)
    write_trace_csv(trace, args.out)
    print(
        f"{args.out}: {len(trace.events)} events, {len(trace.clients)} clients, "
        f"{trace_cfg.hours}h over {universe.config.size} names"
    )
    return 0


# -- simulations ------------------------------------------------------------------


def _cmd_sim_hit_ratio(args) -> int:
    universe = _universe(args)
    if args.trace:
        trace = load_trace_csv(args.trace)
    else:
        trace = generate_trace(_trace_config(args, universe.config.size), universe)
    n_values = args.n_popular
    base = HitRatioConfig(
        n_popular=n_values[0],
        browser_cache=args.browser_cache,
        seed=args.seed,
        **_given(
            voting_rate=args.voting_rate,
            max_votes_per_round=args.max_votes,
            fast_start_hours=args.fast_start,
            freeze_votes_after=args.freeze_after,
            voter_cap=args.voter_cap,
        ),
    )
    series = sweep_hit_ratio(trace, universe, n_values, base)
    write_hit_ratio_csv(series, args.out)
    for n, rows in sorted(series.items()):
        steady, hours = steady_hit_ratio(rows), min(STEADY_HOURS, len(rows))
        print(f"N={n}: steady hit ratio {steady:.4f} over last {hours}h")
    print(f"wrote {args.out}")
    return 0


def _cmd_sim_exposure(args) -> int:
    extra = _given(overlap=args.overlap, voters=args.voters, mix_hops=args.mix_hops)
    if args.fit_exposure is not None:
        extra["overlap"] = fit_overlap(
            args.miss_fraction, args.vote_fraction, args.fit_exposure
        )
    curves = {
        mode: exposure_curve(
            mode_exposure_params(
                mode,
                miss_fraction=args.miss_fraction,
                vote_fraction=args.vote_fraction,
                **extra,
            ),
            args.collusion,
        )
        for mode in args.modes
    }
    write_exposure_csv(curves, args.out)
    print(
        f"wrote {args.out}: {len(curves)} modes x {len(args.collusion)} collusion points"
    )
    return 0


def _cmd_sim_bandwidth(args) -> int:
    bw_cfg = BandwidthConfig(
        participate=not args.no_participate,
        seed=args.seed,
        **_given(
            hours=args.hours,
            clients=args.clients,
            quota=args.quota,
            n_shuffle=args.n_shuffle,
            ttl_step=args.ttl_step,
            n_popular=args.n_popular,
            fallback_mode=args.fallback,
        ),
    )
    trace = load_trace_csv(args.trace) if args.trace else None
    report = run_bandwidth(_universe(args), bw_cfg, trace)
    write_bandwidth_csv(report, args.out)
    total = report.broadcast_bytes
    print(
        f"wrote {args.out}: {len(report.hours)}h, broadcast {total} B, "
        f"{total / max(1, len(report.hours)) / 1024:.1f} KiB/h per client"
    )
    return 0


def _read_hit_series(path: str, n_popular: int | None) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise UsageError(f"{path} holds no hit-ratio rows")
    if n_popular is None:
        n_popular = max(int(row["n_popular"]) for row in rows)
    series = [
        float(row["hit_ratio"]) for row in rows if int(row["n_popular"]) == n_popular
    ]
    if not series:
        raise UsageError(f"{path} has no rows for N={n_popular}")
    return series


def _cmd_sim_latency(args) -> int:
    mode = _require(args.mode, "--mode")
    if args.from_csv:
        series = _read_hit_series(args.from_csv, args.csv_n_popular)
    elif args.hit is None:
        raise UsageError("need --hit values or --from-csv")
    else:
        series = args.hit
    rows = run_latency(series, mode, seed=args.seed, **_given(samples=args.samples))
    write_latency_csv(rows, args.out)
    mean = sum(r.mean_ms for r in rows) / len(rows)
    print(f"wrote {args.out}: mode {mode}, mean {mean:.1f} ms over {len(rows)} hours")
    return 0


# -- list inspection ----------------------------------------------------------------


def _answer_text(rtype: RecordType, data: bytes) -> str:
    if rtype == RecordType.A and len(data) == 4:
        return socket.inet_ntop(socket.AF_INET, data)
    if rtype == RecordType.AAAA and len(data) == 16:
        return socket.inet_ntop(socket.AF_INET6, data)
    return f"{len(data)}B 0x{data.hex()}"


def _record_text(d: RecordDef, plist: PopularityList) -> str:
    rtype = d.key.rtype
    if rtype == RecordType.CNAME:
        return f"CNAME -> {d.cname_target}"
    if d.pool:
        entry = plist.entry_index[d.key]
        return (
            f"{rtype.name} pool[{entry}] "
            f"{len(d.pool)} answers, active #{plist.active[entry]}"
        )
    return f"{rtype.name} {_answer_text(rtype, d.answer)}"


def _render_list(plist: PopularityList, max_nodes: int, max_groups: int) -> str:
    lines = [
        f"generation {plist.generation}: {record_count(plist)} records, "
        f"{len(plist.pool.groups)} pool groups"
    ]
    nodes = wire_nodes(plist)
    shown = nodes[: max(max_nodes, 0)]
    for node in shown:
        records = "; ".join(_record_text(d, plist) for d in node.records)
        suffix = f"  [{records}]" if records else ""
        lines.append("  " * len(node.path) + ".".join(node.labels) + suffix)
    if len(nodes) > len(shown):
        lines.append(f"  ... {len(nodes) - len(shown)} more nodes")
    if plist.pool.groups:
        lines.append("pool:")
        for i, group in enumerate(plist.pool.groups[:max_groups]):
            lines.append(
                f"  [{i}] {group.key.name} {group.key.rtype.name}: "
                f"{len(group.answers)} answers, active #{group.current_index}"
            )
        if len(plist.pool.groups) > max_groups:
            lines.append(f"  ... {len(plist.pool.groups) - max_groups} more groups")
    return "\n".join(lines) + "\n"


def _cmd_list_inspect(args) -> int:
    data = Path(args.snapshot).read_bytes()
    if data[:4] == MAGIC:
        plist = deserialize(data)
    elif len(data) >= 12 and data[8:12] == MAGIC:
        # snapshot frame body: 8-byte generation, then the list format
        plist = decode_list_snapshot(data)
    else:
        raise UsageError(f"{args.snapshot} is not a serialized list")
    report = _render_list(plist, args.max_nodes, args.max_groups)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return 0


# -- figure batch -------------------------------------------------------------------


def _cmd_plotdata(args) -> int:
    universe = _universe(args)
    write_figure_batch(
        args.out,
        universe,
        _trace_config(args, universe.config.size),
        args.n_popular,
        max_votes=args.max_votes,
        seed=args.seed,
    )
    print(f"wrote {Path(args.out)}/: hit_ratio, voter_participation, exposure,")
    print("  latency, bandwidth, listsize CSVs and manifest.json")
    return 0


# -- argument wiring ---------------------------------------------------------------


def _add_seed(p, default=0) -> None:
    p.add_argument("--seed", type=int, default=default)


def _add_config(p) -> None:
    p.add_argument("--config", help="key=value file of defaults for these flags")


def _add_universe_flags(p, universe=None, lb_fraction=0.02) -> None:
    p.add_argument(
        "--universe", type=int, default=universe, help="synthetic name-universe size"
    )
    p.add_argument("--lb-fraction", type=float, default=lb_fraction)
    p.add_argument("--cname-fraction", type=float, default=0.05)


def _add_trace_flags(p, hours=None) -> None:
    p.add_argument("--zipf", type=float, help="popularity exponent")
    p.add_argument("--clients", type=int)
    p.add_argument("--queries", type=int, help="queries per client-hour")
    p.add_argument("--hours", type=int, default=hours)
    p.add_argument("--churn", type=float, help="rank permutation rate per day")
    p.add_argument("--start-ts", type=int)


def _command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(func=func, parser=p)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lluad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "keygen", _cmd_keygen, help="mint a curve keypair")
    _add_seed(p, default=None)
    p.add_argument("--out", help="key file (default: stdout)")

    p = _command(sub, "server", _cmd_server, help="run the list server daemon")
    _add_seed(p)
    _add_config(p)
    p.add_argument("--registry", help="client credential file")
    p.add_argument("--key", help="server private scalar, hex")
    p.add_argument("--host")
    p.add_argument("--port", type=int, default=SERVER_PORT)
    p.add_argument("--upstream", help="recursive resolver host:port")
    _add_universe_flags(p)
    p.add_argument("--prepopulate", action="store_true")
    p.add_argument("--n-popular", type=int)
    p.add_argument("--t-refresh", type=int)
    p.add_argument("--quota", type=int)
    p.add_argument("--n-shuffle", type=int)
    p.add_argument("--min-ttl", type=int)
    p.add_argument("--straggler-timeout", type=float)

    p = _command(sub, "client", _cmd_client, help="run the resolver daemon")
    _add_config(p)
    p.add_argument("--id")
    p.add_argument("--token")
    p.add_argument("--server", help="list server host:port")
    p.add_argument("--server-pub", help="server public element, hex")
    p.add_argument("--registry", help="credential file for shuffler public keys")
    p.add_argument("--listen", help="stub resolver udp host:port")
    p.add_argument("--fallback", choices=["plain", "doh"])
    p.add_argument("--fallback-endpoint", help="plain-udp resolver host:port")
    p.add_argument("--fallback-url", help="doh endpoint url")
    p.add_argument("--shuffler-key", help="shuffler private scalar, hex")
    p.add_argument("--quota", type=int)
    p.add_argument("--voting-rate", type=float)
    p.add_argument("--min-ttl", type=int)

    trace = sub.add_parser("trace", help="trace tools")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    p = _command(trace_sub, "gen", _cmd_trace_gen, help="write a synthetic trace")
    _add_seed(p)
    _add_config(p)
    p.add_argument("--out", default="trace.csv")
    _add_universe_flags(p, universe=100_000)
    _add_trace_flags(p)

    sim = sub.add_parser("sim", help="run experiments")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)

    p = _command(sim_sub, "hit-ratio", _cmd_sim_hit_ratio)
    _add_seed(p)
    _add_config(p)
    p.add_argument("--out", default="hit_ratio.csv")
    p.add_argument(
        "--n-popular",
        type=_ints,
        default=[MaintenanceConfig.n_popular],
        help="comma-separated list sizes",
    )
    _add_universe_flags(p, universe=100_000)
    _add_trace_flags(p)
    p.add_argument("--trace", help="replay this CSV instead of generating")
    p.add_argument("--voting-rate", type=float)
    p.add_argument("--max-votes", type=int)
    p.add_argument("--fast-start", type=int)
    p.add_argument("--freeze-after", type=int, help="stop voting after this hour")
    p.add_argument("--voter-cap", type=int)
    p.add_argument("--browser-cache", action="store_true")

    p = _command(sim_sub, "exposure", _cmd_sim_exposure)
    _add_config(p)
    p.add_argument("--out", default="exposure.csv")
    p.add_argument(
        "--modes",
        type=_words,
        default=sorted(FALLBACK_RELAY_HOPS),
        help="comma-separated fallback modes",
    )
    p.add_argument("--miss-fraction", type=float, default=0.056)
    p.add_argument("--vote-fraction", type=float, default=0.157)
    p.add_argument("--overlap", type=float)
    p.add_argument("--fit-exposure", type=float, help="solve overlap for this rate at full collusion")
    p.add_argument(
        "--collusion",
        type=_floats,
        default=COLLUSION_GRID,
        help="comma-separated fractions",
    )
    p.add_argument("--voters", type=int, help="finite anonymity-set size")
    p.add_argument("--mix-hops", type=int)

    p = _command(sim_sub, "bandwidth", _cmd_sim_bandwidth)
    _add_seed(p)
    _add_config(p)
    p.add_argument("--out", default="bandwidth.csv")
    _add_universe_flags(p, universe=2000, lb_fraction=0.3)
    p.add_argument("--hours", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--no-participate", action="store_true")
    p.add_argument("--quota", type=int)
    p.add_argument("--n-shuffle", type=int)
    p.add_argument("--n-popular", type=int)
    p.add_argument("--ttl-step", type=float)
    p.add_argument("--fallback", choices=sorted(FALLBACK_RELAY_HOPS))
    p.add_argument("--trace", help="drive fallback misses from this CSV")

    p = _command(sim_sub, "latency", _cmd_sim_latency)
    _add_seed(p)
    _add_config(p)
    p.add_argument("--out", default="latency.csv")
    p.add_argument("--mode")
    p.add_argument("--hit", type=_floats, help="comma-separated hourly hit ratios")
    p.add_argument("--from-csv", help="read hit ratios from a hit-ratio CSV")
    p.add_argument(
        "--n-popular", type=int, dest="csv_n_popular", help="row filter for --from-csv"
    )
    p.add_argument("--samples", type=int)

    lst = sub.add_parser("list", help="list snapshot tools")
    lst_sub = lst.add_subparsers(dest="list_command", required=True)
    p = _command(lst_sub, "inspect", _cmd_list_inspect)
    p.add_argument("--out", help="report file (default: stdout)")
    p.add_argument("snapshot", help="serialized list file")
    p.add_argument("--max-nodes", type=int, default=48)
    p.add_argument("--max-groups", type=int, default=12)

    p = _command(sub, "plotdata", _cmd_plotdata, help="emit the full figure CSV batch")
    _add_seed(p)
    _add_config(p)
    p.add_argument("--out", default="plotdata", help="output directory")
    _add_universe_flags(p, universe=20_000)
    _add_trace_flags(p, hours=12)
    p.add_argument("--n-popular", type=_ints, default=[100, 1000, 5000, 10000])
    p.add_argument("--max-votes", type=int, default=20)

    return parser


def _config_defaults(p: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of `p`'s flags.

    argparse converts a string default with the flag's `type` when the
    flag is absent, so a bad value fails like a bad flag.  Keys with no
    matching flag are ignored, so one file can serve both daemons;
    switches and the FLAG_ONLY paths are set by flags alone."""
    cfg = load_config(path)
    settable = {
        action.dest
        for action in p._actions
        if action.option_strings and action.nargs != 0 and action.dest not in FLAG_ONLY
    }
    p.set_defaults(**{key: value for key, value in cfg.items() if key in settable})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _config_defaults(args.parser, args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
