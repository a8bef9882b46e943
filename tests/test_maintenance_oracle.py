"""The incremental maintainer against the full-pass oracle kept in
`oracle_maintenance`: random streams of votes, refreshes, TTL passes
against a changing upstream, and pointer flushes must give the same
messages, ranking, upstream queries, rng draws and list bytes, step by
step."""

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_maintenance import OracleMaintainer

from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.maintenance import Maintainer, MaintenanceConfig, UpstreamAnswer, UpstreamFailure
from lluad.poplist import serialize

NAMES = [DomainName.from_text(f"n{i}.example") for i in range(6)]
KEYS = [RecordKey(n, t) for n in NAMES for t in (RecordType.A, RecordType.AAAA)]
ADDRS = [RecordAnswer.a(f"192.0.2.{i + 1}").data for i in range(6)]


def _aaaa(addr: bytes) -> bytes:
    return bytes(12) + addr


class FakeUpstream:
    """Per-name state: an address set, a rotating pool (one address per
    minute), a CNAME target, NXDOMAIN, or failure."""

    def __init__(self, clock):
        self.clock = clock
        self.state = {n: ("addrs", (ADDRS[i],)) for i, n in enumerate(NAMES)}
        self.state[NAMES[0]] = self.state[NAMES[1]] = ("pool", tuple(ADDRS[:4]))
        self.state[NAMES[2]] = ("cname", 3)

    def resolve(self, key: RecordKey) -> UpstreamAnswer:
        kind, arg = self.state[key.name]
        if kind == "fail":
            raise UpstreamFailure(str(key))
        if kind == "cname":
            return UpstreamAnswer(60, cname=NAMES[arg])
        if kind == "nx" or key.rtype == RecordType.CNAME:
            return UpstreamAnswer(300)
        if kind == "pool":
            arg = (arg[int(self.clock[0]) // 60 % len(arg)],)
        if key.rtype == RecordType.AAAA:
            arg = tuple(_aaaa(a) for a in arg)
        return UpstreamAnswer(60, answers=arg)


class Recording:
    """One maintainer's view of the shared upstream, logging its queries."""

    def __init__(self, upstream: FakeUpstream):
        self.upstream = upstream
        self.calls: list[RecordKey] = []

    def resolve(self, key: RecordKey) -> UpstreamAnswer:
        self.calls.append(key)
        return self.upstream.resolve(key)


addr_sets = st.lists(st.sampled_from(ADDRS), min_size=1, max_size=4, unique=True).map(tuple)
name_index = st.integers(0, len(NAMES) - 1)
pause = st.sampled_from([0, 30, 61, 61, 130, 600, 3600])
votes = st.lists(st.integers(0, len(KEYS) - 1), max_size=16)
# (what to run, seconds to advance the clock first, votes); TTL passes
# come twice as often, since they are what reshapes chains
runs = st.one_of(
    st.tuples(st.just("refresh"), pause, votes),
    st.tuples(st.just("ttl"), pause, st.none()),
    st.tuples(st.just("ttl"), pause, st.none()),
    st.tuples(st.just("flush"), pause, st.none()),
)
# (name, new upstream state)
changes = st.tuples(
    name_index,
    st.one_of(
        st.tuples(st.sampled_from(["addrs", "pool"]), addr_sets),
        st.tuples(st.just("cname"), name_index),
        st.tuples(st.sampled_from(["nx", "fail"]), st.none()),
    ),
)
steps = st.lists(st.tuples(runs, st.lists(changes, max_size=2)), min_size=10, max_size=50)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # both sides must fail alike
        return ("raised", type(exc), str(exc))


def _run(m, op: str, voted, now: float) -> list:
    """One step's outcomes; a TTL pass flushes after it, as the server does."""
    if op == "refresh":
        m.ingest_votes(KEYS[k] for k in voted)
        return [_outcome(lambda: m.run_refresh(now))]
    if op == "ttl":
        return [_outcome(lambda: m.run_ttl(now)), _outcome(lambda: m.flush_lb_updates(now))]
    return [_outcome(lambda: m.flush_lb_updates(now))]


def _state(ranking, m, upstream: Recording):
    return (
        list(ranking),
        m.rng.getstate(),
        m.generation,
        m.round_index,
        serialize(m.plist),
        upstream.calls,
    )


# A refresh that raises: n3 turns into an alias of n5 while its A record
# is listed, so n3's AAAA chain puts a CNAME next to it.  The TTL passes
# after it run on the list the failed refresh left: one with nothing to
# change, then one that drops n3's A record.
FAILED_REFRESH = [
    (("refresh", 0, [8]), []),
    (("refresh", 30, [6]), [(3, ("cname", 5))]),
    (("refresh", 0, [7, 7, 7]), []),
    (("ttl", 31, None), []),
    (("ttl", 30, None), []),
    (("refresh", 0, []), []),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), steps, st.integers(0, 2**32 - 1))
@example(4, FAILED_REFRESH, 0)
def test_incremental_maintainer_matches_full_pass_oracle(n_popular, steps, seed):
    clock = [0.0]
    upstream = FakeUpstream(clock)
    cfg = MaintenanceConfig(n_popular=n_popular, min_ttl=60)
    new_calls, old_calls = Recording(upstream), Recording(upstream)
    new = Maintainer(cfg, new_calls, rng=Random(seed))
    old = OracleMaintainer(cfg, old_calls, rng=Random(seed))
    for i, ((op, seconds, voted), changed) in enumerate(steps):
        clock[0] += seconds
        assert _run(new, op, voted, clock[0]) == _run(old, op, voted, clock[0]), f"step {i}"
        assert _state(new._rank, new, new_calls) == _state(old._top, old, old_calls), f"step {i}"
        for index, state in changed:
            upstream.state[NAMES[index]] = state
