"""The incremental maintainer against the full-pass oracle kept in
`oracle_maintenance`: random streams of votes, refreshes, TTL passes
against a changing upstream, and pointer flushes must give the same
messages, ranking, upstream queries, rng draws and list bytes, step by
step."""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_maintenance import OracleMaintainer

from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.maintenance import (
    Maintainer,
    MaintenanceConfig,
    SimulatedUpstream,
    UpstreamAnswer,
    UpstreamFailure,
)
from lluad.poplist import CNAME_CHAIN_LIMIT, lookup, serialize

NAMES = [DomainName.from_text(f"n{i}.example") for i in range(6)]
KEYS = [RecordKey(n, t) for n in NAMES for t in (RecordType.A, RecordType.AAAA)]
ADDRS = [RecordAnswer.a(f"192.0.2.{i + 1}").data for i in range(6)]


def _aaaa(addr: bytes) -> bytes:
    return bytes(12) + addr


class FakeUpstream:
    """Per-name state: an address set, a rotating pool (one address per
    minute), a CNAME target, NXDOMAIN, failure, or a crash (an error that
    is not UpstreamFailure)."""

    def __init__(self, clock):
        self.clock = clock
        self.state = {n: ("addrs", (ADDRS[i],)) for i, n in enumerate(NAMES)}
        self.state[NAMES[0]] = self.state[NAMES[1]] = ("pool", tuple(ADDRS[:4]))
        self.state[NAMES[2]] = ("cname", 3)

    def resolve(self, key: RecordKey) -> UpstreamAnswer:
        kind, arg = self.state[key.name]
        if kind == "fail":
            raise UpstreamFailure(str(key))
        if kind == "crash":
            raise RuntimeError(str(key))
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


# n3 turns into an alias of n5 while its A record is listed.  n3's AAAA
# chain cannot put a CNAME next to that record, so it stays open until the
# A record's requery drops it: the TTL passes run one with nothing to
# change, then one that drops n3's A record and links the AAAA chain.
FAILED_REFRESH = [
    (("refresh", 0, [8]), []),
    (("refresh", 30, [6]), [(3, ("cname", 5))]),
    (("refresh", 0, [7, 7, 7]), []),
    (("ttl", 31, None), []),
    (("ttl", 30, None), []),
    (("refresh", 0, []), []),
]

# A refresh that raises: upstream crashes on n4 while n2's chain through
# n3 is listed.  The TTL passes after it run on the index rebuilt from
# the list: n2's CNAME moves to n5, and n4 resolves again.
CRASHED_REFRESH = [
    (("refresh", 0, [4]), [(4, ("crash", None))]),
    (("refresh", 30, [8, 8]), [(2, ("cname", 5)), (4, ("addrs", (ADDRS[0],)))]),
    (("ttl", 31, None), []),
    (("ttl", 61, None), []),
    (("refresh", 0, []), []),
]


def _compare(n_popular: int, steps, seed: int) -> list:
    """Run both maintainers through `steps`, checking that they agree
    after each; returns the outcomes."""
    clock = [0.0]
    upstream = FakeUpstream(clock)
    cfg = MaintenanceConfig(n_popular=n_popular, min_ttl=60)
    new_calls, old_calls = Recording(upstream), Recording(upstream)
    new = Maintainer(cfg, new_calls, rng=Random(seed))
    old = OracleMaintainer(cfg, old_calls, rng=Random(seed))
    outcomes = []
    for i, ((op, seconds, voted), changed) in enumerate(steps):
        clock[0] += seconds
        got = _run(new, op, voted, clock[0])
        assert got == _run(old, op, voted, clock[0]), f"step {i}"
        assert _state(new._rank, new, new_calls) == _state(old._top, old, old_calls), f"step {i}"
        outcomes += got
        for index, state in changed:
            upstream.state[NAMES[index]] = state
    return outcomes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), steps, st.integers(0, 2**32 - 1))
@example(4, FAILED_REFRESH, 0)
@example(4, CRASHED_REFRESH, 0)
def test_incremental_maintainer_matches_full_pass_oracle(n_popular, steps, seed):
    _compare(n_popular, steps, seed)


def test_the_examples_take_the_paths_they_pin():
    raised = [o[1] for o in _compare(4, FAILED_REFRESH, 0) if o[0] == "raised"]
    assert raised == []
    raised = [o[1] for o in _compare(4, CRASHED_REFRESH, 0) if o[0] == "raised"]
    assert raised == [RuntimeError]


@pytest.mark.parametrize("loop", [False, True], ids=["plain", "loop"])
@pytest.mark.parametrize("length", [CNAME_CHAIN_LIMIT + d for d in (-2, -1, 0, 3)])
def test_maintainer_matches_the_oracle_at_the_chain_limit(length, loop):
    """Upstream serves h0 -> h1 -> ... -> h<length> -> A, or the same
    with h<length - 1> pointing back to h1.  A chain is listed only when
    it holds at most the limit's count of records.  The last refresh
    ranks h3 over h0 over h1, so h0's and h1's walks meet the links
    h3's walk left in the draft."""
    names = [DomainName.from_text(f"h{i}.example") for i in range(length + 1)]

    def resolve(key: RecordKey) -> UpstreamAnswer:
        i = names.index(key.name)
        if i < length:
            return UpstreamAnswer(60, cname=names[1 if loop and i == length - 1 else i + 1])
        return UpstreamAnswer(60, answers=(ADDRS[0],))

    cfg = MaintenanceConfig(n_popular=3, min_ttl=60)
    new_calls = Recording(SimulatedUpstream(resolve))
    old_calls = Recording(SimulatedUpstream(resolve))
    new = Maintainer(cfg, new_calls, rng=Random(1))
    old = OracleMaintainer(cfg, old_calls, rng=Random(1))
    for now, starts in ((0.0, [0]), (30.0, [3]), (60.0, [3, 3, 3, 0, 0, 1])):
        voted = [RecordKey(names[i], RecordType.A) for i in starts]
        new.ingest_votes(voted)
        old.ingest_votes(voted)
        assert _outcome(lambda: new.run_refresh(now)) == _outcome(lambda: old.run_refresh(now))
        assert _state(new._rank, new, new_calls) == _state(old._top, old, old_calls)
        for i in starts:
            served = not loop and length - i < CNAME_CHAIN_LIMIT
            assert (lookup(new.plist, RecordKey(names[i], RecordType.A)) is not None) == served
