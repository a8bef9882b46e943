"""Server-side list maintenance: scores, refresh, TTL requery, LB batching.

A single maintenance task owns all of this state; nothing here is safe for
concurrent callers.  Every entry point takes explicit `now` / round
arguments so simulations can drive virtual clocks and daemons can pass
wall time.

Score model: one round of tallied votes folds into the running weight as

    weighted = a * occurrences + (1 - a)^gap * previous

where gap is the number of rounds since the record was last tallied; a
record absent from a round simply decays, and the closed form above makes
skipped rounds cheap (no per-round touch of idle records).

Fixed tuning, shared by every deployment:

- `WEIGHT_A`: the weight a of the newest round in the score above.
- `SCORE_CAP_FACTOR`: the score board keeps at most this many times
  `n_popular` scores, shedding the weakest first.
- `LB_CHANGE_THRESHOLD`, `LB_CHANGE_WINDOW`: a record whose requeries
  return this many distinct answer sets within this many seconds is
  classified as load-balanced and gets a rotating pool.
- `REQUERY_BACKOFF_BASE`, `REQUERY_BACKOFF_CAP`: after the n-th failed
  requery in a row a record is retried base * 2^(n-1) seconds later,
  never more than cap seconds later.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Collection, Iterable, Mapping, Protocol

from .dnsmsg import (
    DomainName,
    RecordAnswer,
    RecordKey,
    RecordType,
    build_query,
    parse_response,
    udp_exchange,
)
from .poplist import (
    CNAME_CHAIN_LIMIT,
    PopularityList,
    RecordDef,
    apply_lb_update,
    apply_membership_update,
    build_list,
)


class UpstreamFailure(Exception):
    """The upstream resolver could not produce a usable response."""


@dataclass(frozen=True)
class UpstreamAnswer:
    """One level of resolution: either terminal answers or a CNAME step.

    Empty answers with no cname means the name/type pair does not exist
    (the record should leave the list)."""

    ttl: int
    answers: tuple[bytes, ...] = ()
    cname: DomainName | None = None


class Upstream(Protocol):
    def resolve(self, key: RecordKey) -> UpstreamAnswer: ...


WEIGHT_A = 0.1
SCORE_CAP_FACTOR = 4
LB_CHANGE_THRESHOLD = 3
LB_CHANGE_WINDOW = 600.0
REQUERY_BACKOFF_BASE = 2.0
REQUERY_BACKOFF_CAP = 300.0


@dataclass(frozen=True)
class MaintenanceConfig:
    n_popular: int = 25_000
    t_refresh: int = 3600
    min_ttl: int = 60

    def __post_init__(self):
        if self.n_popular <= 0 or self.t_refresh <= 0 or self.min_ttl <= 0:
            raise ValueError("sizes and intervals must be positive")


@dataclass(frozen=True)
class PopularityScore:
    key: RecordKey
    weighted: float
    last_round: int


def _fold(
    weighted: float,
    last_round: int,
    occurrences: int,
    round_index: int,
    weight_a: float = WEIGHT_A,
) -> float:
    if round_index <= last_round:
        raise ValueError("rounds must advance")
    if occurrences < 0:
        raise ValueError("occurrences must be non-negative")
    gap = round_index - last_round
    return weight_a * occurrences + (1.0 - weight_a) ** gap * weighted


def update_score(
    prev: PopularityScore,
    occurrences: int,
    round_index: int,
    weight_a: float = WEIGHT_A,
) -> PopularityScore:
    """Fold one round's occurrence count into a score (closed-form decay
    for any skipped rounds in between)."""
    weighted = _fold(prev.weighted, prev.last_round, occurrences, round_index, weight_a)
    return PopularityScore(prev.key, weighted, round_index)


class ScoreBoard:
    """All known scores, capped by shedding the lowest effective score
    so forgotten records eventually drop.

    Each key maps to (weighted, last round, `key.sort_key()`); the order
    bytes are built once, when the key is first scored, and leave with it."""

    def __init__(self, cfg: MaintenanceConfig):
        self._cap = SCORE_CAP_FACTOR * cfg.n_popular
        self._scores: dict[RecordKey, tuple[float, int, bytes]] = {}

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: RecordKey) -> bool:
        return key in self._scores

    def apply_round(self, round_index: int, tallies: Mapping[RecordKey, int]) -> None:
        scores = self._scores
        for key, occurrences in tallies.items():
            prev = scores.get(key)
            if prev is None:
                prev = (0.0, round_index - 1, key.sort_key())
            weighted = _fold(prev[0], prev[1], occurrences, round_index)
            scores[key] = (weighted, round_index, prev[2])
        excess = len(scores) - self._cap
        if excess > 0:
            # shed the weakest scores, stalest first on ties; recency alone
            # would let one busy round flush the whole popular head
            decay = 1.0 - WEIGHT_A

            def weakness(item):
                weighted, last_round, order = item[1]
                return (weighted * decay ** (round_index - last_round), last_round, order)

            for key, _ in heapq.nsmallest(excess, scores.items(), key=weakness):
                del scores[key]

    def top(
        self, round_index: int, n: int, incumbents: Collection[RecordKey]
    ) -> list[RecordKey]:
        """Rank by effective score; ties keep incumbents, then fall back to
        canonical key order so the result is deterministic."""
        decay = 1.0 - WEIGHT_A
        keys, effs, newcomer, orders = [], [], [], []
        for k, (weighted, last_round, order) in self._scores.items():
            eff = weighted * decay ** (round_index - last_round)
            if eff > 0.0:
                keys.append(k)
                effs.append(-eff)
                newcomer.append(k not in incumbents)
                orders.append(order)
        # stable sorts, last tie-break first, give the order of
        # (-eff, newcomer, order) tuples without building one per key:
        # tuples are tracked by the cyclic garbage collector, and at 25k
        # keys they started a full collection (hundreds of ms) inside
        # about one refresh in four
        ranked = sorted(range(len(keys)), key=orders.__getitem__)
        ranked.sort(key=newcomer.__getitem__)
        ranked.sort(key=effs.__getitem__)
        return [keys[i] for i in ranked[:n]]


@dataclass(frozen=True)
class LbUpdate:
    """Pointer rotations: (pool entry index, signed answer offset) pairs."""

    entries: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MembershipUpdate:
    """Record-level changes; additions upsert (replace on key collision)."""

    removals: tuple[RecordKey, ...] = ()
    additions: tuple[RecordDef, ...] = ()


UpdateMessage = LbUpdate | MembershipUpdate


def apply_update(plist: PopularityList, message: UpdateMessage) -> PopularityList:
    """Client-side application of one update message."""
    if isinstance(message, LbUpdate):
        return apply_lb_update(plist, message.entries)
    return apply_membership_update(plist, message.removals, message.additions)


class TtlSchedule:
    """One pending expiry per record, earliest first (lazy heap deletes)."""

    def __init__(self):
        self._heap: list[tuple[float, int, RecordKey]] = []
        self._when: dict[RecordKey, float] = {}
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._when)

    def __contains__(self, key: RecordKey) -> bool:
        return key in self._when

    def schedule(self, key: RecordKey, when: float) -> None:
        self._when[key] = when
        heapq.heappush(self._heap, (when, next(self._seq), key))

    def cancel(self, key: RecordKey) -> None:
        self._when.pop(key, None)

    def next_due(self) -> float | None:
        while self._heap:
            when, _, key = self._heap[0]
            if self._when.get(key) == when:
                return when
            heapq.heappop(self._heap)
        return None

    def due(self, now: float) -> list[RecordKey]:
        out = []
        while self._heap:
            when, _, key = self._heap[0]
            if self._when.get(key) != when:
                heapq.heappop(self._heap)
                continue
            if when > now:
                break
            heapq.heappop(self._heap)
            del self._when[key]
            out.append(key)
        return out


def _canonical_answers(answers: Iterable[bytes]) -> tuple[bytes, ...]:
    return tuple(sorted(set(answers)))


class _Draft(dict):
    """A working copy of the record table that notes every key written or
    deleted: with the keys whose chain use changed, these are the only
    keys a commit has to diff."""

    def __init__(
        self, records: Mapping[RecordKey, RecordDef], touched: Iterable[RecordKey]
    ):
        super().__init__(records)
        self.touched = set(touched)

    def __setitem__(self, key: RecordKey, value: RecordDef) -> None:
        self.touched.add(key)
        super().__setitem__(key, value)

    def __delitem__(self, key: RecordKey) -> None:
        self.touched.add(key)
        super().__delitem__(key)


class Maintainer:
    """Owns the authoritative list and produces the update stream.

    Flow: ingest_votes() accumulates a round's tallies; run_refresh() ranks
    and reshapes membership; run_ttl() requeries expiring records and queues
    pool rotations; flush_lb_updates() batches queued rotations, at most one
    batch per min_ttl.  Every method returns the messages to broadcast.

    The list holds exactly the records that serve a ranked key through a
    complete chain.  A ranked key whose own record is listed is served
    directly; the chain index keeps the rest:

        _rank   ranked key -> its place in the ranking, in ranking order
        _links  ranked key -> its chain, CNAME links first, when complete
        _via    record key -> the ranked keys whose `_links` pass through it
        _open   ranked keys with no complete chain (tried again by every
                refresh and every TTL pass that changes structure)

    So a refresh or TTL pass ensures only the ranked keys that entered,
    are open, or lost a link, and diffs only the records they touched.
    It ensures them in rank order, which keeps the upstream queries and
    rng draws of a pass over every ranked key: the chains of the others
    are complete, and ensuring a complete chain queries nothing.
    """

    def __init__(
        self,
        cfg: MaintenanceConfig,
        upstream: Upstream,
        rng: Random | None = None,
    ):
        self.cfg = cfg
        self.upstream = upstream
        self.rng = rng or Random()
        self.scores = ScoreBoard(cfg)
        self.plist = build_list([])
        self.round_index = 0
        self.schedule = TtlSchedule()
        self._tallies: Counter[RecordKey] = Counter()
        self._rank: dict[RecordKey, int] = {}
        self._links: dict[RecordKey, tuple[RecordKey, ...]] = {}
        self._via: dict[RecordKey, list[RecordKey]] = {}
        self._open: set[RecordKey] = set()
        self._stale: set[RecordKey] = set()  # records the next commit diffs too
        self._pending_offsets: dict[RecordKey, int] = {}
        self._last_lb_flush: float | None = None
        self._change_history: dict[RecordKey, list[tuple[float, frozenset[bytes]]]] = {}
        self._backoff: dict[RecordKey, int] = {}

    @property
    def generation(self) -> int:
        return self.plist.generation

    def ingest_votes(self, keys: Iterable[RecordKey]) -> None:
        self._tallies.update(keys)

    # -- membership refresh ------------------------------------------------

    def run_refresh(self, now: float) -> list[UpdateMessage]:
        """Advance one voting round and reshape list membership."""
        self.round_index += 1
        self.scores.apply_round(self.round_index, self._tallies)
        self._tallies = Counter()
        before = self._rank.keys()
        top = self.scores.top(self.round_index, self.cfg.n_popular, before)
        self._rank = {key: i for i, key in enumerate(top)}
        after = self._rank.keys()
        left, entered = before - after, after - before
        try:
            defs = _Draft(self.plist.records, self._stale)
            for voted in left:
                self._unlink(voted, defs.touched)
            self._ensure(defs, entered | self._open, now)
            return self._commit_membership(defs, now)
        except BaseException:
            self._relink()
            raise

    def _ensure(self, defs: _Draft, dirty: set[RecordKey], now: float) -> None:
        """Ensure the chains of the `dirty` ranked keys, in rank order, then
        index them again on the edited table."""
        ordered = sorted(dirty, key=self._rank.__getitem__)
        for voted in ordered:
            self._ensure_chain(defs, voted, now)
        for voted in ordered:
            self._unlink(voted, defs.touched)
            self._link(voted, defs, defs.touched)

    def _unlink(self, voted: RecordKey, touched: set[RecordKey]) -> None:
        touched.add(voted)
        self._open.discard(voted)
        for key in self._links.pop(voted, ()):
            users = self._via[key]
            users.remove(voted)
            if not users:
                del self._via[key]
            touched.add(key)

    def _link(
        self,
        voted: RecordKey,
        defs: Mapping[RecordKey, RecordDef],
        touched: set[RecordKey],
    ) -> None:
        """Index the chain of `voted` as it stands in `defs`."""
        links: list[RecordKey] = []
        name = voted.name
        for _ in range(CNAME_CHAIN_LIMIT):
            key = RecordKey(name, voted.rtype)
            if key in defs:
                break
            ck = RecordKey(name, RecordType.CNAME)
            if ck not in defs:
                self._open.add(voted)
                return
            links.append(defs[ck].key)  # a copy per link would cost 0.7 MB at 25k
            name = defs[ck].cname_target
        else:
            self._open.add(voted)
            return
        touched.add(key)
        if links:
            links.append(defs[key].key)
            self._links[voted] = tuple(links)
            for link in links:
                self._via.setdefault(link, []).append(voted)
                touched.add(link)

    def _users(self, key: RecordKey) -> set[RecordKey]:
        """The ranked keys a listed record serves."""
        users = set(self._via.get(key, ()))
        if key in self._rank:
            users.add(key)
        return users

    def _relink(self) -> None:
        """Rebuild the chain index from the list as it stands, after a pass
        that raised, and have the next commit diff every listed record."""
        self._links, self._via, self._open = {}, {}, set()
        self._stale = set(self.plist.records)
        for voted in self._rank:
            self._link(voted, self.plist.records, self._stale)

    def _ensure_chain(
        self, defs: dict[RecordKey, RecordDef], voted: RecordKey, now: float
    ) -> None:
        """Materialize the record (and any CNAME links) serving `voted`."""
        name = voted.name
        walked: set[DomainName] = set()
        for _ in range(CNAME_CHAIN_LIMIT):
            walked.add(name)
            if RecordKey(name, voted.rtype) in defs:
                return
            ck = RecordKey(name, RecordType.CNAME)
            if ck in defs:
                name = defs[ck].cname_target
                if name in walked:
                    return
                continue
            try:
                answer = self.upstream.resolve(RecordKey(name, voted.rtype))
            except UpstreamFailure:
                return  # score persists; retried next refresh
            if answer.cname is not None:
                if answer.cname in walked or self._would_cycle(defs, answer.cname, name):
                    return
                defs[ck] = RecordDef(ck, RecordAnswer.cname(answer.cname).data)
                self._schedule_key(ck, answer.ttl, now)
                name = answer.cname
                continue
            observed = _canonical_answers(answer.answers)
            if not observed:
                return
            key = RecordKey(name, voted.rtype)
            defs[key] = RecordDef(key, self.rng.choice(observed))
            self._seed_history(key, observed, now)
            self._schedule_key(key, answer.ttl, now)
            return

    def _would_cycle(
        self, defs: dict[RecordKey, RecordDef], start: DomainName, back_to: DomainName
    ) -> bool:
        name = start
        for _ in range(CNAME_CHAIN_LIMIT):
            ck = RecordKey(name, RecordType.CNAME)
            if ck not in defs:
                return False
            name = defs[ck].cname_target
            if name == back_to:
                return True
        return True

    def _commit_membership(self, defs: _Draft, now: float) -> list[UpdateMessage]:
        """Diff the touched records against the list, then apply and return
        the messages: the removals, then the additions.

        The list retains a removed record while a surviving CNAME targets
        it.  When the removals alone would retain one (a CNAME that the
        additions retarget still points at it), a single message carries
        both halves, so the list lands on exactly the needed records."""
        current = self.plist.records

        def needed(k: RecordKey) -> bool:
            return k in defs and (k in self._rank or k in self._via)

        removals = tuple(
            sorted(
                (k for k in defs.touched if k in current and not needed(k)),
                key=RecordKey.sort_key,
            )
        )
        additions = tuple(
            sorted(
                (defs[k] for k in defs.touched if needed(k) and defs[k] != current.get(k)),
                key=lambda d: d.key.sort_key(),
            )
        )
        self._stale = set()
        if not (removals or additions):
            return []
        messages: list[UpdateMessage] = []
        plist = self.plist
        if removals:
            messages.append(MembershipUpdate(removals=removals))
            plist = apply_membership_update(plist, removals)
        if additions:
            if any(k in plist.records for k in removals):
                messages = [MembershipUpdate(removals, additions)]
                plist = apply_membership_update(self.plist, removals, additions)
            else:
                messages.append(MembershipUpdate(additions=additions))
                plist = apply_membership_update(plist, additions=additions)
        self.plist = plist
        for key in removals:
            self.schedule.cancel(key)
            self._pending_offsets.pop(key, None)
            self._change_history.pop(key, None)
            self._backoff.pop(key, None)
        return messages

    # -- TTL requery -------------------------------------------------------

    def run_ttl(self, now: float) -> list[UpdateMessage]:
        """Requery every record whose TTL expired; emit membership changes
        and queue pool rotations (flushed separately)."""
        due = self.schedule.due(now)
        if not due:
            return []
        try:
            return self._requery(due, now)
        except BaseException:
            self._relink()
            raise

    def _requery(self, due: list[RecordKey], now: float) -> list[UpdateMessage]:
        defs = _Draft(self.plist.records, self._stale)
        reshaped: set[RecordKey] = set()  # ranked keys that lost a link
        structure_dirty = touched = False
        for key in due:
            if key not in defs:
                self._change_history.pop(key, None)
                self._backoff.pop(key, None)
                continue
            try:
                answer = self.upstream.resolve(key)
            except UpstreamFailure:
                attempts = self._backoff.get(key, 0) + 1
                self._backoff[key] = attempts
                delay = min(
                    REQUERY_BACKOFF_BASE * 2 ** (attempts - 1), REQUERY_BACKOFF_CAP
                )
                self.schedule.schedule(key, now + delay)
                continue
            self._backoff.pop(key, None)
            self._schedule_key(key, answer.ttl, now)
            if key.rtype == RecordType.CNAME:
                if answer.cname is None:
                    del defs[key]
                elif answer.cname != defs[key].cname_target:
                    defs[key] = RecordDef(key, RecordAnswer.cname(answer.cname).data)
                else:
                    continue
                reshaped |= self._users(key)
                structure_dirty = touched = True
                continue
            observed = _canonical_answers(answer.answers)
            if not observed:
                del defs[key]
                reshaped |= self._users(key)
                structure_dirty = touched = True
                continue
            touched |= self._absorb_answers(defs, key, observed, now)
        if not touched:
            return []
        if structure_dirty:
            self._ensure(defs, reshaped | self._open, now)
        return self._commit_membership(defs, now)

    def _absorb_answers(
        self,
        defs: dict[RecordKey, RecordDef],
        key: RecordKey,
        observed: tuple[bytes, ...],
        now: float,
    ) -> bool:
        """Fold a fresh observation into one A/AAAA record.  Returns True
        when a membership message is needed (pool growth or answer change);
        pure pointer rotations only queue an offset."""
        current = defs[key]
        self._note_change(key, observed, now)
        if current.load_balanced:
            grown = _canonical_answers(current.pool + observed)
            changed = False
            if grown != current.pool:
                # pool extension keeps the active answer; reindexing is the
                # client's job when it applies the upsert
                defs[key] = RecordDef(key, current.answer, grown)
                changed = True
            selected = self.rng.choice(observed)
            self._queue_rotation(key, defs[key], selected)
            return changed
        if self._classify_lb(key, now):
            pool = {current.answer} | set(observed)
            for _, seen in self._change_history.get(key, ()):
                pool |= seen
            pooled = RecordDef(key, current.answer, _canonical_answers(pool))
            defs[key] = pooled
            self._queue_rotation(key, pooled, self.rng.choice(observed))
            return True
        selected = self.rng.choice(observed)
        if selected != current.answer:
            defs[key] = RecordDef(key, selected)
            return True
        return False

    def _note_change(
        self, key: RecordKey, observed: tuple[bytes, ...], now: float
    ) -> None:
        history = self._change_history.setdefault(key, [])
        snapshot = frozenset(observed)
        if not history or history[-1][1] != snapshot:
            history.append((now, snapshot))
        cutoff = now - LB_CHANGE_WINDOW
        while history and history[0][0] < cutoff:
            del history[0]

    def _seed_history(
        self, key: RecordKey, observed: tuple[bytes, ...], now: float
    ) -> None:
        # a list, not a deque: every listed record has a history, and a
        # deque takes 760 bytes even with one entry
        self._change_history[key] = [(now, frozenset(observed))]

    def _classify_lb(self, key: RecordKey, now: float) -> bool:
        history = self._change_history.get(key, ())
        cutoff = now - LB_CHANGE_WINDOW
        distinct = {snap for when, snap in history if when >= cutoff}
        return len(distinct) >= LB_CHANGE_THRESHOLD

    def _queue_rotation(
        self, key: RecordKey, record: RecordDef, selected: bytes
    ) -> None:
        # deltas accumulate in the current pool frame; a delta queued just
        # before a pool extension may land on a neighbor entry, which only
        # shifts which valid answer is active, never breaks convergence
        pool = record.pool
        virtual = (
            pool.index(record.answer) + self._pending_offsets.get(key, 0)
        ) % len(pool)
        delta = (pool.index(selected) - virtual) % len(pool)
        if delta:
            self._pending_offsets[key] = self._pending_offsets.get(key, 0) + delta

    def _schedule_key(self, key: RecordKey, ttl: int, now: float) -> None:
        self.schedule.schedule(key, now + max(ttl, self.cfg.min_ttl))

    # -- LB pointer batching -------------------------------------------------

    def flush_lb_updates(self, now: float) -> LbUpdate | None:
        """Emit one coalesced pointer batch, rate-limited to min_ttl."""
        if (
            self._last_lb_flush is not None
            and now - self._last_lb_flush < self.cfg.min_ttl
        ):
            return None
        if not self._pending_offsets:
            return None
        entry_of = {key: i for i, key in enumerate(self.plist.lb_entry_order)}
        entries = []
        for key, delta in self._pending_offsets.items():
            if key not in entry_of:
                continue
            delta %= len(self.plist.records[key].pool)
            if delta:
                entries.append((entry_of[key], delta))
        self._pending_offsets.clear()
        if not entries:
            return None
        entries.sort()
        self._last_lb_flush = now
        update = LbUpdate(tuple(entries))
        self.plist = apply_lb_update(self.plist, update.entries)
        return update


class SimulatedUpstream:
    """Adapter turning a plain function into the upstream interface."""

    def __init__(self, fn):
        self._fn = fn

    def resolve(self, key: RecordKey) -> UpstreamAnswer:
        return self._fn(key)


class PlainUdpUpstream:
    """Classic UDP resolver client used by the live server daemon."""

    def __init__(
        self,
        endpoint: tuple[str, int],
        timeout: float = 2.0,
        retries: int = 2,
        rng: Random | None = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.rng = rng or Random()

    def resolve(self, key: RecordKey) -> UpstreamAnswer:
        txid = self.rng.randrange(1 << 16)
        query = build_query(txid, key)
        for _ in range(self.retries):
            try:
                parsed = parse_response(udp_exchange(query, self.endpoint, self.timeout))
                if parsed.question == key:  # a reply to another question is no reply
                    return self._interpret(key, parsed)
            except (OSError, ValueError):  # no reply; malformed or ill-sized answers
                continue
        raise UpstreamFailure(f"no usable response for {key}")

    @staticmethod
    def _interpret(key: RecordKey, parsed) -> UpstreamAnswer:
        if parsed.rcode == 3:  # name error: the record should leave the list
            return UpstreamAnswer(ttl=300)
        if parsed.rcode != 0:
            raise UpstreamFailure(f"rcode {parsed.rcode}")
        answers = []
        cname = None
        ttls = []
        for ans in parsed.answers:
            if ans.owner != key.name:
                continue
            if ans.type_code == int(key.rtype):
                RecordAnswer(key.rtype, ans.data)  # ValueError when ill-sized
                answers.append(ans.data)
                ttls.append(ans.ttl)
            elif ans.type_code == int(RecordType.CNAME) and cname is None:
                cname = RecordAnswer(RecordType.CNAME, ans.data).cname_target
                ttls.append(ans.ttl)
        ttl = min(ttls) if ttls else 300
        return UpstreamAnswer(ttl=ttl, answers=tuple(answers), cname=cname)
