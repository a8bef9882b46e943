"""The list maintainer as it stood before refreshes became incremental:
every refresh ranks, ensures, closes and diffs all ranked keys.  Kept
verbatim as the oracle the incremental `Maintainer` must match step for
step."""

import heapq
from collections import Counter, OrderedDict, deque
from random import Random
from typing import Iterable, Mapping

from lluad.dnsmsg import DomainName, RecordAnswer, RecordKey, RecordType
from lluad.maintenance import (
    LB_CHANGE_THRESHOLD,
    LB_CHANGE_WINDOW,
    REQUERY_BACKOFF_BASE,
    REQUERY_BACKOFF_CAP,
    SCORE_CAP_FACTOR,
    WEIGHT_A,
    LbUpdate,
    MaintenanceConfig,
    MembershipUpdate,
    PopularityScore,
    TtlSchedule,
    UpdateMessage,
    Upstream,
    UpstreamFailure,
    update_score,
)
from lluad.poplist import (
    CNAME_CHAIN_LIMIT,
    RecordDef,
    apply_lb_update,
    apply_membership_update,
    build_list,
)


def _canonical_answers(answers: Iterable[bytes]) -> tuple[bytes, ...]:
    return tuple(sorted(set(answers)))


class OracleScoreBoard:
    """All known scores, capped by shedding the lowest effective score
    so forgotten records eventually drop."""

    def __init__(self, cfg: MaintenanceConfig):
        self._cap = SCORE_CAP_FACTOR * cfg.n_popular
        self._scores: OrderedDict[RecordKey, PopularityScore] = OrderedDict()

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: RecordKey) -> bool:
        return key in self._scores

    def apply_round(self, round_index: int, tallies: Mapping[RecordKey, int]) -> None:
        for key, occurrences in tallies.items():
            prev = self._scores.get(key) or PopularityScore(key, 0.0, round_index - 1)
            self._scores[key] = update_score(prev, occurrences, round_index)
        excess = len(self._scores) - self._cap
        if excess > 0:
            # shed the weakest scores, stalest first on ties; recency alone
            # would let one busy round flush the whole popular head
            victims = heapq.nsmallest(
                excess,
                self._scores.values(),
                key=lambda s: (
                    s.weighted * (1.0 - WEIGHT_A) ** (round_index - s.last_round),
                    s.last_round,
                    s.key.sort_key(),
                ),
            )
            for score in victims:
                del self._scores[score.key]

    def top(
        self, round_index: int, n: int, incumbents: frozenset[RecordKey]
    ) -> list[RecordKey]:
        """Rank by effective score; ties keep incumbents, then fall back to
        canonical key order so the result is deterministic."""
        decay = 1.0 - WEIGHT_A
        ranked = []
        for k, score in self._scores.items():
            eff = score.weighted * decay ** (round_index - score.last_round)
            if eff > 0.0:
                ranked.append((-eff, k not in incumbents, k.sort_key(), k))
        return [entry[-1] for entry in heapq.nsmallest(n, ranked)]


class OracleMaintainer:
    """Owns the authoritative list and produces the update stream.

    Flow: ingest_votes() accumulates a round's tallies; run_refresh() ranks
    and reshapes membership; run_ttl() requeries expiring records and queues
    pool rotations; flush_lb_updates() batches queued rotations, at most one
    batch per min_ttl.  Every method returns the messages to broadcast.
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
        self.scores = OracleScoreBoard(cfg)
        self.plist = build_list([])
        self.round_index = 0
        self.schedule = TtlSchedule()
        self._tallies: Counter[RecordKey] = Counter()
        self._top: list[RecordKey] = []
        self._pending_offsets: dict[RecordKey, int] = {}
        self._last_lb_flush: float | None = None
        self._change_history: dict[RecordKey, deque[tuple[float, frozenset[bytes]]]] = {}
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
        top = self.scores.top(
            self.round_index, self.cfg.n_popular, frozenset(self._top)
        )
        self._top = top
        defs = dict(self.plist.records)
        for voted in top:
            self._ensure_chain(defs, voted, now)
        return self._commit_membership(defs, now)

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

    def _closure_keys(self, defs: dict[RecordKey, RecordDef]) -> set[RecordKey]:
        """Def keys reachable from the ranked set through complete chains."""
        needed: set[RecordKey] = set()
        for voted in self._top:
            links: list[RecordKey] = []
            name = voted.name
            for _ in range(CNAME_CHAIN_LIMIT):
                key = RecordKey(name, voted.rtype)
                if key in defs:
                    links.append(key)
                    needed.update(links)
                    break
                ck = RecordKey(name, RecordType.CNAME)
                if ck not in defs:
                    break
                links.append(ck)
                name = defs[ck].cname_target
        return needed

    def _commit_membership(
        self, defs: dict[RecordKey, RecordDef], now: float
    ) -> list[UpdateMessage]:
        """Diff edited defs against the list, then apply and return the
        messages: the removals, then the additions.

        The list retains a removed record while a surviving CNAME targets
        it.  When the removals alone would retain one (a CNAME that the
        additions retarget still points at it), a single message carries
        both halves, so the list lands on exactly the needed records."""
        current = self.plist.records
        needed = self._closure_keys(defs)
        removals = tuple(
            sorted((k for k in current if k not in needed), key=RecordKey.sort_key)
        )
        additions = tuple(
            sorted(
                (defs[k] for k in needed if defs[k] != current.get(k)),
                key=lambda d: d.key.sort_key(),
            )
        )
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
        defs = dict(self.plist.records)
        structure_dirty = False
        touched = False
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
                    structure_dirty = touched = True
                elif answer.cname != defs[key].cname_target:
                    defs[key] = RecordDef(key, RecordAnswer.cname(answer.cname).data)
                    structure_dirty = touched = True
                continue
            observed = _canonical_answers(answer.answers)
            if not observed:
                del defs[key]
                structure_dirty = touched = True
                continue
            touched |= self._absorb_answers(defs, key, observed, now)
        if not touched:
            return []
        if structure_dirty:
            for voted in self._top:
                self._ensure_chain(defs, voted, now)
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
        history = self._change_history.setdefault(key, deque())
        snapshot = frozenset(observed)
        if not history or history[-1][1] != snapshot:
            history.append((now, snapshot))
        cutoff = now - LB_CHANGE_WINDOW
        while history and history[0][0] < cutoff:
            history.popleft()

    def _seed_history(
        self, key: RecordKey, observed: tuple[bytes, ...], now: float
    ) -> None:
        self._change_history[key] = deque([(now, frozenset(observed))])

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
