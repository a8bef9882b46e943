"""Self-test of the benchmark, kept apart from the program's tests:

    python3 -m pytest bench/selftest.py -q

Each workload runs at a tiny size.  Every oracle must pass the
program's real outputs and catch a corruption planted in a copy of
one output, counting it as one failed operation; the traced round
must make exactly the curve multiplications its shape implies.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import OUT, load_program  # noqa: E402

load_program()

import list_sync  # noqa: E402
import stub_zipf  # noqa: E402
import vote_round  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_STUB = stub_zipf.Config(universe=2000, n_popular=500, setups=1, block=100)
TINY_SYNC = list_sync.Config(
    universe=1200, n_popular=1000, clients=30, queries_per_client_hour=20, setups=1, min_hours=1
)
TINY_VOTE = vote_round.Config(clients=6, quota=3, hops=2, shufflers=4, known_records=200, setups=1)


def test_stub_zipf_passes_real_outputs():
    res = stub_zipf.run(3, 0.3, cfg=TINY_STUB)
    assert res.attempted > 0
    assert (res.failed, res.correct) == (0, True), res.notes


def test_stub_zipf_catches_a_wrong_fallback_answer():
    from lluad.dnsmsg import RecordAnswer

    planted = []

    def plant(resolve):
        def wrong_once(key):
            answers = resolve(key)
            if answers and not planted:
                last = answers[-1]
                flipped = bytes([last.data[0] ^ 0xFF]) + last.data[1:]
                answers = answers[:-1] + [RecordAnswer(last.rtype, flipped)]
                planted.append(key)
            return answers

        return wrong_once

    res = stub_zipf.run(3, 0.3, cfg=TINY_STUB, plant=plant)
    assert planted
    assert res.failed == 1, res.notes


def test_list_sync_passes_real_outputs():
    res = list_sync.run(4, 0.1, cfg=TINY_SYNC)
    assert res.attempted == 62  # 60 ticks, one refresh, one reconnect
    assert (res.failed, res.correct) == (0, True), res.notes


def test_list_sync_catches_a_follower_that_skips_an_update():
    seen = []

    def plant(follower):
        # at the fifth check, show the list as it stood one check before
        seen.append(follower)
        return seen[-2] if len(seen) == 5 else follower

    res = list_sync.run(4, 0.1, cfg=TINY_SYNC, plant=plant)
    assert seen[3].generation < seen[4].generation  # an update really was skipped
    assert res.failed == 1, res.notes


def test_vote_round_passes_real_outputs():
    res = vote_round.run(5, 0.2, cfg=TINY_VOTE)
    assert res.attempted >= 1
    assert (res.failed, res.correct) == (0, True), res.notes


def test_vote_round_catches_a_dropped_relay_packet():
    class DropOne:
        """Hands back a copy of the first relayed batch, minus a packet."""

        def __init__(self, inner):
            self.inner = inner
            self.dropped = False

        def begin_round(self, ctx):
            self.inner.begin_round(ctx)

        def exchange(self, assignments, phase, hop, t_timestamp):
            out = self.inner.exchange(assignments, phase, hop, t_timestamp)
            if phase == "vote" and not self.dropped:
                j = next(j for j, batch in out.items() if batch)
                out = dict(out)
                out[j] = out[j][1:]
                self.dropped = True
            return out

    res = vote_round.run(5, 0.2, cfg=TINY_VOTE, plant=DropOne)
    assert res.attempted >= 2
    assert res.failed == 1, res.notes


def test_traced_round_makes_the_mults_its_shape_implies():
    cfg = TINY_VOTE
    tracer = Tracer()
    try:
        res = vote_round.run(6, 0.2, tracer=tracer, cfg=cfg)
    finally:
        tracer.unwrap_all()
    packets = cfg.clients * cfg.quota
    # per packet: one mult_base, two per planned hop (the relays and the
    # exit), two per relay hop, one at the exit
    per_packet = 1 + 2 * (cfg.hops + 1) + 2 * cfg.hops + 1
    assert res.layers["curve.mult.calls"][0] == packets * per_packet
    assert res.layers["mixcrypto.transform_packet.calls"][0] == packets * cfg.hops
    assert res.layers["mixnet.packets_relayed"][0] == packets * cfg.hops
    assert res.failed == 0


def test_self_time_subtracts_child_spans():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            time.sleep(0.002)

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    Layer().outer()
    tracer.unwrap_all()
    stats = tracer.stats()
    outer, inner = stats["outer"], stats["inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert inner.self_s == inner.total_s >= 0.004
    assert abs(outer.self_s - (outer.total_s - inner.total_s)) < 1e-9
    assert Layer.outer.__name__ == "outer"  # unwrapped again


def test_run_without_the_program_fails_and_prints_no_result():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vote-round", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
