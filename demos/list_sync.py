"""Leader and follower list maintenance over the update codecs.

The maintainer absorbs vote tallies and TTL requeries; a follower that
only ever sees the encoded update stream stays byte-identical to the
leader's own snapshot, which is what lets thousands of clients share
one broadcast channel instead of re-downloading the list.
"""

from random import Random

from lluad.maintenance import LbUpdate, MaintenanceConfig, Maintainer, apply_update
from lluad.poplist import record_count, serialize
from lluad.traces import SyntheticUniverse, UniverseConfig
from lluad.wire import (
    decode_lb_update,
    decode_list_snapshot,
    decode_membership_update,
    encode_lb_update,
    encode_list_snapshot,
    encode_membership_update,
)

ROUNDS = 12


def main() -> None:
    universe = SyntheticUniverse(UniverseConfig(2000, seed=3, lb_fraction=0.2))
    now = [0.0]
    cfg = MaintenanceConfig(n_popular=150, t_refresh=600)
    maintainer = Maintainer(
        cfg, universe.upstream(clock=lambda: now[0]), rng=Random(3)
    )

    rng = Random(7)

    def vote_batch(count: int):
        # cube the uniform draw so votes lean toward low ranks
        return [
            universe.keys[int(len(universe.keys) * rng.random() ** 3)]
            for _ in range(count)
        ]

    maintainer.ingest_votes(vote_batch(400))
    maintainer.run_refresh(now[0])
    follower = decode_list_snapshot(encode_list_snapshot(maintainer.plist))
    print(
        f"follower bootstrapped at generation {follower.generation}, "
        f"{record_count(follower)} records"
    )

    wired = 0
    for _ in range(ROUNDS):
        now[0] += cfg.t_refresh
        maintainer.ingest_votes(vote_batch(150))
        updates = list(maintainer.run_refresh(now[0]))
        updates += maintainer.run_ttl(now[0])
        lb = maintainer.flush_lb_updates(now[0])
        if lb is not None:
            updates.append(lb)
        for message in updates:
            # round trip every message through its wire codec first
            if isinstance(message, LbUpdate):
                message = decode_lb_update(encode_lb_update(message))
            else:
                message = decode_membership_update(encode_membership_update(message))
            follower = apply_update(follower, message)
            wired += 1

    leader = maintainer.plist
    print(f"replayed {wired} encoded updates over {ROUNDS} refresh rounds")
    print("structures match:", follower.same_structure(leader))
    print(
        "snapshots byte-identical:",
        serialize(follower, compress=True) == serialize(leader, compress=True),
    )


if __name__ == "__main__":
    main()
