"""Desk-scale run of the figure batch that `lluad plotdata` writes.

Calls `simharness.write_figure_batch` on a small Zipf trace (hit ratio
at three list sizes, exposure under collusion, update bandwidth against
a full re-send, per-mode latency) and prints a summary from what it
returns. The CSVs and a reproducibility manifest land in ./demo_out.
"""

from pathlib import Path

from lluad.simharness import steady_hit_ratio, write_figure_batch
from lluad.traces import SyntheticUniverse, UniverseConfig, ZipfGeneratorConfig

OUT = Path(__file__).parent / "demo_out"
SEED = 7
N_VALUES = [100, 400, 1600]


def main() -> None:
    trace_cfg = ZipfGeneratorConfig(
        universe=20_000, clients=150, queries_per_client_hour=40, hours=10, seed=SEED
    )
    universe = SyntheticUniverse(UniverseConfig(trace_cfg.universe, seed=SEED))
    batch = write_figure_batch(OUT, universe, trace_cfg, N_VALUES, max_votes=10, seed=SEED)
    print(f"trace: {len(batch.trace)} queries from {len(batch.trace.clients)} clients")
    for n, rows in batch.series.items():
        print(f"  list of {n:5d}: steady hit ratio {steady_hit_ratio(rows):.1%}")
    print(f"voted at the largest list: {batch.vote_fraction:.1%} of queries")
    # modes converge at full collusion; half collusion shows the spread
    half = ", ".join(f"{m}={curve[10][1]:.1%}" for m, curve in batch.exposure.items())
    print(f"exposure at half collusion: {half}")
    print(f"exposure at full collusion: {batch.exposure['plain'][-1][1]:.1%} for every mode")
    lb = batch.bandwidth.total("lb_update_bytes")
    baseline = batch.bandwidth.total("baseline_lb_bytes")
    saved = 1 - lb / baseline
    print(f"pointer updates: {lb} B vs {baseline} B full-tuple baseline ({saved:.1%} less)")
    print(f"doh fallback at the steady hit ratio: {batch.latency['doh'][1]:.1f} ms per lookup")
    print(f"\nwrote {len(list(OUT.iterdir()))} files to {OUT}")


if __name__ == "__main__":
    main()
