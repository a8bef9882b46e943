"""Before/after evidence for a change: the benchmark run on a base
revision and on the working tree, in alternating pairs.

    python3 tools/compare.py --base HEAD --pairs 10

The change's number <n> is read from the `# ISSUE <n>` heading of
ISSUE.md.  Pair i runs seed 1000·n + i on both sides, so each change is
measured on seeds that no earlier change used.  The base revision
(`git archive`) and the working tree (tracked and untracked files that
git does not ignore) are copied into a temporary directory.  For each
pair it runs, on both copies,

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

alternating which side goes first, then traced runs (`--trace 1`) in
alternating pairs on the seeds of the first min(3, --pairs) pairs.
Writes `BENCH_<n>.json` at the repository root with the machine, each
side's median, quartiles and pair wins per workload and end-to-end
metric, attempted and failed operations, every run, and each side's
median over its traced runs of every per-layer figure, and each side's
`src/lluad` line count, per module and in total.  Prints the end-to-end
table and the net change in source lines.
Exits 1 when any run is incorrect or fails an operation.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def _copy_base(rev: str, dest: Path) -> None:
    archive = _git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _copy_working_tree(dest: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a deleted tracked file is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(side_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "units": {},
                "error": f"exit {proc.returncode}, no result line"}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "units": {k: v["unit"] for k, v in summary["metrics"].items()},
    }


def _source_lines(side_dir: Path) -> dict:
    """Lines (as `wc -l` counts them) of each `src/lluad` module, and their total."""
    modules = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((side_dir / "src" / "lluad").glob("*.py"))
    }
    return {"modules": modules, "total": sum(modules.values())}


def _line_changes(lines: dict) -> str:
    base, change = lines["base"], lines["change"]
    out = [f"src/lluad lines: {base['total']} -> {change['total']} "
           f"({change['total'] - base['total']:+d})"]
    for name in sorted(base["modules"].keys() | change["modules"].keys()):
        before, after = base["modules"].get(name, 0), change["modules"].get(name, 0)
        if before != after:
            out.append(f"  {name}: {before} -> {after} ({after - before:+d})")
    return "\n".join(out)


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload: each side's spread and pair wins for every
    end-to-end metric of `spec` (BENCHMARK.json), operation counts, and
    the traced runs' per-layer figures."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        timed = {side: sorted((r for r in mine if r["side"] == side and not r["trace"]),
                              key=lambda r: r["pair"]) for side in SIDES}
        traced = {side: [r for r in mine if r["side"] == side and r["trace"]] for side in SIDES}
        metrics = {}
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            values = {s: [r["metrics"][name] for r in timed[s] if name in r["metrics"]]
                      for s in SIDES}
            if not values["base"] or len(values["base"]) != len(values["change"]):
                continue
            wins = {"base": 0, "change": 0}
            for b, c in zip(values["base"], values["change"]):
                if b != c:
                    wins["change" if (c < b) == lower else "base"] += 1
            row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for s in SIDES:
                row[s] = {**_spread(values[s]), "runs": values[s], "wins": wins[s]}
            base_med, change_med = row["base"]["median"], row["change"]["median"]
            row["change_vs_base"] = (change_med - base_med) / base_med if base_med else None
            worse = change_med - base_med if lower else base_med - change_med
            row["within_bound"] = worse <= m["bound"] * abs(base_med)
            row["gain_shown"] = (
                wins["change"] >= 0.9 * len(values["base"])
                and -worse > row["base"]["q3"] - row["base"]["q1"]
            )
            metrics[name] = row
        out[workload] = {
            "attempted": {s: sum(r["attempted"] for r in timed[s] + traced[s]) for s in SIDES},
            "failed": {s: sum(r["failed"] for r in timed[s] + traced[s]) for s in SIDES},
            "all_correct": all(r["correct"] for r in mine),
            "end_to_end": metrics,
            "per_layer": _per_layer(traced),
        }
    return out


def _per_layer(traced: dict) -> dict:
    """Each side's median over its traced runs, per layer metric."""
    if not all(traced[s] for s in SIDES):
        return {}
    out = {}
    for name, unit in traced["base"][0]["units"].items():
        row = {"unit": unit}
        for s in SIDES:
            values = [r["metrics"][name] for r in traced[s] if name in r["metrics"]]
            row[s] = statistics.median(values) if values else None
        out[name] = row
    return out


def _table(summary: dict) -> str:
    lines = ["| workload | metric | base median [q1, q3] | change median [q1, q3] | change | wins |",
             "|---|---|---|---|---|---|"]
    for workload, w in summary.items():
        for name, row in w["end_to_end"].items():
            b, c = row["base"], row["change"]
            rel = "n/a" if row["change_vs_base"] is None else f"{row['change_vs_base']:+.1%}"
            lines.append(
                f"| {workload} | {name} ({row['unit']}) "
                f"| {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                f"| {rel} | {c['wins']}/{len(b['runs'])} |"
            )
    return "\n".join(lines)


def _issue_number() -> int:
    heading = re.search(r"^# ISSUE (\d+)\b", (ROOT / "ISSUE.md").read_text(), re.MULTILINE)
    if heading is None:
        raise SystemExit("ISSUE.md has no '# ISSUE <n>' heading")
    return int(heading.group(1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeat for several; default: every workload")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    number = _issue_number()
    seeds = [1000 * number + pair for pair in range(args.pairs)]
    traced_pairs = min(3, args.pairs)

    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head_rev = _git("rev-parse", "HEAD").decode().strip()
    dirty = bool(_git("status", "--porcelain").strip())
    runs = []
    with tempfile.TemporaryDirectory(prefix="lluad-compare-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        _copy_base(base_rev, dirs["base"])
        _copy_working_tree(dirs["change"])
        lines = {side: _source_lines(dirs[side]) for side in SIDES}
        plan = []
        for workload in args.workload or workloads:
            for trace, pairs in ((0, args.pairs), (1, traced_pairs)):
                for pair in range(pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    plan += [(workload, pair, side, seeds[pair], trace) for side in order]
        for i, (workload, pair, side, seed, trace) in enumerate(plan, 1):
            started = time.perf_counter()
            result = _run(dirs[side], workload, seed, args.seconds, trace)
            runs.append({"workload": workload, "pair": pair, "side": side, "seed": seed,
                         "trace": trace, **result})
            print(f"[{i}/{len(plan)}] {workload} {side} seed {seed} trace {trace}: "
                  f"correct {result['correct']}, failed {result['failed']}, "
                  f"{time.perf_counter() - started:.0f} s", flush=True)

    summary = _summarize(runs, spec)
    report = {
        "base": {"ref": args.base, "rev": base_rev},
        "change": {"rev": head_rev, "uncommitted_changes": dirty},
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "python": {"version": platform.python_version(),
                   "implementation": platform.python_implementation()},
        "settings": {"pairs": args.pairs, "seconds": args.seconds,
                     "seeds": seeds, "traced_seeds": seeds[:traced_pairs]},
        "source_lines": lines,
        "workloads": summary,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{number}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(_table(summary))
    print(_line_changes(lines))
    print(f"wrote {path}")
    bad = [r for r in runs if not r["correct"] or r["failed"]]
    for r in bad:
        print(f"bad run: {r['workload']} {r['side']} seed {r['seed']} trace {r['trace']}: "
              f"correct {r['correct']}, failed {r['failed']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
