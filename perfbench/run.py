"""orimat benchmark: runs one workload through the CLI and prints its metrics.

    python3 perfbench/run.py --workload database --seed 1 --seconds 50 --trace 0

Run from the repository root.  Inputs are generated from --seed (untimed,
cached in perfbench/.cache), ``setup_s`` is measured in fresh interpreters,
and the timed passes run in a separate worker process.  Every output is
checked.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 9  # fresh interpreters timed per run, after one untimed warm-up
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import orimat.cli; orimat.cli.build_parser(); print(time.perf_counter() - t)"
)
WORKER_TIMEOUT_S = 150


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import orimat.cli and build the
    parser, which a CLI user pays on every invocation.  The first spawn is
    discarded: it may compile the bytecode cache."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return median(times[1:])


def run_worker(workload: str, d: Path, seconds: int, trace: int) -> dict:
    out = d / f"result-{trace}.json"
    out.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(d), str(seconds), str(trace), str(out)],
        cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
    )
    result = json.loads(out.read_text())
    out.unlink()
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orimat" / "cli.py").is_file():
        print(f"error: no orimat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    d = inputs.inputs_dir(args.workload, args.seed)
    setup_s = None if args.trace else setup_seconds()
    result = run_worker(args.workload, d, args.seconds, args.trace)

    passes = result["passes"]
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} timed passes")
    if args.trace:
        declared = spec["per_layer"]
        values = result["layers"]
    else:
        declared = spec["end_to_end"]
        # Means over the run's passes: pass time drifts with the machine's
        # speed within seconds, so the whole measured window is steadier
        # than a median of a few passes.  Comparisons take medians across runs.
        pass_s = sum(p["pass_s"] for p in passes) / len(passes)
        ref_s = sum(p["ref_s"] for p in passes) / len(passes)
        rows = passes[0]["rows"]
        values = {"setup_s": setup_s, "pass_rel": pass_s / ref_s, "peak_rss_mb": result["peak_rss_mb"]}
        print(f"  pass_s {pass_s} s (wall, not drift-corrected)")
        print(f"  rows_per_s {rows / pass_s} 1/s ({rows} rows per pass)")
        print(f"  ref_s {ref_s} s (reference loop)")
    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = result["attempted"], len(result["failures"])
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']} {metric['unit']}")
    print(f"  error_rate {failed / attempted} ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
