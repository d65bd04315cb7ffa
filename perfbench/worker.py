"""Runs one workload's passes in a fresh process and writes what it measured.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR SECONDS TRACE OUT_JSON

run.py starts it after generating the inputs, so the peak RSS reported is
that of the process running the passes.  Each invocation calls
``orimat.cli.main`` in-process with stdout and stderr captured; an exception
it raises counts as a failed operation and the pass goes on.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from reference import reference_seconds  # noqa: E402
import workloads  # noqa: E402
from checks import Outcome  # noqa: E402

MIN_PASSES = 3  # untraced passes per run; a traced run makes 2 of each kind
MIN_TRACED = 2


def run_pass(invocations) -> dict:
    """One timed pass; only the ``main`` calls are inside the clock.  The
    reference loop runs right before and right after each call."""
    from orimat import cli

    took, ref_s, rows, out_bytes, failures = 0.0, 0.0, 0, 0, []
    for inv in invocations:
        if inv.prepare is not None:
            inv.prepare()
        ref_s += reference_seconds()
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(list(inv.argv))
            except Exception as exc:  # a crash is a failed operation, not the end of the pass
                raised = exc
            took += perf_counter() - start
        ref_s += reference_seconds()
        if raised is not None:
            problem = f"raised {type(raised).__name__}: {raised}"
        else:
            try:
                problem = inv.check(Outcome(rc, out.getvalue(), err.getvalue()))
            except Exception as exc:  # unparseable output fails its check
                problem = f"output check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{' '.join(inv.argv)}: {problem}")
        rows += inv.rows
        out_bytes += len(out.getvalue().encode()) + len(err.getvalue().encode())
    return {
        "pass_s": took,
        "ref_s": ref_s / (2 * len(invocations)),
        "rows": rows,
        "attempted": len(invocations),
        "failures": failures,
        "output_bytes": out_bytes,
    }


def traced_pass(invocations, expected) -> tuple[dict, dict]:
    rec = spans.Recorder()
    undo = rec.install()
    try:
        result = run_pass(invocations)
    finally:
        rec.uninstall(undo)
    missed = [name for name in expected if rec.spans[name][0] == 0]
    if missed:
        raise RuntimeError(f"traced pass never entered {missed}: an import site was missed")
    layers = spans.pass_metrics(rec, result["pass_s"], result["output_bytes"])
    return result, {"pass_s": result["pass_s"], **layers}


def measure(invocations, seconds: float, trace: bool, expected) -> dict:
    """Passes until ``seconds`` would be exceeded, but at least the minimum.
    A traced run alternates untraced and traced passes; every pass, traced or
    not, has its outputs checked."""
    start = perf_counter()
    timed, traced, checked = [], [], []
    while True:
        checked.append(run_pass(invocations))
        timed.append(checked[-1])
        step = median(p["pass_s"] for p in timed)
        if trace:
            result, layers = traced_pass(invocations, expected)
            checked.append(result)
            traced.append(layers)
            step += median(t["pass_s"] for t in traced)
        enough = len(traced) >= MIN_TRACED if trace else len(timed) >= MIN_PASSES
        if enough and perf_counter() - start + step > seconds:
            break
    out = {
        "passes": [{k: p[k] for k in ("pass_s", "ref_s", "rows")} for p in timed],
        "attempted": sum(p["attempted"] for p in checked),
        "failures": [f for p in checked for f in p["failures"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["layers"] = spans.layer_metrics([p["pass_s"] for p in timed], traced)
    return out


def main(argv: list[str]) -> int:
    workload, inputs, seconds, trace, out_path = argv
    invocations = workloads.build(workload, Path(inputs))
    result = measure(
        invocations, float(seconds), trace == "1", workloads.EXPECTED_SPANS[workload]
    )
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
