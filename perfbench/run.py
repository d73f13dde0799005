"""senseclust benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a senseclust checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

The fixture is generated from the seed (fixtures.py) and removed at the
end. The workload then runs as a closed loop of passes for about
``--seconds``: each pass runs in a fresh worker process (worker.py) that
starts after the previous one has exited, a new pass starts only if it
should end within that time, and at least one pass always runs. Every pass
is checked; a failed check, an exception or a crashed worker counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics, as medians over the passes
(``peak_rss_mb`` as the highest pass). ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
the tracing overhead (traced minus untraced ``run_s``), and senseclust
versus scipy speed references. Spans are written to
``.perfbench/traces/<workload>-seed<seed>-pass<k>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds output hashes, per-pass times and the settings, for information.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"search": 1, "induce": 4, "large-n": 1}  # operations per pass
# A run must end within 180 s; a child still running at this deadline is
# killed, and the run fails.
DEADLINE = time.monotonic() + 170

sys.path.insert(0, str(HERE))
from worker import PACKAGE  # noqa: E402


def python(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))


def closed_loop(seconds: float, step) -> list:
    """Call step() back to back while the next call should end in time."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "ratio" in name or "per_wall" in name:
        return "ratio"
    return "count"


UNITS = {"configs_per_s": "1/s", "peak_rss_mb": "MB", "ari": "ARI"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="senseclust benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE} not found: run from a senseclust checkout")

    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    traces = ROOT / ".perfbench" / "traces"
    passes: list[dict] = []

    def run_pass(mode: str) -> dict:
        pass_id = len(passes) + 1
        extra = ["--pass-id", str(pass_id)]
        if mode == "traced":
            out = traces / f"{args.workload}-seed{args.seed}-pass{pass_id}.jsonl"
            extra += ["--trace-out", str(out)]
        proc = python("worker.py", "--workload", args.workload, "--fixture", str(work),
                      "--mode", mode, *extra)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"pass": {"problems": [f"worker exit {proc.returncode}: "
                                            f"{proc.stderr.strip()[-400:]}"]},
                      "failed": WORKLOADS[args.workload]}
        result["pass"].setdefault("attempted", WORKLOADS[args.workload])
        passes.append(result)
        return result

    try:
        proc = python("fixtures.py", "--workload", args.workload,
                      "--seed", str(args.seed), "--out", str(work))
        if proc.returncode != 0:
            raise SystemExit(f"error: fixture generation failed\n{proc.stderr}")
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        info = {"workload": args.workload, "seed": args.seed,
                "fixture": {k: manifest[k] for k in ("contexts", "tokens",
                                                     "oov_contexts", "senses")}}
        if args.trace:
            pairs = closed_loop(args.seconds,
                                lambda: (run_pass("plain"), run_pass("traced")))
            layers = [t["layers"] for _, t in pairs if "layers" in t]
            metrics = ({name: median(m[name] for m in layers) for name in layers[0]}
                       if layers else {})
            metrics["trace.overhead_s"] = (
                median(t["pass"].get("run_s", 0.0) for _, t in pairs)
                - median(p["pass"].get("run_s", 0.0) for p, _ in pairs))
            refs = python("worker.py", "--workload", args.workload,
                          "--fixture", str(work), "--mode", "refs")
            refs_out = json.loads(refs.stdout.strip().splitlines()[-1])
            metrics.update(refs_out["refs"])
            info["speed_references"] = refs_out["info"]
        else:
            closed_loop(args.seconds, lambda: run_pass("plain"))
            ok = [r["pass"] for r in passes if "run_s" in r["pass"]]
            metrics = {} if not ok else {
                "run_s": median(p["run_s"] for p in ok),
                "setup_s": median(p["setup_s"] for p in ok),
                "configs_per_s": median(p["configs"] / p["configs_s"] for p in ok),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in passes if "peak_rss_mb" in r),
                "cpu_s": median(p["cpu_s"] for p in ok),
                "ari": median(p["ari"] for p in ok),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [msg for r in passes for msg in r["pass"].get("problems", [])]
    info.update({
        "passes": len(passes),
        "run_s": [r["pass"].get("run_s") for r in passes],
        "outputs": sorted({f"{k}={v}" for r in passes
                           for k, v in r["pass"].get("outputs", {}).items()}),
        "problems": problems,
        "nproc": os.cpu_count(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["pass"]["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": {name: {"value": value, "unit": UNITS.get(name, unit_of(name))}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
