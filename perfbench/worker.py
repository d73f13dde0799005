"""One pass of a workload in a fresh process; prints its result as one JSON line.

Each pass gets its own process, as each ``senseclust`` command does for a
user. Allocator state and freed memory then do not carry over from one
pass to the next (in one long-lived process, the page faults of a grid
search changed from pass to pass), and the process's peak RSS is that of
the pass alone.

Modes: ``plain`` runs the pass untraced; ``traced`` wraps the package's
public names (see spans.py), reports per-layer metrics and writes the spans
to ``--trace-out``; ``refs`` times senseclust's distances and dendrograms
beside scipy's on the workload's inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "senseclust"


def import_package():
    """Import senseclust from this checkout's ``src``, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE} not found: run from a senseclust checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import senseclust

    if Path(senseclust.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported senseclust from {senseclust.__file__}, "
                         f"not from {PACKAGE}")
    return senseclust


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--fixture", type=Path, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "refs"), default="plain")
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--pass-id", type=int, default=1, help="recorded on each span")
    args = parser.parse_args(argv)

    import_package()
    import spans
    import workloads

    manifest = json.loads((args.fixture / "manifest.json").read_text(encoding="utf-8"))
    files = {k: manifest[k] for k in ("embeddings", "dataset", "idf")}
    files["format"] = manifest["spec"]["embeddings_format"]
    if args.mode == "refs":
        times, info = workloads.speed_references(files)
        print(json.dumps({"refs": times, "info": info}))
        return 0

    if args.workload == "induce":
        ids = workloads.dataset_ids(files["dataset"])

        def run_pass():
            return workloads.induce_pass(files, args.fixture, ids)
    else:
        space = workloads.search_space(args.workload)
        jobs = 1 if args.workload == "search" else 2

        def run_pass():
            return workloads.search_pass(files, space, jobs)

    out = {}
    if args.mode == "traced":
        tracer = spans.Tracer()
        tracer.op = args.pass_id
        spans.install(tracer)
        try:
            result = run_pass()
        finally:
            tracer.restore()
        out["layers"] = spans.layer_metrics(tracer.spans)
        tracer.write(args.trace_out)
    else:
        result = run_pass()
    out["pass"] = asdict(result)
    out["failed"] = result.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
