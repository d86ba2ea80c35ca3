#!/usr/bin/env python3
"""Verdict-level benchmark of the repro verifier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload litmus --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen, its size and
which layer should move which metric on it):

* ``litmus``   — the litmus catalog, five verdicts per entry;
* ``library``  — lock refinement, Lemma 3 rules, proof outlines;
* ``wide-seq`` — one sequential exploration of the wide(5,2) grid;
* ``wide-w2``  — the same exploration on two pipeline workers, twice.

Each invocation byte-compiles the tree, then starts fresh interpreters
(``workload.py``): several that only set up, for the median ``setup_s``,
and one that sets up and measures.  Every child runs with the result
cache off, ``REPRO_CACHE_DIR`` in a throwaway directory, no inherited
``REPRO_*`` settings, and ``PYTHONHASHSEED`` derived from ``--seed``.

The end-to-end times (``verdicts_per_sec``, the latency percentiles,
``setup_s``) are wall times corrected to a reference host speed, which
the children sample while they run (``workload.HostSpeed``): the host
is shared and its speed drifts by 15-25 % within a minute.  The speed
and the uncorrected rate are reported per layer.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (and writes the spans under
``.bench_build/perfbench/``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero, with no result printed, when the tree has no
``src/repro`` or a child fails.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("litmus", "library", "wide-seq", "wide-w2")
#: Fresh interpreters timed per invocation for the median ``setup_s``.
SETUPS = 3
SMOKE_SETUPS = 2
#: Wall-clock limit of one invocation; a child still running past it is
#: killed with its workers.
INVOCATION_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def run_child(args, env, deadline):
    """Run ``workload.py`` with ``args``; return its final JSON line.

    The child leads its own process group, so when ``deadline`` (a
    ``time.monotonic()`` value) passes, the kill reaches its pipeline
    workers too."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{' '.join(args)}: still running at the {INVOCATION_LIMIT_S}s limit")
    finally:
        # Reap anything the child left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{' '.join(args)}: no output")
    return json.loads(lines[-1])


def child_env(seed: int, cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(seed % 2**32),
        REPRO_CACHE="0",
        REPRO_CACHE_DIR=cache_dir,
    )
    return env


def byte_compile() -> None:
    """Compile the tree in place, so no timed set-up pays for a compile
    pass."""
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            raise ChildFailed(f"byte-compiling {tree} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="verdict-level benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes and fewer set-up samples (the benchmark's own test)",
    )
    args = parser.parse_args(argv)

    deadline = time.monotonic() + INVOCATION_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
    env = child_env(args.seed, cache_dir)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    setups = SMOKE_SETUPS if args.smoke else SETUPS
    try:
        byte_compile()
        samples = [
            run_child(common + ["--setup-only"], env, deadline)["setup"]
            for _ in range(setups - 1)
        ]
        measured = run_child(
            common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans)],
            env,
            deadline,
        )
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    samples.append(measured["setup"])
    metrics = dict(measured["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in samples), "s")
    else:
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in samples), "s")
        metrics["lang.build_s"] = (statistics.median(s["build_s"] for s in samples), "s")

    wrong = measured["wrong"]
    for label in sorted(set(wrong)):
        known = "known defect" if label not in measured["unexpected"] else "WRONG"
        print(f"  {known}: {label} (x{wrong.count(label)})", file=sys.stderr)
    print(
        f"perfbench {args.workload} seed={args.seed}: {measured['attempted']} verdicts, "
        f"{len(wrong)} wrong, {measured['samples']} latency samples, "
        f"host speed {measured['host_speed']:.3f}",
        file=sys.stderr,
    )
    result = {
        "correct": not measured["unexpected"],
        "attempted": measured["attempted"],
        "failed": len(wrong),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
