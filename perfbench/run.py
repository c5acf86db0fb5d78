"""The repository benchmark: ``sweep``, ``daily`` and ``serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py                        # all three workloads
    python3 perfbench/run.py --workload serve --seed 3 --seconds 20
    python3 perfbench/run.py --workload sweep --trace 1

Every measured workload run happens in a fresh interpreter whose
environment is scrubbed of the variables that steer the program (see
``common.child_env``).  With ``--trace 0`` the last line of standard
output is one JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a separate, traced pass over all
three workloads.  A failed oracle check makes the result incorrect and the
exit status 1.  See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    WORK_ROOT,
    BenchError,
    child_env,
    cpu_times,
    fingerprint,
    host_loop_ms,
    steal_share,
)

WORKLOADS = ("sweep", "daily", "serve")
#: Fresh-process set-ups per measured run; ``setup_s`` is their median.
#: ``daily`` and ``serve`` spend most of their set-up generating input and
#: building an index, too long to repeat in a run's budget: they repeat
#: only their server start (``common.restart_times``).
SETUP_REPEATS = {"sweep": 4, "daily": 1, "serve": 1}
#: A workload process that outlives this is killed and the run fails.
CHILD_TIMEOUT = 170.0

#: The table every measured run prints; BENCHMARK.json's ``end_to_end``
#: names the subset in the JSON result.
TABLE = ("setup_s", "throughput_per_s", "p50_ms", "p90_ms", "p99_ms", "peak_rss_mb", "error_rate")
UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def spawn(workload: str, mode: str, seed: int, seconds: float, deadline: float) -> Dict[str, Any]:
    """Run one workload process; returns its result with ``setup_s`` added."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = WORK_ROOT / f"{workload}-{mode}-{time.monotonic_ns()}"
    workdir.mkdir()
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", repr(seconds), "--out", str(out),
    ]
    try:
        spawned = time.monotonic()
        timeout = max(1.0, min(CHILD_TIMEOUT, deadline - spawned))
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout)
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"{workload} {mode} process exited {proc.returncode}")
        result = json.loads(out.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["ready"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, deadline: float) -> Dict[str, Any]:
    """Set-up probes, then the measured run, with host-noise samples."""
    loop_before = host_loop_ms()
    cpu_before = cpu_times()
    setups = [
        spawn(workload, "setup", seed, seconds, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS[workload] - 1)
    ]
    result = spawn(workload, "run", seed, seconds, deadline)
    # A workload that restarts only its server reports each start; the
    # first is part of the measured set-up.
    restarts = result.get("restart_s", [0.0])
    setups.extend(result["setup_s"] - restarts[0] + r for r in restarts)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["host.steal_share"] = steal_share(cpu_before, cpu_times())
    result["host.loop_ms"] = [loop_before, host_loop_ms()]
    return result


def trace_all(seed: int, seconds: float, deadline: float) -> Dict[str, Any]:
    """One traced pass per workload; merged per-layer metrics."""
    layers: Dict[str, float] = {}
    problems: List[str] = []
    ops = 0
    for workload in WORKLOADS:
        loop_before = host_loop_ms()
        cpu_before = cpu_times()
        result = spawn(workload, "trace", seed, seconds, deadline)
        layers.update(result["layers"])
        problems.extend(result["problems"])
        ops += result["ops"]
        layers[f"host.loop_ms.{workload}"] = max(loop_before, host_loop_ms())
        layers[f"host.steal_share.{workload}"] = steal_share(cpu_before, cpu_times())
    return {"layers": layers, "problems": problems, "ops": ops}


def spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec()[section]}


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}"


def report(workload: str, result: Dict[str, Any]) -> None:
    """The human-readable table: all seven end-to-end metrics."""
    result["error_rate"] = result["failed"] / max(1, result["ops"])
    print(f"== {workload} ({result['ops']} operations, {result.get('samples', 0)} latency samples)")
    for name in TABLE:
        note = result.get("notes", {}).get(name, "")
        print(f"  {name:<18}{_fmt(result.get(name)):>12} {UNITS[name]:<6}{note}")
    for line in result.get("ladder", []):
        print(f"  rung {line}")
    for problem in result.get("problems", []):
        print(f"  CHECK FAILED: {problem}")
    host = result["host.loop_ms"]
    print(
        f"  host: loop {host[0]:.1f}/{host[1]:.1f} ms before/after, "
        f"steal {result['host.steal_share']:.1%}; setups {['%.3f' % s for s in result['setup_samples']]}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="run", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro in this checkout; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + (CHILD_TIMEOUT if args.workload else 3 * CHILD_TIMEOUT)
    meta = {"fingerprint": fingerprint(), "seed": args.seed, "seconds": args.seconds}
    try:
        if args.trace:
            traced = trace_all(args.seed, args.seconds, deadline)
            units = spec_units("per_layer")
            missing = [n for n in units if n not in traced["layers"]]
            if missing:
                raise BenchError(f"traced run lacks {missing}")
            print(f"perfbench: {json.dumps(meta, sort_keys=True)}")
            for name in sorted(traced["layers"]):
                print(f"  {name:<40}{traced['layers'][name]:.6g}")
            problems = traced["problems"]
            for problem in problems:
                print(f"  CHECK FAILED: {problem}")
            result = {
                "correct": not problems,
                "attempted": max(1, traced["ops"]),
                "failed": len(problems),
                "metrics": {
                    n: {"value": traced["layers"][n], "unit": unit}
                    for n, unit in units.items()
                },
            }
        else:
            chosen = [args.workload] if args.workload else list(WORKLOADS)
            results = {w: measure(w, args.seed, args.seconds, deadline) for w in chosen}
            print(f"perfbench: {json.dumps(meta, sort_keys=True)}")
            for workload, r in results.items():
                report(workload, r)
            failed = sum(r["failed"] for r in results.values())
            gated = spec_units("end_to_end")
            if args.workload:
                named = {name: (args.workload, name) for name in gated}
            else:
                # All three ran and all count in correct/failed, but the
                # metrics are only those of the workloads BENCHMARK.json
                # gates, each under its workload's name.
                named = {
                    f"{w['name']}.{name}": (w["name"], name)
                    for w in spec()["workloads"]
                    for name in gated
                }
            result = {
                "correct": failed == 0,
                "attempted": sum(max(1, r["ops"]) for r in results.values()),
                "failed": failed,
                "metrics": {
                    key: {"value": results[w][name], "unit": gated[name]}
                    for key, (w, name) in named.items()
                },
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def child_main(args: argparse.Namespace) -> int:
    """Inside a fresh workload process: run one mode, write its result."""
    try:
        module = __import__(args.child)
        result = module.run_child(args.mode, args.seed, args.seconds, Path(args.out).parent)
    except Exception:  # the process boundary: report, never hang the parent
        traceback.print_exc()
        return 1
    Path(args.out).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
