"""Sharded-simulator workers never outlive a coordinator that hard-exits.

Each worker is forked while the coordinator holds its own and every earlier
shard's parent pipe end.  Unless the worker closes those copies, a
coordinator killed by ``os._exit``/``SIGKILL`` never produces EOF on the
worker's pipe, and the worker waits in ``recv`` forever.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Spawns a 2-shard coordinator, reports its worker pids, then dies without
# running any cleanup.
COORDINATOR = textwrap.dedent(
    """
    import os

    from repro.experiments.runner import (
        AttackTiming,
        DeploymentKind,
        HijackScenario,
        _deployment_plan,
    )
    from repro.experiments.sharded_run import _Coordinator
    from repro.topology.generators import generate_paper_topology

    graph = generate_paper_topology(63, seed=8)
    ases = sorted(graph.asns())
    scenario = HijackScenario(
        graph=graph,
        origins=[ases[10]],
        attackers=[ases[40], ases[20]],
        deployment=DeploymentKind.FULL,
        timing=AttackTiming.SIMULTANEOUS,
        seed=3,
    )
    coordinator = _Coordinator(
        scenario, 2, _deployment_plan(scenario).capable, False
    )
    coordinator.run_phase("establish")
    print(" ".join(str(s.process.pid) for s in coordinator.shards), flush=True)
    os._exit(0)
    """
)


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def test_workers_exit_when_coordinator_hard_exits():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    # Read only the pid line: the workers inherit the stdout pipe, so
    # waiting for EOF would hang on stranded workers.
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    assert proc.wait(timeout=60) == 0
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and any(_alive(p) for p in pids):
            time.sleep(0.05)
        assert [p for p in pids if _alive(p)] == []
    finally:
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
