"""Seeded inputs of every workload.

Everything here is a pure function of the ``--seed`` argument: the
session specs a serve workload opens (in the order each client thread
opens them) and the request stream the batch workload solves.  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = (1 << 64) - 1

#: The paper's six SHyRA applications.
APP_NAMES = ("counter", "comparator", "adder", "gray", "parity", "lfsr")

#: Online policies a serve session runs, with their open-frame params.
POLICIES = (
    ("rent_or_buy", {"alpha": 1.0, "memory": 4}),
    ("window", {"k": 8}),
)


def pack_lanes(masks, width: int) -> np.ndarray:
    """Int masks -> ``(C, L)`` little-endian uint64 lane rows."""
    lanes = (width + 63) // 64
    out = np.empty((len(masks), lanes), dtype=np.uint64)
    for j in range(lanes):
        out[:, j] = [(m >> (64 * j)) & _U64 for m in masks]
    return out


def app_traces() -> dict[str, list[int]]:
    """App name -> its DELTA requirement masks (48-switch universe), on
    the register files the ``repro trace``/``repro batch`` CLI uses."""
    from repro.cli import APPS
    from repro.shyra.trace import run_and_trace

    out = {}
    for name in APP_NAMES:
        build, registers = APPS[name]
        trace = run_and_trace(build(hold_unused=True),
                              initial_registers=registers())
        out[name] = list(trace.requirements.masks)
    return out


@dataclass(frozen=True)
class SessionSpec:
    """One serve session: what the client opens and feeds.

    The trace is ``lanes`` repeated cyclically up to ``steps`` steps.
    """

    sid: str
    policy: str
    params: dict
    width: int
    w: float
    lanes: np.ndarray  # (n, L) uint64, one cycle of the trace
    steps: int

    def chunk(self, pos: int, size: int) -> np.ndarray:
        """Rows ``pos .. pos+size`` of the trace (clipped at its end)."""
        size = min(size, self.steps - pos)
        n = self.lanes.shape[0]
        start = pos % n
        if start + size <= n:
            return self.lanes[start : start + size]
        return self.prefix(pos + size)[pos:]

    def prefix(self, size: int) -> np.ndarray:
        """The first ``size`` rows of the trace."""
        n = self.lanes.shape[0]
        reps = -(-size // n)
        return np.tile(self.lanes, (reps, 1))[:size]


class AppsSource:
    """serve-apps sessions: a seeded SHyRA app trace repeated a seeded
    2-12 times, width 48; policies alternate rent-or-buy / window."""

    width = 48
    chunk = 64

    def __init__(self, seed: int, stream: int, traces: dict):
        self._rng = np.random.default_rng([seed, stream, 1])
        self._stream = stream
        self._lanes = {
            name: pack_lanes(masks, self.width)
            for name, masks in traces.items()
        }
        self._k = 0

    def next(self) -> SessionSpec:
        app = APP_NAMES[int(self._rng.integers(len(APP_NAMES)))]
        repeat = int(self._rng.integers(2, 13))
        policy, params = POLICIES[self._k % len(POLICIES)]
        self._k += 1
        lanes = self._lanes[app]
        return SessionSpec(
            sid=f"a{self._stream}.{self._k}",
            policy=policy,
            params=params,
            width=self.width,
            w=float(self.width),
            lanes=lanes,
            steps=repeat * lanes.shape[0],
        )


# -- batch-solve --------------------------------------------------------------

#: make_instance kinds in the batch mix.
INSTANCE_KINDS = ("phased", "periodic", "bursty", "markov")


def _renamed_duplicate(request, rng, tag: int):
    """The same MT-Switch problem with permuted task order and renamed
    switches and tasks: a canonical duplicate of ``request``."""
    from repro.core.context import RequirementSequence
    from repro.core.switches import SwitchSet, SwitchUniverse
    from repro.core.task import Task, TaskSystem
    from repro.engine.requests import SolveRequest

    system = request.system
    universe = SwitchUniverse(
        [f"d{tag}_{i}" for i in range(system.universe.size)]
    )
    order = [int(j) for j in rng.permutation(system.m)]
    tasks = [
        Task(f"t{tag}_{j}", SwitchSet(universe, system.tasks[j].local_mask),
             system.tasks[j].init_cost)
        for j in order
    ]
    seqs = [RequirementSequence(universe, request.seqs[j].masks)
            for j in order]
    return SolveRequest.multi(
        TaskSystem(universe, tasks), seqs, request.model,
        solver=request.solver, **dict(request.params),
    )


class BatchSource:
    """The batch-solve request stream, drawn one request at a time.

    Every tenth request is one of the paper's six SHyRA apps on its
    m=4 task system, in turn (so the six slow first solves land at
    fixed places; repeats are exact cache hits).  Of the rest, every
    fourth is a canonical duplicate of a seeded earlier request
    (permuted task order, renamed switches and tasks) and the others
    are fresh ``make_instance`` problems whose shape cycles through 2-4
    tasks, 8-24 steps and the phased/periodic/bursty/markov kinds, with
    seeded contents.  The shape schedule is fixed so that the share of
    each solver tier (exhaustive, exact, heuristic) — which sets the
    latency distribution — is the same for every seed.  Every request
    names ``auto``.
    """

    APP_EVERY = 10
    DUPLICATE_EVERY = 4

    def __init__(self, seed: int, traces: dict):
        from repro.core.context import RequirementSequence
        from repro.engine.requests import SolveRequest
        from repro.shyra.tasks import shyra_task_system

        self._rng = np.random.default_rng([seed, 3])
        system = shyra_task_system()
        self._apps = []
        for name in APP_NAMES:
            seq = RequirementSequence(system.universe, traces[name])
            self._apps.append(SolveRequest.multi(
                system, system.split_requirements(seq), solver="auto"))
        self._history: list = []
        self._k = 0

    def next(self):
        from repro.analysis.sweeps import make_instance
        from repro.engine.requests import SolveRequest

        rng = self._rng
        k = self._k
        self._k += 1
        if k % self.APP_EVERY == 0:
            return self._apps[(k // self.APP_EVERY) % len(self._apps)]
        if self._history and k % self.DUPLICATE_EVERY == 1:
            base = self._history[int(rng.integers(len(self._history)))]
            return _renamed_duplicate(base, rng, k)
        j = len(self._history)
        m = 2 + j % 3
        n = 8 + (5 * j) % 17
        kind = INSTANCE_KINDS[(j // 3) % len(INSTANCE_KINDS)]
        system, seqs = make_instance(
            m, n, 6, kind=kind, seed=int(rng.integers(2**31))
        )
        request = SolveRequest.multi(system, seqs, solver="auto")
        self._history.append(request)
        return request
