"""Genetic algorithm for the fully synchronized MT-Switch problem.

Section 6 computes the multi-task (m = 4) schedule for the SHyRA
counter "using a genetic algorithm"; its hyper-parameters are not
published, so this is a standard generational GA:

* chromosome — the ``m × n`` indicator matrix (column 0 pinned to 1);
* fitness — the synchronized cost (:mod:`repro.core.sync_cost`),
  evaluated for the whole offspring population at once through
  :class:`repro.core.delta.PopulationEvaluator`, whose lane-packed
  kernel (:mod:`repro.core.packed`) is the hot path of the
  reproduction.  The packed representation expresses the changeover
  symmetric differences and the public-global pseudo-row directly, so
  the GA optimizes those variants on the batched path too — pass
  ``changeover=True`` (optionally ``changeover_fixed``) or ``public``;
* tournament selection, uniform crossover, per-bit flip mutation plus a
  column-alignment mutation (hyperreconfigurations of different tasks
  like to share a step since a parallel upload charges only the max),
* elitism, deterministic seeding, and greedy/DP warm starts.

The GA is validated against :mod:`repro.solvers.mt_exact` and
:mod:`repro.solvers.exhaustive` on small instances in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.delta import PopulationEvaluator, merge_evaluator_stats
from repro.core.machine import MachineModel
from repro.core.packed import PackedProblem
from repro.core.schedule import MultiTaskSchedule
from repro.core.sync_cost import PublicGlobalPlan, sync_switch_cost
from repro.core.task import TaskSystem
from repro.solvers.base import MTSolveResult
from repro.solvers.mt_greedy import solve_mt_from_single, solve_mt_independent
from repro.util.rng import SeedLike, make_rng

__all__ = ["GAParams", "solve_mt_genetic"]


@dataclass(frozen=True)
class GAParams:
    """Hyper-parameters of the GA.

    The defaults solve the paper's counter instance (m=4, n=110) in a
    few seconds while staying within ~1% of the best known schedules.
    """

    population_size: int = 64
    generations: int = 400
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # default: 1.5 / (m·n)
    align_mutation_rate: float = 0.1
    elitism: int = 2
    stall_generations: int = 120
    seed_with_heuristics: bool = True

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ValueError("elitism must be in [0, population_size)")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")


def _schedule_to_row(schedule: MultiTaskSchedule) -> np.ndarray:
    return np.array(schedule.indicators, dtype=bool)


def solve_mt_genetic(
    system: TaskSystem,
    seqs: Sequence[RequirementSequence],
    model: MachineModel | None = None,
    params: GAParams | None = None,
    seed: SeedLike = 0,
    *,
    changeover: bool = False,
    changeover_fixed: Sequence[float] | None = None,
    public: PublicGlobalPlan | None = None,
    packed: PackedProblem | None = None,
) -> MTSolveResult:
    """Run the GA on a fully synchronized MT-Switch instance.

    Deterministic for a fixed ``seed``.  The returned cost is
    re-evaluated with the reference cost function, so the vectorized
    kernel can never report a schedule it cannot justify.

    ``changeover`` / ``changeover_fixed`` / ``public`` select the cost
    variant; all of them run on the batched lane-packed path.
    ``packed`` optionally reuses an already-compiled
    :class:`~repro.core.packed.PackedProblem` for this instance (the
    batch engine compiles one per structurally-deduped request).
    """
    if model is None:
        model = MachineModel.paper_experimental()
    if not model.machine_class.allows_partial_hyper:
        raise ValueError(
            "the GA optimizes per-task indicator rows; partially "
            "reconfigurable machines need aligned rows — use "
            "solve_single_switch on the merged instance instead"
        )
    params = params or GAParams()
    rng = make_rng(seed)
    m = system.m
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ValueError("sequences must have equal length")
    if n == 0:
        schedule = MultiTaskSchedule([[] for _ in range(m)])
        return MTSolveResult(schedule, 0.0, True, "mt_genetic", {})

    evaluator = PopulationEvaluator(
        system,
        seqs,
        model,
        changeover=changeover,
        changeover_fixed=changeover_fixed,
        public=public,
        packed=packed,
    )
    mutation_rate = (
        params.mutation_rate
        if params.mutation_rate is not None
        else 1.5 / (m * n)
    )

    P = params.population_size
    pop = rng.random((P, m, n)) < 0.2
    pop[:, :, 0] = True
    if params.seed_with_heuristics:
        warm: list[np.ndarray] = []
        warm.append(_schedule_to_row(MultiTaskSchedule.initial_only(m, n)))
        warm.append(np.ones((m, n), dtype=bool))
        try:
            warm.append(
                _schedule_to_row(solve_mt_from_single(system, seqs, model).schedule)
            )
            warm.append(
                _schedule_to_row(solve_mt_independent(system, seqs, model).schedule)
            )
        except ValueError:  # pragma: no cover - degenerate instances
            pass
        for k, chrom in enumerate(warm[: P // 2]):
            pop[k] = chrom

    fitness = evaluator.evaluate
    fit = fitness(pop)
    best_idx = int(np.argmin(fit))
    best_chrom = pop[best_idx].copy()
    best_fit = float(fit[best_idx])
    history = [best_fit]
    stall = 0
    generations_run = 0

    for _gen in range(params.generations):
        generations_run += 1
        # Tournament selection of P parents.
        entrants = rng.integers(0, P, size=(P, params.tournament_size))
        winners = entrants[np.arange(P), np.argmin(fit[entrants], axis=1)]
        parents = pop[winners]
        # Uniform crossover on consecutive pairs, fully vectorized:
        # crossing pairs take where(mask, a, b)/where(mask, b, a), the
        # rest clone their parents.  The RNG draws are shape-for-shape
        # the ones the per-pair loop made, so trajectories are
        # unchanged for a fixed seed.
        do_cross = rng.random(P // 2) < params.crossover_rate
        cross_mask = rng.random((P // 2, m, n)) < 0.5
        a = parents[0::2][: P // 2]
        b = parents[1::2]
        take_a = ~do_cross[:, None, None] | cross_mask
        first = np.where(take_a, a, b)
        second = np.where(take_a, b, a)
        children = parents.copy()
        children[0 : 2 * (P // 2) : 2] = first
        children[1::2] = second
        # Bit-flip mutation.
        flips = rng.random((P, m, n)) < mutation_rate
        children ^= flips
        # Column-alignment mutation: copy one task's indicator at a
        # random step to every task (parallel uploads reward alignment).
        # The (i, j) coordinates stay scalar draws — interleaved exactly
        # as the old per-chromosome loop consumed the stream — but the
        # row broadcasts happen in one fancy-indexed assignment.
        align = np.flatnonzero(rng.random(P) < params.align_mutation_rate)
        if align.size:
            cols = np.empty(align.size, dtype=np.intp)
            srcs = np.empty(align.size, dtype=np.intp)
            for t in range(align.size):
                cols[t] = int(rng.integers(1, n)) if n > 1 else 0
                srcs[t] = int(rng.integers(0, m))
            children[align, :, cols] = children[align, srcs, cols][:, None]
        children[:, :, 0] = True
        # Elitism: keep the best chromosomes from the previous generation.
        if params.elitism:
            elite_idx = np.argsort(fit)[: params.elitism]
            children[: params.elitism] = pop[elite_idx]
        pop = children
        fit = fitness(pop)
        gen_best = int(np.argmin(fit))
        if fit[gen_best] < best_fit - 1e-12:
            best_fit = float(fit[gen_best])
            best_chrom = pop[gen_best].copy()
            stall = 0
        else:
            stall += 1
        history.append(best_fit)
        if stall >= params.stall_generations:
            break

    schedule = MultiTaskSchedule(best_chrom.tolist())
    cost = sync_switch_cost(
        system,
        seqs,
        schedule,
        model,
        changeover=changeover,
        changeover_fixed=changeover_fixed,
        public=public,
    )
    if abs(cost - best_fit) > 1e-6:  # pragma: no cover - internal invariant
        raise AssertionError(
            f"GA fitness {best_fit} disagrees with reference cost {cost}"
        )
    stats = {
        "generations": generations_run,
        "best_history_first": history[0],
        "best_history_last": history[-1],
    }
    merge_evaluator_stats(stats, evaluator.stats)
    return MTSolveResult(
        schedule=schedule,
        cost=cost,
        optimal=False,
        solver="mt_genetic",
        stats=stats,
    )
