"""Incremental (delta) evaluation of the synchronized MT-Switch cost.

The metaheuristics in :mod:`repro.solvers` explore the ``m × n``
indicator matrix one small move at a time — toggle one bit, align one
column, shift one hyperreconfiguration — yet the reference objective
:func:`repro.core.sync_cost.sync_switch_cost` re-derives every block
union and every per-step term from scratch, O(m·n) per evaluation.
This module provides the bookkeeping that makes a move cost only what
it perturbs:

* :class:`DeltaEvaluator` — holds the per-step cost decomposition plus
  per-task block-union state for one schedule and supports
  ``apply(move) -> new_cost`` / ``revert()`` in
  O(affected steps × m) union/popcount work plus one O(n) float
  re-sum of the cached per-step totals (the re-sum is what keeps the
  running cost bit-identical to the reference instead of drifting).
  A flip/align/shift only invalidates the block(s) of the touched
  task(s), i.e. the window between the enclosing hyperreconfiguration
  steps; everything outside that window is reused.  Changeover hyper costs and the public-global pseudo-row
  are supported; an arbitrary whole-matrix replacement
  (:class:`SetRowsMove`) falls back to a full re-evaluation and is
  counted as such.
* :class:`FullEvaluator` — the same interface backed by the reference
  cost function on every ``apply``.  Used when incremental evaluation
  is disabled (``use_delta=False``) and by benchmarks as the
  full-evaluation baseline; every apply counts as a fallback.
* :class:`PopulationEvaluator` — the batched arm of the engine: scores
  a whole GA offspring population at once through the lane-packed
  representation of :mod:`repro.core.packed`.  Since the packed kernel
  expresses changeover symmetric differences and the public-global
  pseudo-row directly, *every* configuration is served batched — the
  per-chromosome reference fallback of earlier revisions is gone.

The evaluators no longer own a private vectorized kernel: whole-matrix
(re)initialization and batched evaluation delegate to
:class:`repro.core.packed.PackedProblem` (the lane-packed fast path),
while the per-move incremental updates keep the scalar int-mask
arithmetic, which is the right tool for single-move deltas.  Both arms
reproduce the reference arithmetic *operation by operation* (same
float-summation order, same ``max``/``sum`` choices), so evaluated
trajectories are bit-identical to full-evaluation trajectories — the
solver-exit cross-checks against :func:`sync_switch_cost` stay exact,
not approximate.  All evaluators expose uniform ``stats`` counters
(``delta_applies``, ``delta_full_evals``, ``delta_hit_rate``, …) that
the solvers surface through their result ``stats`` and the serving
engine aggregates into its metrics report.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.machine import MachineModel
from repro.core.packed import PackedProblem, PackedPublic
from repro.core.schedule import MultiTaskSchedule, ScheduleError
from repro.core.sync_cost import PublicGlobalPlan
from repro.core.task import TaskSystem
from repro.util.bitset import bit_count

__all__ = [
    "FlipMove",
    "AlignMove",
    "ColumnFlipMove",
    "ShiftMove",
    "SetRowsMove",
    "DeltaEvaluator",
    "FullEvaluator",
    "make_evaluator",
    "PopulationEvaluator",
    "merge_evaluator_stats",
]


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipMove:
    """Toggle the indicator of ``task`` at ``step`` (step ≥ 1)."""

    task: int
    step: int


@dataclass(frozen=True)
class AlignMove:
    """Copy ``source``'s indicator at ``step`` to every task."""

    step: int
    source: int


@dataclass(frozen=True)
class ColumnFlipMove:
    """Toggle the indicators of *all* tasks at ``step``.

    The only legal move shape on machines that hyperreconfigure all
    tasks at a time (``allows_partial_hyper == False``).
    """

    step: int


@dataclass(frozen=True)
class ShiftMove:
    """Move ``task``'s hyperreconfiguration from ``src`` to ``dst``."""

    task: int
    src: int
    dst: int


@dataclass(frozen=True)
class SetRowsMove:
    """Replace the whole indicator matrix (full re-evaluation fallback)."""

    rows: tuple[tuple[bool, ...], ...]

    @classmethod
    def of(cls, rows: Sequence[Sequence[bool]]) -> "SetRowsMove":
        return cls(tuple(tuple(bool(x) for x in row) for row in rows))


Move = FlipMove | AlignMove | ColumnFlipMove | ShiftMove | SetRowsMove


def _coerce_rows(rows_or_schedule) -> list[list[bool]]:
    if isinstance(rows_or_schedule, MultiTaskSchedule):
        return [list(r) for r in rows_or_schedule.indicators]
    return [[bool(x) for x in row] for row in rows_or_schedule]


class _EvaluatorBase:
    """Shared move decoding and validation for both evaluator kinds."""

    _rows: list[list[bool]]
    _m: int
    _n: int

    @property
    def rows(self) -> list[list[bool]]:
        """The current indicator matrix.  Treat as read-only: mutate
        only through :meth:`apply` / :meth:`revert` / :meth:`reset`."""
        return self._rows

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self._n

    def schedule(self) -> MultiTaskSchedule:
        return MultiTaskSchedule(self._rows)

    # -- move decoding -----------------------------------------------------

    def _move_changes(self, move: Move) -> list[tuple[int, int, bool]]:
        """Decode ``move`` into effective ``(task, step, new_value)`` bit
        changes against the current rows (no-change entries dropped)."""
        rows, m, n = self._rows, self._m, self._n
        if isinstance(move, FlipMove):
            changes = [(move.task, move.step, not rows[move.task][move.step])]
        elif isinstance(move, AlignMove):
            value = rows[move.source][move.step]
            changes = [(k, move.step, value) for k in range(m)]
        elif isinstance(move, ColumnFlipMove):
            changes = [(k, move.step, not rows[k][move.step]) for k in range(m)]
        elif isinstance(move, ShiftMove):
            if not rows[move.task][move.src]:
                raise ScheduleError(
                    f"shift source ({move.task}, {move.src}) has no "
                    "hyperreconfiguration to move"
                )
            if rows[move.task][move.dst]:
                raise ScheduleError(
                    f"shift target ({move.task}, {move.dst}) is occupied"
                )
            changes = [
                (move.task, move.src, False),
                (move.task, move.dst, True),
            ]
        else:
            raise TypeError(f"unsupported move: {move!r}")
        for j, i, _ in changes:
            if not 0 <= j < m:
                raise ScheduleError(f"task index {j} out of range")
            if not 1 <= i < n:
                raise ScheduleError(
                    f"step {i} is not movable (step 0 is pinned, n={n})"
                )
        return [(j, i, val) for j, i, val in changes if rows[j][i] != val]

    def _check_column_uniformity(
        self, changes: Sequence[tuple[int, int, bool]]
    ) -> None:
        """Machines without partial hyperreconfigurability keep all rows
        identical; only whole-column changes to one value are legal."""
        per_step: dict[int, list[tuple[int, bool]]] = {}
        for j, i, val in changes:
            per_step.setdefault(i, []).append((j, val))
        for i, entries in per_step.items():
            values = {val for _, val in entries}
            if len(entries) != self._m or len(values) != 1:
                raise ScheduleError(
                    "this machine hyperreconfigures all tasks at a time; "
                    f"the move changes only a task subset at step {i}"
                )


# ---------------------------------------------------------------------------
# Incremental evaluator
# ---------------------------------------------------------------------------


class DeltaEvaluator(_EvaluatorBase):
    """Incremental synchronized MT-Switch cost of one evolving schedule.

    Parameters mirror :func:`repro.core.sync_cost.sync_switch_cost`;
    construction compiles (or reuses a caller-supplied) lane-packed
    :class:`~repro.core.packed.PackedProblem` and seeds the per-step
    state from one vectorized full evaluation — bit-identical to the
    reference, which also validates the configuration.  After that,
    :meth:`apply` updates the per-task block unions and per-step cost
    terms only inside the window delimited by the enclosing
    hyperreconfiguration steps of each touched task, using scalar
    int-mask arithmetic (the right tool for single-move deltas).

    One move may be pending at a time: ``apply`` commits any previous
    move and remembers how to undo the new one; ``revert`` undoes the
    last applied move.  The running total is re-summed over the cached
    per-step totals in the reference's summation order, so the reported
    cost is always bit-identical to a from-scratch evaluation of the
    current rows.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        rows: MultiTaskSchedule | Sequence[Sequence[bool]],
        model: MachineModel | None = None,
        *,
        w: float = 0.0,
        public: PublicGlobalPlan | None = None,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
        packed: PackedProblem | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._w = float(w)
        self._public = public
        self._changeover = bool(changeover)
        self._changeover_fixed = (
            tuple(changeover_fixed) if changeover_fixed is not None else None
        )
        self._m = system.m
        self._masks = [seq.masks for seq in self._seqs]
        self._v = system.v
        if packed is not None and packed.matches(system, self._seqs, model):
            self._packed = packed
        else:
            self._packed = PackedProblem.compile(system, self._seqs, model)
        self._hyper_parallel = self._packed.hyper_parallel
        self._reconf_parallel = self._packed.reconf_parallel
        self._partial_hyper_ok = self._packed.partial_hyper_ok
        if public is not None:
            self._pub_packed = PackedPublic.compile(public, self._packed.n)
            self._pub_sizes = self._pub_packed.sizes.tolist()
            self._pub_hyper = {
                i for i, flag in enumerate(self._pub_packed.hyper) if flag
            }
            self._pub_v = self._pub_packed.v
        else:
            self._pub_packed = None
            self._pub_sizes = None
            self._pub_hyper = None
            self._pub_v = 0.0
        self._n_applies = 0
        self._n_full = 0
        self._n_noops = 0
        self._n_reverts = 0
        self._n_resets = 0
        self._steps_recomputed = 0
        self._undo = None
        self._init_state(_coerce_rows(rows))

    # -- (re)initialization ------------------------------------------------

    def _init_state(self, rows: list[list[bool]]) -> None:
        evaluation = self._packed.evaluate_rows(
            rows,
            w=self._w,
            public=self._pub_packed,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )
        self._rows = rows
        self._n = self._packed.n
        self._unions = evaluation.union_masks()
        self._sizes = evaluation.sizes.tolist()
        self._step_hyper = evaluation.step_hyper.tolist()
        self._step_reconf = evaluation.step_reconf.tolist()
        self._step_total = [
            h + r for h, r in zip(self._step_hyper, self._step_reconf)
        ]
        self._cost = evaluation.cost
        self._undo = None

    def reset(self, rows: MultiTaskSchedule | Sequence[Sequence[bool]]) -> float:
        """Replace the schedule wholesale (full re-evaluation)."""
        self._n_resets += 1
        self._init_state(_coerce_rows(rows))
        return self._cost

    # -- evaluation --------------------------------------------------------

    @property
    def cost(self) -> float:
        """Cost of the current rows (bit-identical to the reference)."""
        return self._cost

    def reference_cost(self) -> float:
        """From-scratch oracle evaluation of the current rows."""
        from repro.core.sync_cost import sync_switch_cost

        return sync_switch_cost(
            self._system,
            self._seqs,
            MultiTaskSchedule(self._rows),
            self._model,
            w=self._w,
            public=self._public,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )

    def apply(self, move: Move) -> float:
        """Apply ``move`` and return the new cost.

        The previous pending move (if any) is committed.  A
        :class:`SetRowsMove` cannot be delta-evaluated and falls back to
        a counted full re-evaluation (still revertible).
        """
        if isinstance(move, SetRowsMove):
            return self._apply_set_rows(move)
        changes = self._move_changes(move)
        if not changes:
            self._n_noops += 1
            self._undo = ("noop", self._cost)
            return self._cost
        if not self._partial_hyper_ok:
            self._check_column_uniformity(changes)
        return self._apply_changes(changes)

    def _apply_set_rows(self, move: SetRowsMove) -> float:
        old = (
            self._rows,
            self._unions,
            self._sizes,
            self._step_hyper,
            self._step_reconf,
            self._step_total,
            self._cost,
            self._n,
        )
        self._n_full += 1
        self._init_state(_coerce_rows(move.rows))
        self._undo = ("full", old)
        return self._cost

    def _apply_changes(self, changes: list[tuple[int, int, bool]]) -> float:
        rows, n = self._rows, self._n
        per_task: dict[int, list[tuple[int, bool]]] = {}
        for j, i, val in changes:
            per_task.setdefault(j, []).append((i, val))

        union_undo = []
        affected: set[int] = set()
        for j, edits in per_task.items():
            row = rows[j]
            s_min = min(i for i, _ in edits)
            s_max = max(i for i, _ in edits)
            lo = s_min - 1
            while not row[lo]:
                lo -= 1
            hi = s_max + 1
            while hi < n and not row[hi]:
                hi += 1
            union_undo.append(
                (
                    j,
                    lo,
                    hi,
                    [(i, row[i]) for i, _ in edits],
                    self._unions[j][lo:hi],
                    self._sizes[j][lo:hi],
                )
            )
            for i, val in edits:
                row[i] = val
            self._resweep_task(j, lo, hi)
            affected.update(range(lo, hi))
            if self._changeover and hi < n:
                # The hyper cost at the next hyper step depends on the
                # union of the step before it, which just changed.
                affected.add(hi)

        step_undo = []
        for i in sorted(affected):
            step_undo.append(
                (i, self._step_hyper[i], self._step_reconf[i], self._step_total[i])
            )
            self._recompute_step(i)
        old_cost = self._cost
        self._cost = float(self._w + sum(self._step_total))
        self._n_applies += 1
        self._steps_recomputed += len(affected)
        self._undo = ("delta", union_undo, step_undo, old_cost)
        return self._cost

    def revert(self) -> float:
        """Undo the last applied move and return the restored cost."""
        if self._undo is None:
            raise RuntimeError("no applied move to revert")
        undo, self._undo = self._undo, None
        self._n_reverts += 1
        if undo[0] == "noop":
            self._cost = undo[1]
            return self._cost
        if undo[0] == "full":
            (
                self._rows,
                self._unions,
                self._sizes,
                self._step_hyper,
                self._step_reconf,
                self._step_total,
                self._cost,
                self._n,
            ) = undo[1]
            return self._cost
        _, union_undo, step_undo, old_cost = undo
        for i, hyper, reconf, total in step_undo:
            self._step_hyper[i] = hyper
            self._step_reconf[i] = reconf
            self._step_total[i] = total
        for j, lo, hi, old_bits, old_unions, old_sizes in union_undo:
            for i, val in old_bits:
                self._rows[j][i] = val
            self._unions[j][lo:hi] = old_unions
            self._sizes[j][lo:hi] = old_sizes
        self._cost = old_cost
        return self._cost

    # -- internals ---------------------------------------------------------

    def _resweep_task(self, j: int, lo: int, hi: int) -> None:
        """Recompute task ``j``'s block unions over steps ``[lo, hi)``.

        ``lo`` is a hyperreconfiguration step of the task and ``hi`` the
        next one after the edited region (or ``n``), so the window is
        self-contained: unions outside it are unaffected.
        """
        row = self._rows[j]
        masks = self._masks[j]
        unions = self._unions[j]
        sizes = self._sizes[j]
        span = hi - lo
        suffix = [0] * span
        acc = 0
        for i in range(hi - 1, lo - 1, -1):
            acc |= masks[i]
            suffix[i - lo] = acc
            if row[i]:
                acc = 0
        current = 0
        for i in range(lo, hi):
            if row[i]:
                current = suffix[i - lo]
            unions[i] = current
            sizes[i] = bit_count(current)

    def _recompute_step(self, i: int) -> None:
        """Recompute one step's cost terms, mirroring the reference
        arithmetic (same task order, same float-summation order)."""
        rows = self._rows
        m = self._m
        hyper_costs: list[float] = []
        for j in range(m):
            if not rows[j][i]:
                continue
            if self._changeover:
                cfix = self._changeover_fixed
                fixed = cfix[j] if cfix else 0.0
                prev = self._unions[j][i - 1] if i > 0 else 0
                hyper_costs.append(fixed + bit_count(self._unions[j][i] ^ prev))
            else:
                hyper_costs.append(self._v[j])
        if self._pub_hyper is not None and i in self._pub_hyper:
            hyper_costs.append(self._pub_v)
        if hyper_costs:
            hyper = max(hyper_costs) if self._hyper_parallel else sum(hyper_costs)
        else:
            hyper = 0.0
        sizes = [self._sizes[j][i] for j in range(m)]
        if self._reconf_parallel:
            reconf = float(max(sizes))
            if self._pub_sizes is not None:
                reconf = max(reconf, float(self._pub_sizes[i]))
        else:
            reconf = float(sum(sizes))
            if self._pub_sizes is not None:
                reconf += float(self._pub_sizes[i])
        hyper = float(hyper)
        self._step_hyper[i] = hyper
        self._step_reconf[i] = reconf
        self._step_total[i] = hyper + reconf

    # -- introspection -----------------------------------------------------

    @property
    def stats(self) -> dict:
        """Uniform evaluator counters (see module docstring)."""
        denom = self._n_applies + self._n_full
        return {
            "delta_applies": self._n_applies,
            "delta_full_evals": self._n_full,
            "delta_noops": self._n_noops,
            "delta_reverts": self._n_reverts,
            "delta_resets": self._n_resets,
            "delta_steps_recomputed": self._steps_recomputed,
            "delta_hit_rate": (self._n_applies / denom) if denom else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaEvaluator(m={self._m}, n={self._n}, cost={self._cost}, "
            f"applies={self._n_applies})"
        )


# ---------------------------------------------------------------------------
# Full-evaluation fallback
# ---------------------------------------------------------------------------


class FullEvaluator(_EvaluatorBase):
    """Reference-backed evaluator with the :class:`DeltaEvaluator` API.

    Every ``apply`` performs a from-scratch
    :func:`~repro.core.sync_cost.sync_switch_cost` evaluation and is
    counted as a full (fallback) evaluation.  Serves as the baseline in
    benchmarks and as the safety net for ``use_delta=False``.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        rows: MultiTaskSchedule | Sequence[Sequence[bool]],
        model: MachineModel | None = None,
        *,
        w: float = 0.0,
        public: PublicGlobalPlan | None = None,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._kwargs = dict(
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
        )
        self._m = system.m
        self._partial_hyper_ok = model.machine_class.allows_partial_hyper
        self._n_full = 0
        self._n_noops = 0
        self._n_reverts = 0
        self._n_resets = 0
        self._undo = None
        self._rows = _coerce_rows(rows)
        self._n = len(self._rows[0]) if self._rows else 0
        self._cost = self._evaluate()

    def _evaluate(self) -> float:
        from repro.core.sync_cost import sync_switch_cost

        return sync_switch_cost(
            self._system,
            self._seqs,
            MultiTaskSchedule(self._rows),
            self._model,
            **self._kwargs,
        )

    def reset(self, rows: MultiTaskSchedule | Sequence[Sequence[bool]]) -> float:
        self._n_resets += 1
        self._rows = _coerce_rows(rows)
        self._n = len(self._rows[0]) if self._rows else 0
        self._undo = None
        self._cost = self._evaluate()
        return self._cost

    @property
    def cost(self) -> float:
        return self._cost

    def reference_cost(self) -> float:
        return self._evaluate()

    def apply(self, move: Move) -> float:
        if isinstance(move, SetRowsMove):
            old = (self._rows, self._cost, self._n)
            self._rows = _coerce_rows(move.rows)
            self._n = len(self._rows[0]) if self._rows else 0
            self._n_full += 1
            self._cost = self._evaluate()
            self._undo = ("full", old)
            return self._cost
        changes = self._move_changes(move)
        if not changes:
            self._n_noops += 1
            self._undo = ("noop", self._cost)
            return self._cost
        if not self._partial_hyper_ok:
            self._check_column_uniformity(changes)
        old_bits = [(j, i, self._rows[j][i]) for j, i, _ in changes]
        for j, i, val in changes:
            self._rows[j][i] = val
        old_cost = self._cost
        self._n_full += 1
        self._cost = self._evaluate()
        self._undo = ("delta", old_bits, old_cost)
        return self._cost

    def revert(self) -> float:
        if self._undo is None:
            raise RuntimeError("no applied move to revert")
        undo, self._undo = self._undo, None
        self._n_reverts += 1
        if undo[0] == "noop":
            self._cost = undo[1]
            return self._cost
        if undo[0] == "full":
            self._rows, self._cost, self._n = undo[1]
            return self._cost
        _, old_bits, old_cost = undo
        for j, i, val in old_bits:
            self._rows[j][i] = val
        self._cost = old_cost
        return self._cost

    @property
    def stats(self) -> dict:
        return {
            "delta_applies": 0,
            "delta_full_evals": self._n_full,
            "delta_noops": self._n_noops,
            "delta_reverts": self._n_reverts,
            "delta_resets": self._n_resets,
            "delta_steps_recomputed": 0,
            "delta_hit_rate": 0.0 if self._n_full else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FullEvaluator(m={self._m}, n={self._n}, cost={self._cost}, "
            f"full_evals={self._n_full})"
        )


def make_evaluator(
    system: TaskSystem,
    seqs: Sequence[RequirementSequence],
    rows: MultiTaskSchedule | Sequence[Sequence[bool]],
    model: MachineModel | None = None,
    *,
    w: float = 0.0,
    public: PublicGlobalPlan | None = None,
    changeover: bool = False,
    changeover_fixed: Sequence[float] | None = None,
    use_delta: bool = True,
    packed: PackedProblem | None = None,
) -> DeltaEvaluator | FullEvaluator:
    """Build the best evaluator for a configuration.

    Every machine model / changeover / public-global combination the
    reference cost function accepts is delta-evaluable today, so this
    returns a :class:`DeltaEvaluator` unless ``use_delta`` is False
    (benchmark baselines, paranoia switches); the factory exists so
    future configurations that cannot be delta-evaluated can degrade to
    :class:`FullEvaluator` without touching the solvers.

    ``packed`` optionally reuses an already-compiled
    :class:`~repro.core.packed.PackedProblem` for this instance (the
    batch engine compiles one per structurally-deduped request).  The
    :class:`FullEvaluator` deliberately ignores it: it exists to be the
    scalar-reference baseline, not a fast path.
    """
    if use_delta:
        return DeltaEvaluator(
            system,
            seqs,
            rows,
            model,
            w=w,
            public=public,
            changeover=changeover,
            changeover_fixed=changeover_fixed,
            packed=packed,
        )
    return FullEvaluator(
        system,
        seqs,
        rows,
        model,
        w=w,
        public=public,
        changeover=changeover,
        changeover_fixed=changeover_fixed,
    )


# ---------------------------------------------------------------------------
# Batched population evaluation (the GA's offspring arm)
# ---------------------------------------------------------------------------


class PopulationEvaluator:
    """Batched offspring evaluation for population metaheuristics.

    A thin counter-discipline wrapper over
    :meth:`repro.core.packed.PackedProblem.population_cost`: offspring
    evaluated through the lane-packed kernel count as ``delta_applies``.
    Because the packed representation expresses changeover symmetric
    differences and the public-global pseudo-row directly, *every*
    configuration is served batched — ``delta_full_evals`` stays 0 and
    remains only for the metrics layer's uniform aggregation.
    """

    def __init__(
        self,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        model: MachineModel | None = None,
        *,
        changeover: bool = False,
        changeover_fixed: Sequence[float] | None = None,
        public: PublicGlobalPlan | None = None,
        packed: PackedProblem | None = None,
    ):
        if model is None:
            model = MachineModel.paper_experimental()
        self._system = system
        self._seqs = list(seqs)
        self._model = model
        self._changeover = bool(changeover)
        self._changeover_fixed = (
            tuple(changeover_fixed) if changeover_fixed is not None else None
        )
        if packed is not None and packed.matches(system, self._seqs, model):
            self._packed = packed
        else:
            self._packed = PackedProblem.compile(system, self._seqs, model)
        self._public = (
            PackedPublic.compile(public, self._packed.n)
            if public is not None
            else None
        )
        self._n_batches = 0
        self._n_batched = 0
        self._n_full = 0

    @property
    def batched(self) -> bool:
        """True — the packed kernel serves every configuration."""
        return True

    @property
    def packed(self) -> PackedProblem:
        """The compiled representation behind this evaluator."""
        return self._packed

    def evaluate(self, pop: np.ndarray) -> np.ndarray:
        """Cost vector for a ``(P, m, n)`` boolean population."""
        self._n_batches += 1
        self._n_batched += len(pop)
        return self._packed.population_cost(
            pop,
            public=self._public,
            changeover=self._changeover,
            changeover_fixed=self._changeover_fixed,
        )

    @property
    def stats(self) -> dict:
        denom = self._n_batched + self._n_full
        return {
            "delta_applies": self._n_batched,
            "delta_full_evals": self._n_full,
            "delta_batches": self._n_batches,
            "delta_hit_rate": (self._n_batched / denom) if denom else 1.0,
        }


def merge_evaluator_stats(
    stats: dict, evaluator_stats: Mapping
) -> dict:
    """Fold evaluator counters into a solver ``stats`` dict (in place).

    Solvers call this right before returning so the serving engine's
    metrics layer can aggregate ``delta_applies`` / ``delta_full_evals``
    across requests without knowing which solver produced them.
    """
    for key in (
        "delta_applies",
        "delta_full_evals",
        "delta_hit_rate",
        "delta_steps_recomputed",
    ):
        if key in evaluator_stats:
            stats[key] = evaluator_stats[key]
    return stats
