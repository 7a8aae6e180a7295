"""Online (run-time) hyperreconfiguration scheduling.

The offline solvers see the whole requirement sequence; a machine
deciding *at run time* when to hyperreconfigure sees only the past.
The paper's outlook — architectures that "adapt their reconfiguration
abilities during run time" — raises exactly this question, so the
library ships two classic online policies plus a competitive-ratio
harness against the offline optimum (experiment E11):

* :class:`RentOrBuyScheduler` — ski-rental reasoning per switch set:
  keep the current hypercontext while the *regret* (cost paid above
  what a fresh minimal hypercontext would have paid for the same
  steps) is below ``alpha · w``, then hyperreconfigure to the recent
  working set.  With ``alpha = 1`` this is the classic rent-or-buy
  rule that is 2-competitive for the one-switch case.
* :class:`WindowScheduler` — hyperreconfigure every ``k`` steps to the
  coming block's needs as *estimated by the previous window* (the
  union of the last ``k`` requirements).  A requirement that does not
  fit the estimate forces an immediate corrective
  hyperreconfiguration — the policy pays for its mispredictions,
  which is what makes it an honest straw-man baseline.

Both policies expose two entry points over the same decision logic:

* :meth:`plan` — feed a whole sequence, get a valid
  :class:`~repro.core.schedule.SingleTaskSchedule` with explicit
  hypercontext masks (the online hypercontext is generally *not* the
  minimal block union — the scheduler did not know the future);
* :meth:`cursor` — a stateful step-by-step cursor for streaming use
  (see :mod:`repro.engine.stream`).  A cursor's ``step(i, mask)``
  returns the newly installed hypercontext mask when the policy
  hyperreconfigures at step ``i`` and ``None`` when it keeps the
  current one; after the call, ``cursor.current`` always covers
  ``mask`` (cursors hyperreconfigure rather than serve a requirement
  they cannot satisfy).

Both policies additionally expose :meth:`batched_cursor` — the
lane-packed contract for high-rate streaming.  A batched cursor's
``step_many(lanes)`` advances a whole ``(C, L)`` uint64 chunk of
requirement rows in vectorized NumPy over a
:class:`~repro.core.packed.PackedStream` and returns a
:class:`CursorBatch` of per-step hyper flags, hypercontext sizes and
installed hypercontexts.  The decisions are *bit-identical* to driving
the scalar cursor step by step (the scalar cursors stay as the
correctness oracle; ``tests/test_stream_packed.py`` enforces the
equivalence on randomized sequences across the 64-switch lane
boundary): inside a chunk the batched cursor solves for whole
*no-hyper segments* at a time — prefix unions and popcounts locate the
next trigger (misfit or regret/cadence), then the working-set window is
read off the packed history — so its cost is O(segments) NumPy sweeps
instead of O(steps) Python calls.

A serving hub advances many sessions at once through the batched
cursors' ``sweep_many``: an epoch-synchronous NumPy kernel over the
stacked chunks that pays about 25 array calls per trigger epoch, plus
one Python-int resolver per policy that finishes trigger-dense or small
stacks step by step once an epoch serves, or the stack still holds,
fewer than :data:`HANDOFF_STEPS` live steps (see :class:`FusedSweep`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from repro.core.context import RequirementSequence
from repro.core.cost_single import switch_cost
from repro.core.packed import (
    PackedStream,
    lanes_to_masks,
    masks_to_lanes,
)
from repro.core.schedule import SingleTaskSchedule
from repro.solvers.single_dp import solve_single_switch
from repro.util.bitset import popcount_u64

__all__ = [
    "CursorBatch",
    "FusedSweep",
    "OnlineRun",
    "RentOrBuyScheduler",
    "ScalarOnly",
    "WindowScheduler",
    "plan_with_cursor",
    "run_online",
    "competitive_report",
]


class ScalarOnly:
    """Wrap a policy to expose only the scalar cursor contract.

    A :class:`~repro.engine.stream.StreamSession` takes the batched
    lane-packed path whenever the policy offers ``batched_cursor``;
    wrapping the policy in this shim hides it, forcing the scalar
    oracle path — the baseline the equivalence tests, benchmark E16
    and the CLI's ``--scalar`` flag compare against.
    """

    def __init__(self, scheduler, *, name: str | None = None):
        self._scheduler = scheduler
        self.name = name if name is not None else getattr(
            scheduler, "name", type(scheduler).__name__
        )

    def cursor(self):
        return self._scheduler.cursor()


@dataclass(frozen=True)
class OnlineRun:
    """Outcome of feeding a sequence through an online scheduler."""

    schedule: SingleTaskSchedule
    cost: float
    solver: str


@dataclass(frozen=True)
class CursorBatch:
    """Result of advancing a batched cursor by one requirement chunk.

    Attributes
    ----------
    hyper:
        ``(C,)`` bool — True where the policy hyperreconfigured before
        serving the step.
    sizes:
        ``(C,)`` int64 — popcount of the hypercontext that served each
        step (``|h|``, the per-step switch-write charge).
    installed:
        ``(H, L)`` uint64 — the installed hypercontext lanes of the
        ``H`` flagged steps, in step order.
    """

    hyper: np.ndarray
    sizes: np.ndarray
    installed: np.ndarray

    @property
    def steps(self) -> int:
        return int(self.hyper.shape[0])

    @property
    def hyper_count(self) -> int:
        return int(self.installed.shape[0])

    def installed_masks(self) -> list[int]:
        """Installed hypercontexts as Python int masks (oracle encoding)."""
        if self.installed.shape[0] == 0:
            return []
        return lanes_to_masks(self.installed)


@dataclass(frozen=True)
class FusedSweep:
    """Result of a fused multi-cursor sweep over stacked chunks.

    ``sweep_many`` completes *every* cursor's chunk in one call.  Its
    epoch-synchronous resumable kernel serves quiet sessions in the
    first epoch and triggering ones one trigger epoch at a time; once
    an epoch serves, or the stack still holds, fewer than
    :data:`HANDOFF_STEPS` live steps, the policy's Python-int resolver
    finishes every still-active session
    from the kernel's per-session state (the scalar cursor's step,
    resumed mid-chunk).  Cursor and stream state are committed on
    return; the caller only books per-session accounting off the
    arrays below.

    Attributes
    ----------
    hyper:
        ``(S, Cmax)`` bool — True where a session hyperreconfigured
        before serving the step (read-only; rows are shared views).
    sizes:
        ``(S, Cmax)`` int64 — per-step hypercontext popcount ``|h|``
        serving each step (read-only; zero beyond a session's length).
    installed:
        ``(T, L)`` uint64 — installed hypercontext lanes of all
        ``T`` triggers, session-major and in step order within each
        session (matching ``np.nonzero(hyper)``).
    installed_counts:
        ``(S,)`` int64 — triggers per session; cumulative sums slice
        ``installed`` into per-session runs.
    lengths:
        ``(S,)`` int64 — per-session chunk lengths (ragged stacks are
        zero-padded to ``Cmax``; columns at or past a session's length
        are dead).
    epochs:
        Kernel epochs run for this stack; steps the resolver finished
        add none (``installed`` still holds every install).
    """

    hyper: np.ndarray
    sizes: np.ndarray
    installed: np.ndarray
    installed_counts: np.ndarray
    lengths: np.ndarray
    epochs: int

    @property
    def sessions(self) -> int:
        return int(self.hyper.shape[0])

    @property
    def triggers(self) -> int:
        return int(self.installed.shape[0])


def _stack_rows(cursors, attr: str, S: int, L: int) -> np.ndarray:
    """Stack one ``(L,)`` lane row per cursor into ``(S, L)``.

    A sweep epilogue leaves each cursor's state as a row view of the
    sweep's struct-of-arrays (and stamps ``_row``); when the same group
    returns with every view intact — the steady serving state — the
    previous array IS the stack, so it is reused instead of rebuilt.
    Any per-session step in between replaces the cursor's row with a
    fresh array, which defeats the aliasing check and falls back to a
    fresh ``np.stack``.
    """
    base = getattr(cursors[0], attr).base
    if base is not None and base.shape == (S, L):
        for s, c in enumerate(cursors):
            if c._row != s or getattr(c, attr).base is not base:
                break
        else:
            return base
    return np.stack([getattr(c, attr) for c in cursors])


def _gather_windows(
    cursors, block: np.ndarray, rows: np.ndarray, t: np.ndarray,
    H: int, window: np.ndarray,
) -> np.ndarray:
    """Working-set window union ending at each trigger step.

    Each install's estimate is the OR over chunk steps ``t-H .. t``.
    Triggers at least ``H`` columns into the chunk gather their whole
    window off ``block`` in one vectorized pass (``window`` is
    ``arange(H + 1)``); triggers nearer the front reach into the
    session's pre-chunk stream history row by row — sessions younger
    than ``H`` steps clamp exactly like the scalar cursors.  Building
    only the windows that actually install keeps quiet sweeps free of
    the ``(S, H + Cmax, L)`` history-prefixed block they would never
    read.
    """
    L = block.shape[2]
    if H == 0:
        return block[rows, t]
    ws = np.empty((rows.size, L), dtype=np.uint64)
    front = t < H
    inner = ~front
    if inner.any():
        r2 = rows[inner]
        t2 = t[inner]
        ws[inner] = np.bitwise_or.reduce(
            block[r2[:, None], (t2 - H)[:, None] + window], axis=1
        )
    for j in np.flatnonzero(front):
        s = int(rows[j])
        tj = int(t[j])
        acc = np.bitwise_or.reduce(block[s, : tj + 1], axis=0)
        tail = cursors[s].stream.tail_rows(H - tj)
        if tail.shape[0]:
            acc = acc | np.bitwise_or.reduce(tail, axis=0)
        ws[j] = acc
    return ws


def _assemble_installs(
    inst_sess: list, inst_step: list, inst_lanes: list, S: int, L: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-epoch install records into session-major step order."""
    if not inst_sess:
        return (
            np.zeros((0, L), dtype=np.uint64),
            np.zeros(S, dtype=np.int64),
        )
    if len(inst_sess) == 1:
        # One epoch (one install per row) or one resolver pass: the
        # record is already in session-major step order.
        sess, lanes = inst_sess[0], inst_lanes[0]
    else:
        sess = np.concatenate(inst_sess)
        order = np.lexsort((np.concatenate(inst_step), sess))
        lanes = np.concatenate(inst_lanes, axis=0)[order]
    counts = np.bincount(sess, minlength=S).astype(np.int64)
    return lanes, counts


#: Handoff crossover for ``sweep_many``: once a kernel epoch serves
#: fewer than this many live steps (summed over the stack), or fewer
#: than this many are left to serve, every still-active session is
#: finished by the policy's Python-int resolver instead of further
#: epochs.  A kernel epoch costs about 25 NumPy calls however few rows
#: it advances, while the resolver costs a fraction of a microsecond
#: per step; calm stacks advance thousands of steps per epoch and never
#: hand off, trigger-dense stacks hand off after their first epoch and
#: stacks smaller than this skip the kernel.  Measured on SHyRA app
#: traces (width 48, 64-step ragged chunks, S = 1..128) and drifting
#: width-96 traffic (S = 13, 128): from 128 up every app-trace stack
#: beat the kernel alone, and from 192 up 128-session cadence-8 window
#: stacks on drifting traffic hand off and lose.  Decisions are
#: bit-identical either way; the equivalence suite pins it to 0 to
#: keep the epoch kernel under adversarial coverage.
HANDOFF_STEPS = 128


def _hand_off(epochs: int, advanced: int, remaining: int) -> bool:
    """Handoff rule after ``epochs`` kernel epochs, the last of which
    served ``advanced`` live steps, with ``remaining`` still to serve."""
    return remaining < HANDOFF_STEPS or (
        epochs > 0 and advanced < HANDOFF_STEPS
    )


class _PreChunkHistory:
    """Unions of a stream's last ``q`` pre-chunk rows, for a resolver.

    A working-set window reaches into the stream only for triggers
    nearer the chunk front than the window length, and a session's
    first such trigger reaches furthest back: one suffix accumulate
    over the rows it needs, built on first use, serves every later one,
    and only the unions actually asked for become Python ints.
    """

    __slots__ = ("_stream", "_unions")

    def __init__(self, stream: PackedStream):
        self._stream = stream
        self._unions = None

    def union(self, q: int) -> int:
        if self._unions is None:
            tail = self._stream.tail_rows(q)
            self._unions = np.bitwise_or.accumulate(tail[::-1], axis=0)
        held = self._unions.shape[0]
        # A stream younger than q steps clamps, as the scalar deques do.
        return lanes_to_masks(self._unions[min(q, held) - 1]) if held else 0


def _book_resolved(
    resolved, rows, lengths, pos, hyper, sizes,
    inst_sess: list, inst_step: list, inst_lanes: list,
) -> None:
    """Write a resolver's per-step sizes, hyper flags and installs back
    into the kernel's arrays; the installs become one more record."""
    step_sizes, inst_s, inst_t, inst_l = resolved
    for s, sz in zip(rows.tolist(), step_sizes):
        sizes[s, int(pos[s]) : int(lengths[s])] = sz
    if inst_s:
        sess = np.array(inst_s, dtype=np.intp)
        step = np.array(inst_t, dtype=np.intp)
        hyper[sess, step] = True
        inst_sess.append(sess)
        inst_step.append(step)
        inst_lanes.append(inst_l)


def _sweep_lengths(S: int, Cmax: int, lengths) -> np.ndarray:
    if lengths is None:
        return np.full(S, Cmax, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (S,) or lengths.min() < 1 or lengths.max() > Cmax:
        raise ValueError("lengths must hold one value in [1, Cmax] per chunk")
    return lengths


def _empty_batch(L: int) -> CursorBatch:
    return CursorBatch(
        hyper=np.zeros(0, dtype=bool),
        sizes=np.zeros(0, dtype=np.int64),
        installed=np.zeros((0, L), dtype=np.uint64),
    )


def plan_with_cursor(cursor, seq: RequirementSequence) -> SingleTaskSchedule:
    """Drive a policy cursor over a whole sequence.

    Every cursor hyperreconfigures at step 0 and afterwards whenever a
    requirement does not fit, so the recorded masks already cover their
    blocks; they are still widened by the block unions as a safety net
    (a no-op for well-behaved cursors, and the cheapest way to keep the
    "explicit masks must cover" invariant unconditionally true).

    Cursors honoring the batched contract (``step_many``) are advanced
    in one vectorized call; scalar cursors step per requirement.  The
    block-union widening runs on packed lanes either way (one
    ``bitwise_or.reduceat`` instead of a per-step Python union loop).
    """
    masks = seq.masks
    n = len(masks)
    if n == 0:
        return SingleTaskSchedule(n=0, hyper_steps=())
    width = seq.universe.size
    lanes = masks_to_lanes(masks, width)
    if hasattr(cursor, "step_many"):
        batch = cursor.step_many(lanes)
        hyper_steps = [int(i) for i in np.flatnonzero(batch.hyper)]
        installed_lanes = batch.installed
    else:
        hyper_steps = []
        hyper_masks = []
        for i, req in enumerate(masks):
            installed = cursor.step(i, req)
            if installed is not None:
                hyper_steps.append(i)
                hyper_masks.append(installed)
        installed_lanes = masks_to_lanes(hyper_masks, width)
    if hyper_steps:
        starts = np.asarray(hyper_steps, dtype=np.intp)
        unions = np.bitwise_or.reduceat(lanes, starts, axis=0)
        widened = lanes_to_masks(installed_lanes | unions)
    else:  # a degenerate custom cursor that never installs
        widened = []
    return SingleTaskSchedule(
        n=n, hyper_steps=tuple(hyper_steps), explicit_masks=tuple(widened)
    )


def _resolve_rent_or_buy(
    cursors, block, rows, pos, lengths, n0, cur, cur_size, served, regret,
    threshold,
):
    """Finish sessions ``rows`` of a rent-or-buy sweep on Python ints.

    The loop body is :meth:`_RentOrBuyCursor.step`, resumed from each
    session's kernel state (``pos``, ``cur``, ``cur_size``, ``served``,
    ``regret``); the final state is written back into the kernel's
    arrays.  Returns per-session step sizes from ``pos`` on, and the
    installs as session and step lists plus ``(T, L)`` lanes.
    """
    H = cursors[0].memory - 1
    reqs_of = lanes_to_masks(block[rows])
    curs = lanes_to_masks(cur[rows])
    servs = lanes_to_masks(served[rows])
    step_sizes, inst_s, inst_t, inst_m = [], [], [], []
    for r, s in enumerate(rows.tolist()):
        reqs = reqs_of[r]
        c, sv = curs[r], servs[r]
        ncur = ~c
        csz = int(cur_size[s])
        rg = float(regret[s])
        thr = float(threshold[s])
        p = int(pos[s])
        forced = 0 if p == 0 and n0[s] == 0 else -1
        history = _PreChunkHistory(cursors[s].stream)
        sz = []
        for i in range(p, int(lengths[s])):
            req = reqs[i]
            must = req & ncur or i == forced
            if not must:
                u = sv | req
                d = csz - u.bit_count()
                must = rg + d > thr
                if not must:
                    sv = u
                    rg += d
                    sz.append(csz)
                    continue
            lo = i - H
            c = reduce(or_, reqs[lo if lo > 0 else 0 : i + 1])
            if lo < 0:
                c |= history.union(-lo)
            ncur = ~c
            csz = c.bit_count()
            sv = req
            rg = 0.0
            sz.append(csz)
            inst_s.append(s)
            inst_t.append(i)
            inst_m.append(c)
        step_sizes.append(sz)
        curs[r], servs[r] = c, sv
        cur_size[s] = csz
        regret[s] = rg
    width = cursors[0].stream.width
    cur[rows] = masks_to_lanes(curs, width)
    served[rows] = masks_to_lanes(servs, width)
    return step_sizes, inst_s, inst_t, masks_to_lanes(inst_m, width)


class _RentOrBuyCursor:
    """State machine behind :class:`RentOrBuyScheduler`."""

    __slots__ = ("w", "alpha", "current", "served_union", "regret", "recent")

    def __init__(self, w: float, alpha: float, memory: int):
        self.w = w
        self.alpha = alpha
        self.current = 0
        self.served_union = 0
        self.regret = 0.0
        # Working-set estimate = new requirement ∪ last (memory-1) ones.
        self.recent = deque(maxlen=memory - 1) if memory > 1 else None

    def step(self, i: int, req: int) -> int | None:
        must = bool(req & ~self.current) or i == 0
        if not must:
            # Regret of serving this step under the old hypercontext.
            step_regret = (
                self.current.bit_count() - (self.served_union | req).bit_count()
            )
            if self.regret + step_regret > self.alpha * self.w:
                must = True
        installed = None
        if must:
            working_set = req
            if self.recent is not None:
                for m in self.recent:
                    working_set |= m
            self.current = working_set
            self.served_union = req
            self.regret = 0.0
            installed = working_set
        else:
            self.served_union |= req
            self.regret += self.current.bit_count() - self.served_union.bit_count()
        if self.recent is not None:
            self.recent.append(req)
        return installed


class _BatchedRentOrBuyCursor:
    """Lane-packed rent-or-buy cursor (:class:`_RentOrBuyCursor` is the
    scalar oracle; decisions here are bit-identical).

    ``step_many`` processes a chunk *segment by segment*: between two
    hyperreconfigurations the hypercontext is frozen, so the served
    union is a prefix union over the segment, the regret a cumulative
    sum of popcount differences, and the next trigger (misfit or
    regret overflow) is one ``argmax`` — all NumPy, no per-step Python.
    The regret arithmetic stays exact: every addend is an integer
    (representable in float64), so the vectorized cumulative sum equals
    the scalar's sequential float accumulation bit for bit.
    """

    __slots__ = (
        "w",
        "alpha",
        "memory",
        "stream",
        "scan_min",
        "scan_max",
        "multi_trigger_hits",
        "_cur",
        "_cur_size",
        "_served",
        "_regret",
        "_row",
    )

    #: Galloping sweep bounds: prefix unions are recomputed from each
    #: segment start, so an unbounded sweep would be O(chunk²) when
    #: hypers are frequent — and a large fixed window wastes compute
    #: past the trigger when they are.  Each segment starts with a
    #: small sweep that doubles while no trigger is found (total rows
    #: touched stay within ~2× the segment length either way).  State
    #: carries across sweep windows exactly as it does across chunks,
    #: so the bounds only shape the work, never the decisions.  The
    #: class attributes are defaults; per-scheduler tunables
    #: (``RentOrBuyScheduler(scan_min=..., scan_max=...)``) override
    #: them per cursor — bench E16 sweeps the grid.
    _SCAN_MIN = 128
    _SCAN_MAX = 4096

    def __init__(
        self,
        w: float,
        alpha: float,
        memory: int,
        width: int,
        *,
        scan_min: int | None = None,
        scan_max: int | None = None,
    ):
        self.w = w
        self.alpha = alpha
        self.memory = memory
        self.scan_max = self._SCAN_MAX if scan_max is None else int(scan_max)
        if scan_min is None:
            # A lone small scan_max implies the window ceiling; don't
            # make the caller restate the floor to satisfy min ≤ max.
            self.scan_min = min(self._SCAN_MIN, self.scan_max)
        else:
            self.scan_min = int(scan_min)
        if self.scan_min < 1:
            raise ValueError("scan_min must be at least 1")
        if self.scan_max < self.scan_min:
            raise ValueError("scan_max must be at least scan_min")
        self.stream = PackedStream(width, history=memory - 1)
        L = self.stream.lane_width
        self._cur = np.zeros(L, dtype=np.uint64)
        self._cur_size = 0
        self._served = np.zeros(L, dtype=np.uint64)
        self._regret = 0.0
        #: Row index this cursor held in the last fused sweep's
        #: struct-of-arrays (see ``_stack_rows``); -1 before any sweep.
        self._row = -1
        #: Triggers resolved by the multi-trigger fast path (hectic
        #: streams resolve several misfits per sweep window without
        #: recomputing the prefix-union/popcount/cumsum passes).
        self.multi_trigger_hits = 0

    @property
    def current(self) -> int:
        """Current hypercontext as an int mask (cursor contract)."""
        return lanes_to_masks(self._cur)

    def step_many(self, lanes: np.ndarray) -> CursorBatch:
        """Advance the cursor over a ``(C, L)`` uint64 requirement chunk."""
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        C = lanes.shape[0]
        L = self.stream.lane_width
        if C == 0:
            return _empty_batch(L)
        first_forced = self.stream.n == 0
        ext, off = self.stream.push(lanes)
        hyper = np.zeros(C, dtype=bool)
        sizes = np.empty(C, dtype=np.int64)
        installed: list[np.ndarray] = []
        threshold = self.alpha * self.w
        cur, cur_size = self._cur, self._cur_size
        served, regret = self._served, self._regret
        pos = 0
        scan = self.scan_min
        ncur = ~cur
        while pos < C:
            stop = min(C, pos + scan)
            rest = lanes[pos:stop]
            acc = np.bitwise_or.accumulate(rest, axis=0)
            np.bitwise_or(acc, served, out=acc)
            # served ⊆ cur, so the prefix union escapes cur exactly
            # where the first unservable requirement sits (monotone).
            misfit = (acc & ncur).any(axis=1)
            pc = popcount_u64(acc).sum(axis=1, dtype=np.int64)
            csum = np.cumsum(cur_size - pc, dtype=np.float64)
            if regret:  # exact either way; skips an add per quiet sweep
                csum = regret + csum
            trigger = misfit | (csum > threshold)
            if first_forced and pos == 0:
                trigger[0] = True
            hit = int(np.argmax(trigger))
            if not trigger[hit]:
                sizes[pos:stop] = cur_size
                served = acc[-1]
                regret = float(csum[-1])
                pos = stop
                scan = min(scan * 2, self.scan_max)
                continue
            t = pos + hit
            scan = self.scan_min
            sizes[pos:t] = cur_size
            # Working set = this requirement ∪ the last (memory-1) ones,
            # read off the history-prefixed chunk.
            lo = max(0, off + t - (self.memory - 1))
            ws = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
            cur = ws
            ncur = ~cur
            cur_size = int(popcount_u64(ws).sum(dtype=np.int64))
            served = lanes[t].copy()
            regret = 0.0
            hyper[t] = True
            installed.append(ws)
            sizes[t] = cur_size
            pos = t + 1
            # Multi-trigger sweep: on hectic streams the next trigger
            # is usually another *misfit* a handful of steps ahead, and
            # recomputing the three-pass prefix-union sweep over the
            # whole scan window per segment is what makes short
            # segments amortize poorly.  After an install the regret
            # restarts from zero, so the next misfit (one AND-any pass
            # over the remaining window) resolves immediately while the
            # regret term is *quiescent*: each post-install addend is
            # bounded by |cur| − |req[t]| (the served union only grows
            # from req[t]), so ``gap`` misfit-free steps accrue at most
            # gap·(|cur| − |req[t]|).  When that O(1) bound cannot rule
            # a regret trigger out, the regret is swept exactly — but
            # only over the ``gap`` rows, not the whole window.  Both
            # checks are exact-or-conservative, never optimistic, so
            # decisions stay bit-identical to the scalar oracle; only
            # the trailing no-misfit stretch of a window falls back to
            # the outer full sweep (which also carries served/regret
            # state across windows and chunks).
            while pos < stop:
                mis = (lanes[pos:stop] & ncur).any(axis=1)
                nh = int(mis.argmax())
                if not mis[nh]:
                    break  # no misfit left: the next trigger (if any)
                    # needs the full continuation sweep
                t = pos + nh
                # Quiescence ladder, cheapest first: gap·|cur| already
                # rules most regret triggers out for free; the tighter
                # gap·(|cur| − |served|) bound costs one popcount; only
                # when both fail is the regret swept exactly — over the
                # gap rows, not the window.
                if nh and nh * cur_size > threshold:
                    served_size = int(
                        popcount_u64(served).sum(dtype=np.int64)
                    )
                    if nh * (cur_size - served_size) > threshold:
                        # Exact regret over the gap: does it fire first?
                        acc = np.bitwise_or.accumulate(
                            lanes[pos:t], axis=0
                        )
                        np.bitwise_or(acc, served, out=acc)
                        pc = popcount_u64(acc).sum(axis=1, dtype=np.int64)
                        csum = np.cumsum(cur_size - pc, dtype=np.float64)
                        rtrig = csum > threshold
                        rh = int(rtrig.argmax())
                        if rtrig[rh]:
                            t = pos + rh
                sizes[pos:t] = cur_size
                lo = max(0, off + t - (self.memory - 1))
                ws = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
                cur = ws
                ncur = ~cur
                cur_size = int(popcount_u64(ws).sum(dtype=np.int64))
                served = lanes[t].copy()
                regret = 0.0
                hyper[t] = True
                installed.append(ws)
                sizes[t] = cur_size
                self.multi_trigger_hits += 1
                pos = t + 1
        self._cur, self._cur_size = cur, cur_size
        self._served, self._regret = served, regret
        if installed:
            installed_arr = np.asarray(installed, dtype=np.uint64)
        else:  # pragma: no cover - a chunk always installs on first feed
            installed_arr = np.zeros((0, L), dtype=np.uint64)
        return CursorBatch(hyper=hyper, sizes=sizes, installed=installed_arr)

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk, epoch by epoch.

        ``block`` stacks one ``(C_s, L)`` chunk per cursor into
        ``(S, Cmax, L)`` (ragged chunks zero-padded on the right, their
        true lengths in ``lengths``); all cursors must share the lane
        width and ``memory`` — the hub's group key guarantees it, while
        ``w``/``alpha`` may vary and are gathered as vectors.

        The kernel is *resumable*: per-session offsets ``pos`` track
        how far each chunk has been served.  Each epoch scans a shared
        column window — rows before a session's offset are masked to
        zero, so one prefix accumulate from column 0 serves every
        resume point at once (zero rows OR as the identity, and
        served ⊆ cur keeps masked prefixes misfit-free) — locates every
        session's *next* trigger (misfit, regret overflow, or the
        forced first step) with one argmax, and resolves all due
        triggers in one batched install pass: working-set windows
        gathered off the block (pre-chunk stream history for triggers
        near the chunk front), popcounts, served resets, regret
        resets.  Sessions with no trigger in the window
        bank their served union and regret and resume next epoch.  The
        outer loop therefore runs once per *trigger epoch*, never per
        session × step.

        An epoch costs about 25 array calls however few steps it
        serves, so once one serves — or the stack still holds — fewer
        than :data:`HANDOFF_STEPS` live steps (a trigger-dense or small
        stack), every still-active session is handed to
        :func:`_resolve_rent_or_buy` — :meth:`_RentOrBuyCursor.step` on
        Python ints, resumed from the kernel's ``pos``/``cur``/
        ``cur_size``/``served``/``regret`` — which finishes the chunk at
        a fraction of a microsecond per step.  Calm stacks advance whole
        chunks per epoch and never hand off.

        Exactness mirrors ``step_many``: the regret cumsum adds only
        integers (exactly representable in float64) to the carried
        float regret, so any summation order reproduces the scalar
        sequential accumulation bit for bit, and carried regret never
        exceeds the threshold, so masked prefix columns can never
        trigger.  Cursor and stream state are committed on return.
        """
        S, Cmax, L = block.shape
        lengths = _sweep_lengths(S, Cmax, lengths)
        memory = cursors[0].memory
        H = memory - 1
        cur = _stack_rows(cursors, "_cur", S, L)
        cur_size = np.fromiter(
            (c._cur_size for c in cursors), count=S, dtype=np.int64
        )
        served = _stack_rows(cursors, "_served", S, L)
        regret = np.fromiter(
            (c._regret for c in cursors), count=S, dtype=np.float64
        )
        threshold = np.fromiter(
            (c.alpha * c.w for c in cursors), count=S, dtype=np.float64
        )
        n0 = np.fromiter(
            (c.stream.n for c in cursors), count=S, dtype=np.int64
        )
        hyper = np.zeros((S, Cmax), dtype=bool)
        sizes = np.zeros((S, Cmax), dtype=np.int64)
        pos = np.zeros(S, dtype=np.int64)
        active = pos < lengths
        inst_sess: list[np.ndarray] = []
        inst_step: list[np.ndarray] = []
        inst_lanes: list[np.ndarray] = []
        window = np.arange(H + 1)
        scan_min = cursors[0].scan_min
        scan_max = max(cursors[0].scan_max, scan_min)
        scan = scan_min
        zero = np.uint64(0)
        epochs = advanced = 0
        total = remaining = int(lengths.sum())
        while True:
            a = np.flatnonzero(active)
            if a.size == 0:
                break
            if _hand_off(epochs, advanced, remaining):
                resolved = _resolve_rent_or_buy(
                    cursors, block, a, pos, lengths, n0, cur, cur_size,
                    served, regret, threshold,
                )
                _book_resolved(
                    resolved, a, lengths, pos, hyper, sizes,
                    inst_sess, inst_step, inst_lanes,
                )
                break
            epochs += 1
            pa = pos[a]
            la = lengths[a]
            lo = int(pa.min())
            hi = min(Cmax, lo + scan)
            span = hi - lo
            # Uniform epochs — every row resumes at ``lo`` and the whole
            # window is in-bounds (the common calm case, and always the
            # first epoch of an equal-length sweep) — skip the live mask
            # entirely and read the block through views instead of
            # fancy-index copies.
            uniform = bool((pa == lo).all()) and bool((la >= hi).all())
            full = a.size == S
            sub = block[:, lo:hi] if full else block[a, lo:hi]
            if uniform:
                live = None
                acc = np.bitwise_or.accumulate(sub, axis=1)
            else:
                cols = np.arange(lo, hi)
                live = (cols >= pa[:, None]) & (cols < la[:, None])
                acc = np.bitwise_or.accumulate(
                    np.where(live[:, :, None], sub, zero), axis=1
                )
            np.bitwise_or(
                acc,
                served[:, None, :] if full else served[a, None, :],
                out=acc,
            )
            curg = cur if full else cur[a]
            misfit = ((acc & ~curg[:, None, :]) != zero).any(axis=2)
            pc = popcount_u64(acc).sum(axis=2, dtype=np.int64)
            deficit = cur_size[a, None] - pc
            if not uniform:
                deficit = np.where(live, deficit, 0)
            csum = np.cumsum(deficit, axis=1, dtype=np.float64)
            csum += regret[a, None]
            trigger = misfit | (csum > threshold[a, None])
            if not uniform:
                trigger &= live
            forced = (n0[a] == 0) & (pa == 0)
            if forced.any():
                # The first global step always installs; pos == 0
                # forces lo == 0, so column 0 is window column 0.
                trigger[forced, 0] = True
            hitcol = np.argmax(trigger, axis=1)
            has = trigger[np.arange(a.size), hitcol]
            nt = np.flatnonzero(~has)
            if nt.size:
                # No trigger in the window: serve every live column at
                # the frozen size, bank served/regret at the last one,
                # resume from the window edge (or finish the chunk).
                rows = a[nt]
                if uniform:
                    sizes[rows, lo:hi] += cur_size[rows, None]
                    served[rows] = acc[nt, -1]
                    regret[rows] = csum[nt, -1]
                    pos[rows] = hi
                else:
                    sizes[rows, lo:hi] += live[nt] * cur_size[rows, None]
                    adv = np.minimum(la[nt], hi)
                    moved = adv > pa[nt]
                    if moved.any():
                        mr = nt[moved]
                        last = adv[moved] - 1 - lo
                        served[a[mr]] = acc[mr, last]
                        regret[a[mr]] = csum[mr, last]
                        pos[a[mr]] = adv[moved]
                active[rows] = pos[rows] < lengths[rows]
            tr = np.flatnonzero(has)
            if tr.size:
                rows = a[tr]
                tcol = hitcol[tr]
                t = lo + tcol
                # Quiet prefix [pos, t) at the old frozen size...
                prefix = np.arange(span) < tcol[:, None]
                if not uniform:
                    prefix &= live[tr]
                sizes[rows, lo:hi] += prefix * cur_size[rows, None]
                # ...then one batched install: working set = this
                # requirement ∪ the last (memory-1).  Triggers deep
                # enough into the chunk read their whole window off the
                # block in one gather; the rare ones near the front
                # (t < H) reach into per-stream history row by row.
                ws = _gather_windows(cursors, block, rows, t, H, window)
                cur[rows] = ws
                new_sizes = popcount_u64(ws).sum(axis=1, dtype=np.int64)
                cur_size[rows] = new_sizes
                served[rows] = block[rows, t]
                regret[rows] = 0.0
                hyper[rows, t] = True
                sizes[rows, t] = new_sizes
                inst_sess.append(rows)
                inst_step.append(t)
                inst_lanes.append(ws)
                pos[rows] = t + 1
                active[rows] = pos[rows] < lengths[rows]
                scan = scan_min
            else:
                scan = min(scan * 2, scan_max)
            left = total - int(pos.sum())
            advanced, remaining = remaining - left, left
        for s, c in enumerate(cursors):
            c._cur = cur[s]
            c._cur_size = int(cur_size[s])
            c._served = served[s]
            c._regret = float(regret[s])
            c._row = s
        unions = np.bitwise_or.reduce(block, axis=1)
        PackedStream.extend_many(
            [c.stream for c in cursors],
            block,
            unions=unions,
            lengths=None if int(lengths.min()) == Cmax else lengths,
        )
        installed, counts = _assemble_installs(
            inst_sess, inst_step, inst_lanes, S, L
        )
        hyper.setflags(write=False)
        sizes.setflags(write=False)
        return FusedSweep(
            hyper=hyper,
            sizes=sizes,
            installed=installed,
            installed_counts=counts,
            lengths=lengths,
            epochs=epochs,
        )


class RentOrBuyScheduler:
    """Regret-bounded online policy (ski rental generalization).

    State: the current hypercontext mask ``h`` and the accumulated
    *regret* — the extra switch-writes paid because ``h`` is larger
    than the union of the requirements actually served since the last
    hyperreconfiguration.  When serving the next requirement would
    either (a) not fit into ``h``, or (b) push the regret past
    ``alpha · w``, the scheduler hyperreconfigures to the union of the
    last ``memory`` requirements (its estimate of the new working set).
    """

    def __init__(
        self,
        w: float,
        *,
        alpha: float = 1.0,
        memory: int = 4,
        scan_min: int | None = None,
        scan_max: int | None = None,
    ):
        if w <= 0:
            raise ValueError("w must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if memory < 1:
            raise ValueError("memory must be at least 1")
        if scan_min is not None and scan_min < 1:
            raise ValueError("scan_min must be at least 1")
        if (
            scan_min is not None
            and scan_max is not None
            and scan_max < scan_min
        ):
            raise ValueError("scan_max must be at least scan_min")
        self.w = w
        self.alpha = alpha
        self.memory = memory
        #: Galloping sweep bounds for the batched cursor; ``None``
        #: defers to the cursor-class defaults.  Pure performance
        #: tunables — decisions never depend on them.
        self.scan_min = scan_min
        self.scan_max = scan_max
        self.name = f"rent_or_buy(alpha={alpha}, memory={memory})"

    def cursor(self) -> _RentOrBuyCursor:
        return _RentOrBuyCursor(self.w, self.alpha, self.memory)

    def batched_cursor(self, width: int) -> _BatchedRentOrBuyCursor:
        """Lane-packed cursor over a ``width``-switch universe."""
        return _BatchedRentOrBuyCursor(
            self.w,
            self.alpha,
            self.memory,
            width,
            scan_min=self.scan_min,
            scan_max=self.scan_max,
        )

    def plan(self, seq: RequirementSequence) -> SingleTaskSchedule:
        return plan_with_cursor(self.cursor(), seq)


def _resolve_window(cursors, block, rows, pos, lengths, n0, cur, cur_size):
    """Finish sessions ``rows`` of a window sweep on Python ints.

    The loop body is :meth:`_WindowCursor.step`, resumed from each
    session's kernel state (``pos``, ``cur``, ``cur_size``; cadence
    steps sit at global indices ``n0 + i``); returns what
    :func:`_resolve_rent_or_buy` returns.
    """
    k = cursors[0].k
    reqs_of = lanes_to_masks(block[rows])
    curs = lanes_to_masks(cur[rows])
    step_sizes, inst_s, inst_t, inst_m = [], [], [], []
    for r, s in enumerate(rows.tolist()):
        reqs = reqs_of[r]
        c = curs[r]
        ncur = ~c
        csz = int(cur_size[s])
        p = int(pos[s])
        # First step from p on whose global index n0 + i is a multiple of k.
        cadence = p + (-(int(n0[s]) + p)) % k
        history = _PreChunkHistory(cursors[s].stream)
        sz = []
        for i in range(p, int(lengths[s])):
            req = reqs[i]
            if i == cadence or req & ncur:
                if i == cadence:
                    cadence += k
                lo = i - k
                c = reduce(or_, reqs[lo if lo > 0 else 0 : i + 1])
                if lo < 0:
                    c |= history.union(-lo)
                ncur = ~c
                csz = c.bit_count()
                inst_s.append(s)
                inst_t.append(i)
                inst_m.append(c)
            sz.append(csz)
        step_sizes.append(sz)
        curs[r] = c
        cur_size[s] = csz
    width = cursors[0].stream.width
    cur[rows] = masks_to_lanes(curs, width)
    return step_sizes, inst_s, inst_t, masks_to_lanes(inst_m, width)


class _WindowCursor:
    """State machine behind :class:`WindowScheduler`."""

    __slots__ = ("k", "current", "window")

    def __init__(self, k: int):
        self.k = k
        self.current = 0
        self.window = deque(maxlen=k)

    def step(self, i: int, req: int) -> int | None:
        installed = None
        if i % self.k == 0 or (req & ~self.current):
            estimate = req
            for m in self.window:
                estimate |= m
            self.current = estimate
            installed = estimate
        self.window.append(req)
        return installed


class _BatchedWindowCursor:
    """Lane-packed window cursor (:class:`_WindowCursor` is the scalar
    oracle; decisions here are bit-identical).

    Cadence triggers sit at known global step indices, so a chunk
    splits into spans of at most ``k`` steps; within a span the only
    possible trigger is a misfit, located with one vectorized AND-any.
    The installed estimate is the rolling ``k+1``-wide window union read
    off the history-prefixed chunk.
    """

    __slots__ = ("k", "stream", "_cur", "_cur_size", "_row")

    def __init__(self, k: int, width: int):
        self.k = k
        self.stream = PackedStream(width, history=k)
        self._cur = np.zeros(self.stream.lane_width, dtype=np.uint64)
        self._cur_size = 0
        self._row = -1

    @property
    def current(self) -> int:
        """Current hypercontext as an int mask (cursor contract)."""
        return lanes_to_masks(self._cur)

    def step_many(self, lanes: np.ndarray) -> CursorBatch:
        """Advance the cursor over a ``(C, L)`` uint64 requirement chunk."""
        lanes = np.ascontiguousarray(lanes, dtype=np.uint64)
        C = lanes.shape[0]
        L = self.stream.lane_width
        if C == 0:
            return _empty_batch(L)
        i0 = self.stream.n  # global index of the chunk's first step
        ext, off = self.stream.push(lanes)
        hyper = np.zeros(C, dtype=bool)
        sizes = np.empty(C, dtype=np.int64)
        installed: list[np.ndarray] = []
        cur, cur_size = self._cur, self._cur_size
        k = self.k
        pos = 0
        while pos < C:
            rem = (i0 + pos) % k
            next_cad = pos if rem == 0 else pos + (k - rem)
            if next_cad == pos:
                t = pos
            else:
                span = lanes[pos : min(next_cad, C)]
                misfit = (span & ~cur).any(axis=1)
                hit = int(np.argmax(misfit))
                if misfit[hit]:
                    t = pos + hit
                elif next_cad < C:
                    t = next_cad
                else:
                    sizes[pos:] = cur_size
                    break
            sizes[pos:t] = cur_size
            # Estimate = this requirement ∪ the previous window (the
            # last min(i, k) requirements), stale bits included.
            lo = max(0, off + t - k)
            estimate = np.bitwise_or.reduce(ext[lo : off + t + 1], axis=0)
            cur = estimate
            cur_size = int(popcount_u64(estimate).sum(dtype=np.int64))
            hyper[t] = True
            installed.append(estimate)
            sizes[t] = cur_size
            pos = t + 1
        self._cur, self._cur_size = cur, cur_size
        if installed:
            installed_arr = np.asarray(installed, dtype=np.uint64)
        else:  # pragma: no cover - a chunk always installs on first feed
            installed_arr = np.zeros((0, L), dtype=np.uint64)
        return CursorBatch(hyper=hyper, sizes=sizes, installed=installed_arr)

    @classmethod
    def sweep_many(cls, cursors, block: np.ndarray, lengths=None) -> FusedSweep:
        """Advance every cursor over its whole chunk, epoch by epoch.

        ``block`` is ``(S, Cmax, L)``, one zero-padded chunk per cursor
        (true lengths in ``lengths``); all cursors share the lane width
        and cadence ``k`` (hub group key pins both).  Same resumable
        shape as the rent-or-buy kernel, with the policy's two trigger
        kinds instead: cadence boundaries sit at known global indices
        (one modular arithmetic pass per window) and misfits are
        per-row AND-any tests against the frozen hypercontext — no
        prefix accumulate or regret state at all.  Every due trigger
        resolves in one batched install pass (rolling ``k+1``-wide
        window unions gathered off the block and, for triggers nearer
        the front than ``k``, the pre-chunk stream history), and the
        sweep resumes from per-session offsets.  Once an epoch serves —
        or the stack still holds — fewer than :data:`HANDOFF_STEPS`
        live steps, every still-active session is finished by
        :func:`_resolve_window` —
        :meth:`_WindowCursor.step` on Python ints, resumed from the
        kernel's ``pos``/``cur``/``cur_size``.
        """
        S, Cmax, L = block.shape
        lengths = _sweep_lengths(S, Cmax, lengths)
        k = cursors[0].k
        cur = _stack_rows(cursors, "_cur", S, L)
        cur_size = np.fromiter(
            (c._cur_size for c in cursors), count=S, dtype=np.int64
        )
        n0 = np.fromiter(
            (c.stream.n for c in cursors), count=S, dtype=np.int64
        )
        hyper = np.zeros((S, Cmax), dtype=bool)
        sizes = np.zeros((S, Cmax), dtype=np.int64)
        pos = np.zeros(S, dtype=np.int64)
        active = pos < lengths
        inst_sess: list[np.ndarray] = []
        inst_step: list[np.ndarray] = []
        inst_lanes: list[np.ndarray] = []
        window = np.arange(k + 1)
        # Cadence boundaries are at most k apart, so a 2k window always
        # catches every session's next one regardless of phase; wider
        # scans would only touch columns a trigger resets anyway.
        scan = max(2 * k, 16)
        zero = np.uint64(0)
        epochs = advanced = 0
        total = remaining = int(lengths.sum())
        while True:
            a = np.flatnonzero(active)
            if a.size == 0:
                break
            if _hand_off(epochs, advanced, remaining):
                resolved = _resolve_window(
                    cursors, block, a, pos, lengths, n0, cur, cur_size
                )
                _book_resolved(
                    resolved, a, lengths, pos, hyper, sizes,
                    inst_sess, inst_step, inst_lanes,
                )
                break
            epochs += 1
            pa = pos[a]
            la = lengths[a]
            lo = int(pa.min())
            hi = min(Cmax, lo + scan)
            cols = np.arange(lo, hi)
            span = hi - lo
            # Same uniform fast path as the rent-or-buy kernel: when
            # every row resumes at ``lo`` with the whole window
            # in-bounds, skip the live mask and index through views.
            uniform = bool((pa == lo).all()) and bool((la >= hi).all())
            full = a.size == S
            sub = block[:, lo:hi] if full else block[a, lo:hi]
            curg = cur if full else cur[a]
            misfit = ((sub & ~curg[:, None, :]) != zero).any(axis=2)
            cadence = ((n0[a, None] + cols) % k) == 0
            trigger = misfit | cadence
            if uniform:
                live = None
            else:
                live = (cols >= pa[:, None]) & (cols < la[:, None])
                trigger &= live
            hitcol = np.argmax(trigger, axis=1)
            has = trigger[np.arange(a.size), hitcol]
            nt = np.flatnonzero(~has)
            if nt.size:
                rows = a[nt]
                if uniform:
                    sizes[rows, lo:hi] += cur_size[rows, None]
                    pos[rows] = hi
                else:
                    sizes[rows, lo:hi] += live[nt] * cur_size[rows, None]
                    adv = np.minimum(la[nt], hi)
                    moved = adv > pa[nt]
                    if moved.any():
                        pos[a[nt[moved]]] = adv[moved]
                active[rows] = pos[rows] < lengths[rows]
            tr = np.flatnonzero(has)
            if tr.size:
                rows = a[tr]
                tcol = hitcol[tr]
                t = lo + tcol
                prefix = np.arange(span) < tcol[:, None]
                if not uniform:
                    prefix &= live[tr]
                sizes[rows, lo:hi] += prefix * cur_size[rows, None]
                # Estimate = this requirement ∪ the previous window
                # (the last min(i, k) requirements), stale bits and all.
                est = _gather_windows(cursors, block, rows, t, k, window)
                cur[rows] = est
                new_sizes = popcount_u64(est).sum(axis=1, dtype=np.int64)
                cur_size[rows] = new_sizes
                hyper[rows, t] = True
                sizes[rows, t] = new_sizes
                inst_sess.append(rows)
                inst_step.append(t)
                inst_lanes.append(est)
                pos[rows] = t + 1
                active[rows] = pos[rows] < lengths[rows]
            left = total - int(pos.sum())
            advanced, remaining = remaining - left, left
        for s, c in enumerate(cursors):
            c._cur = cur[s]
            c._cur_size = int(cur_size[s])
            c._row = s
        unions = np.bitwise_or.reduce(block, axis=1)
        PackedStream.extend_many(
            [c.stream for c in cursors],
            block,
            unions=unions,
            lengths=None if int(lengths.min()) == Cmax else lengths,
        )
        installed, counts = _assemble_installs(
            inst_sess, inst_step, inst_lanes, S, L
        )
        hyper.setflags(write=False)
        sizes.setflags(write=False)
        return FusedSweep(
            hyper=hyper,
            sizes=sizes,
            installed=installed,
            installed_counts=counts,
            lengths=lengths,
            epochs=epochs,
        )


class WindowScheduler:
    """Fixed-cadence policy with previous-window estimation.

    Every ``k`` steps the scheduler hyperreconfigures to its estimate
    of the coming block's needs: the union of the *previous* ``k``
    requirements (plus the step's own requirement, which it must serve
    either way).  Because the estimate is history, it can both carry
    stale switches the next block never touches *and* miss switches
    the next block needs; a miss forces an immediate corrective
    hyperreconfiguration mid-block.  Both failure modes cost real
    switch-writes, which is exactly the straw-man behavior the
    rent-or-buy comparison wants to beat.
    """

    def __init__(self, *, k: int = 8):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.name = f"window(k={k})"

    def cursor(self) -> _WindowCursor:
        return _WindowCursor(self.k)

    def batched_cursor(self, width: int) -> _BatchedWindowCursor:
        """Lane-packed cursor over a ``width``-switch universe."""
        return _BatchedWindowCursor(self.k, width)

    def plan(self, seq: RequirementSequence) -> SingleTaskSchedule:
        return plan_with_cursor(self.cursor(), seq)


def run_online(scheduler, seq: RequirementSequence, w: float) -> OnlineRun:
    """Execute an online policy and evaluate its schedule."""
    schedule = scheduler.plan(seq)
    return OnlineRun(
        schedule=schedule,
        cost=switch_cost(seq, schedule, w=w),
        solver=getattr(scheduler, "name", type(scheduler).__name__),
    )


def competitive_report(
    seq: RequirementSequence, w: float, schedulers
) -> list[list]:
    """Rows of (policy, cost, competitive ratio vs offline optimum)."""
    optimum = solve_single_switch(seq, w=w)
    rows = []
    for scheduler in schedulers:
        run = run_online(scheduler, seq, w)
        ratio = run.cost / optimum.cost if optimum.cost else 1.0
        rows.append([run.solver, run.cost, round(ratio, 3)])
    rows.append(["offline optimum", optimum.cost, 1.0])
    return rows
