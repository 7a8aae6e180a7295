"""E15 (extension) — lane-packed vs scalar evaluation of the MT-Switch cost.

``repro.core.packed`` is the single vectorized representation under
every cost-model and solver hot path; the scalar int-mask code remains
the correctness oracle.  This bench measures what the packed
representation buys and proves it changes speed, never answers:

* a batch microbenchmark — a population of random indicator matrices is
  scored per-chromosome through the scalar reference
  (:func:`~repro.core.sync_cost.sync_switch_cost`) and in one call
  through :meth:`~repro.core.packed.PackedProblem.population_cost`,
  across (m, n, |U|) cells *including universes beyond 64 switches*
  (2 and 3 lanes), asserting bit-identical costs and a ≥5× speedup on
  the E14-style acceptance cell (m=8, n=200);
* the GA-shape cell — the population size the ``auto`` solver's GA
  scores every generation (P = 48) on the batch mix's shapes (m 2–4,
  n 12/24), timed per ``population_cost`` call: at this size per-call
  NumPy dispatch, not lane arithmetic, sets the cost, which is what the
  one-shot segmented block-union sweep removes;
* the variant sweep — changeover (with per-task fixed costs) and the
  public-global pseudo-row, the two configurations the pre-packed
  kernel could not express, are spot-checked for bit-identity as well.
"""

import statistics
import time

from repro.analysis.sweeps import make_instance
from repro.core.packed import PackedProblem
from repro.core.schedule import MultiTaskSchedule
from repro.core.sync_cost import PublicGlobalPlan, sync_switch_cost
from repro.core.context import RequirementSequence
from repro.util.rng import make_rng
from repro.util.texttable import format_table

TARGET_CELL = (8, 200, 6)  # (m, n, switches/task) — the ≥5× acceptance cell


def _population(m, n, P, seed):
    rng = make_rng(seed)
    pop = rng.random((P, m, n)) < 0.15
    pop[:, :, 0] = True
    return pop


def _scalar_costs(system, seqs, pop, **kwargs):
    return [
        sync_switch_cost(
            system, seqs, MultiTaskSchedule(chrom.tolist()), **kwargs
        )
        for chrom in pop
    ]


def test_bench_packed_vs_scalar(benchmark, smoke):
    cells = [(4, 100, 6), TARGET_CELL, (8, 200, 13), (4, 100, 40)]
    P = 64
    min_speedup = 5.0
    if smoke:
        cells = [(4, 60, 6), TARGET_CELL, (4, 40, 40)]
        P = 16
        min_speedup = 2.0  # timing-noise head room on tiny runs

    rows = []
    speedups = {}
    for m, n, spt in cells:
        system, seqs = make_instance(m, n, spt, seed=0)
        packed = PackedProblem.compile(system, seqs)
        pop = _population(m, n, P, seed=1)
        packed.population_cost(pop[:2])  # warm NumPy dispatch paths

        t0 = time.perf_counter()
        scalar = _scalar_costs(system, seqs, pop)
        t1 = time.perf_counter()
        vector = packed.population_cost(pop)
        t2 = time.perf_counter()

        # Bit-identical, not approximately — the packed path changes
        # speed, never answers.
        assert [float(x) for x in vector] == scalar
        scalar_s, packed_s = t1 - t0, t2 - t1
        speedups[(m, n, spt)] = scalar_s / packed_s
        rows.append([
            m,
            n,
            m * spt,
            packed.lane_count,
            round(1e6 * scalar_s / P, 1),
            round(1e6 * packed_s / P, 1),
            f"{scalar_s / packed_s:.1f}×",
        ])

    def once():
        m, n, spt = TARGET_CELL
        system, seqs = make_instance(m, n, spt, seed=0)
        packed = PackedProblem.compile(system, seqs)
        return packed.population_cost(_population(m, n, P, seed=1))

    benchmark.pedantic(once, iterations=1, rounds=1)

    print()
    print(format_table(
        ["m", "n", "|U|", "lanes", "scalar µs/eval", "packed µs/eval",
         "speedup"],
        rows,
        title=f"E15: packed vs scalar cost evaluation ({P}-schedule batches)",
    ))
    assert speedups[TARGET_CELL] >= min_speedup


def test_bench_packed_ga_shape(benchmark, smoke):
    """µs per ``population_cost`` call at the GA's population size."""
    P, spt = 48, 6
    calls = 50 if smoke else 400
    rows = []
    for m in (2, 3, 4):
        for n in (12, 24):
            system, seqs = make_instance(m, n, spt, seed=m * 100 + n)
            packed = PackedProblem.compile(system, seqs)
            pop = _population(m, n, P, seed=n)
            vector = packed.population_cost(pop)
            assert [float(x) for x in vector] == _scalar_costs(
                system, seqs, pop
            )
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls // 5):
                    packed.population_cost(pop)
                samples.append((time.perf_counter() - t0) / (calls // 5))
            rows.append([m, n, P, round(1e6 * statistics.median(samples), 1)])

    system, seqs = make_instance(4, 24, spt, seed=424)
    packed = PackedProblem.compile(system, seqs)
    pop = _population(4, 24, P, seed=24)
    benchmark.pedantic(
        lambda: packed.population_cost(pop), iterations=1, rounds=1
    )

    print()
    print(format_table(
        ["m", "n", "P", "packed µs/call"],
        rows,
        title="E15: GA-shape population_cost (6 switches/task)",
    ))


def test_bench_packed_variants_bit_identical(benchmark, smoke):
    """Changeover and public-global — the configurations the old uint64
    kernel could not express — agree with the scalar oracle bitwise."""
    m, n, spt = (3, 40, 5) if smoke else (4, 80, 6)
    P = 8 if smoke else 24
    system, seqs = make_instance(m, n, spt, seed=3)
    packed = PackedProblem.compile(system, seqs)
    pop = _population(m, n, P, seed=4)
    rng = make_rng(5)

    cfix = tuple(0.5 * (j + 1) for j in range(m))
    vector = packed.population_cost(pop, changeover=True, changeover_fixed=cfix)
    scalar = _scalar_costs(
        system, seqs, pop, changeover=True, changeover_fixed=cfix
    )
    assert [float(x) for x in vector] == scalar

    pub_masks = [
        int(x) for x in rng.integers(0, 1 << min(48, system.universe.size), n)
    ]
    public = PublicGlobalPlan(
        seq=RequirementSequence(system.universe, pub_masks),
        hyper_steps=(0, n // 2),
        v=float(m),
    )
    vector = packed.population_cost(pop, w=2.0, public=public)
    scalar = _scalar_costs(system, seqs, pop, w=2.0, public=public)
    assert [float(x) for x in vector] == scalar

    def once():
        return packed.population_cost(
            pop, changeover=True, changeover_fixed=cfix
        )

    benchmark.pedantic(once, iterations=1, rounds=1)
    print()
    print(
        f"E15: changeover + public-global packed paths bit-identical on "
        f"(m={m}, n={n}, P={P})"
    )
