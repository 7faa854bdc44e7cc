"""The derivative kernel mod P, checked against the two oracles.

The chain evaluator (the Taylor recurrence of the variational equation,
exact mod P) is the production path. The factor-list recursion and the explicit operator
product in ``oracles`` compute the same derivatives exactly over the
rationals and share no code with it. Agreement of their values, reduced mod
P, with the kernel's residues on random instances is the core guarantee of
this module; the two oracles also agree with each other exactly.
"""

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperobs.dynamics import (
    MAX_DENSE_SLOTS,
    ChainStacks,
    DynamicsSpec,
    apply_factors,
    check_lane_slots,
    lie_derivatives,
)
from hyperobs.errors import ResourceLimitError
from hyperobs.hypergraph import (
    UniformHypergraph,
    gen_complete,
    gen_hyperchain,
    gen_hyperring,
    gen_hyperstar,
)
from hyperobs.scalars import PRIME, cast, mul, random_point

from conftest import chain_values, int_point, random_uniform_hypergraph
from oracles import (
    Dual,
    RecursionStats,
    columns,
    lie_derivative_naive_scaled,
    lie_derivative_recursive,
    residue,
)


def _frac(values):
    return [Fraction(v) for v in values]


def _residues(values):
    return [residue(v) for v in values]


def test_eval_f_triangle(triangle_dyn):
    assert chain_values(triangle_dyn, [1, 2, 3], 1)[1] == [6, 3, 2]
    assert chain_values(triangle_dyn, [1, 0, 0], 1)[1] == [0, 0, 0]


def test_second_derivative_triangle(triangle_dyn):
    chain = chain_values(triangle_dyn, [1, 2, 3], 2)
    assert chain[0] == [1, 2, 3]
    assert chain[1] == [6, 3, 2]
    # d/dt (x2 x3) = f2 x3 + x2 f3 = 3*3 + 2*2 = 13, and so on
    assert chain[2] == [13, 20, 15]


def test_unfold_single_edge():
    cols = columns(DynamicsSpec(UniformHypergraph(3, 3, [(1, 2, 3)])))
    # row 1 holds (2,3) and (3,2), first factor most significant:
    # (2-1)*3 + (3-1) = 5 and (3-1)*3 + (2-1) = 7
    assert cols == [[5, 7], [2, 6], [1, 3]]


def _kron(vectors):
    # first factor most significant, as in oracles.columns
    out = [Fraction(1)]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return out


def _apply_table(dyn, w):
    # A w over the column table, every listed entry being 1 / (k-1)!
    scale = Fraction(1, factorial(dyn.k - 1))
    return [scale * sum((w[c] for c in cols), Fraction(0)) for cols in columns(dyn)]


def test_eval_f_matches_unfolding():
    # f(x) edge by edge equals the unfolding times x^[k-1]
    rng = random.Random(2)
    for _ in range(10):
        g = random_uniform_hypergraph(rng.randint(3, 5), rng.randint(2, 3), rng)
        dyn = DynamicsSpec(g)
        x = int_point(g.n, rng)
        f = chain_values(dyn, x, 1)[1]
        assert f == _residues(_apply_table(dyn, _kron([_frac(x)] * (g.k - 1))))


def test_apply_factors_mixed_matches_kron():
    # two level steps from two arbitrary levels X_0 = x and X_1 = y, on
    # value-only lanes: every product has k - 2 factors from level 0 and
    # one from level 1, so the second step gives (k-1)/2 * A (y x x ... x),
    # the factor placed in each of the k-1 slots alike because A is
    # symmetric in its slots
    rng = random.Random(6)
    for _ in range(8):
        for k in (2, 3, 4, 5):
            n = max(4, k)
            dyn = DynamicsSpec(random_uniform_hypergraph(n, k, rng))
            x, y = int_point(n, rng), int_point(n, rng)
            # full lanes [value | 0], as the kept limbs are sized for them
            chain = cast([[[v] + [0] * n for v in z] for z in (x, y, [0] * n)])
            stacks = ChainStacks.allocate(dyn, 2)
            first = apply_factors(dyn, chain, stacks, 0)[:, 0]
            table = _apply_table(dyn, _kron([_frac(x)] * (k - 1)))
            assert first.tolist() == _residues(table)
            second = apply_factors(dyn, chain, stacks, 1)[:, 0]
            table = _apply_table(dyn, _kron([_frac(y)] + [_frac(x)] * (k - 2)))
            assert second.tolist() == _residues(
                Fraction(k - 1, 2) * v for v in table
            )


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_evaluators_agree_rational(seed):
    # the two oracles agree exactly over the rationals, and the kernel's
    # residues are their values reduced mod P
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(k, 4)
    g = random_uniform_hypergraph(n, k, rng)
    dyn = DynamicsSpec(g)
    x = int_point(n, rng)
    depth = rng.randint(0, 3)
    chain = chain_values(dyn, x, depth)
    for p in range(depth + 1):
        exact = lie_derivative_recursive(dyn, p, _frac(x))
        ints, scale = lie_derivative_naive_scaled(dyn, p, x)
        assert [Fraction(v, scale) for v in ints] == exact
        assert _residues(exact) == chain[p]


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_evaluators_agree_mod_p(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    n = rng.randint(k, max(k, 4))
    g = random_uniform_hypergraph(n, k, rng)
    dyn = DynamicsSpec(g)
    # full-range residues, not just small integers
    x = [rng.randrange(PRIME) for _ in range(n)]
    # the operator product spans n**(p(k-2)+1) slots
    depth = rng.randint(1, 3 if k < 5 else 2)
    chain = chain_values(dyn, x, depth)
    p = depth
    rec = lie_derivative_recursive(dyn, p, x)
    ints, scale = lie_derivative_naive_scaled(dyn, p, x)
    inv_scale = pow(scale, -1, PRIME)
    assert _residues(rec) == chain[p]
    assert [v * inv_scale % PRIME for v in ints] == chain[p]


def test_jacobians_match_recursion_at_k5():
    # values and gradients against the factor-list recursion over Dual
    # numbers at full-range points, for k up to 5: the prefix and suffix
    # series (k >= 4) and the (k-1)^-1 value scale are on these paths.
    # Level 3 reads coefficient 2 of every series; the Dual recursion takes
    # seconds there at k = 5, so level 3 checks values
    rng = random.Random(44)
    for k, n in [(5, 5), (5, 6), (5, 7), (4, 6), (3, 5), (2, 4)]:
        dyn = DynamicsSpec(random_uniform_hypergraph(n, k, rng))
        x = [rng.randrange(PRIME) for _ in range(n)]
        chain = lie_derivatives(dyn, x, 3).tolist()
        seeded = [Dual.variable(v, j, n) for j, v in enumerate(x)]
        for p in range(3):
            rec = lie_derivative_recursive(dyn, p, seeded)
            assert chain[p] == [
                [residue(d.value)] + [residue(e) for e in d.eps] for d in rec
            ]
        if n < 7:
            rec = lie_derivative_recursive(dyn, 3, x)
            assert [row[0] for row in chain[3]] == _residues(rec)


def test_rational_field_homomorphism(triangle_dyn):
    # negative coordinates reach the kernel as residues and the oracle as
    # integers; level by level, the kernel is the oracle reduced mod P
    rng = random.Random(13)
    x = int_point(3, rng)
    chain = chain_values(triangle_dyn, [v % PRIME for v in x], 3)
    for p, modular in enumerate(chain):
        exact = lie_derivative_recursive(triangle_dyn, p, _frac(x))
        assert modular == _residues(exact)


def test_scaled_integer_lane_matches():
    rng = random.Random(21)
    for _ in range(12):
        k = rng.randint(2, 3)
        n = rng.randint(k, 4)
        g = random_uniform_hypergraph(n, k, rng)
        dyn = DynamicsSpec(g)
        x = int_point(n, rng)
        p = rng.randint(0, 3)
        ints, scale = lie_derivative_naive_scaled(dyn, p, x)
        exact = lie_derivative_recursive(dyn, p, _frac(x))
        assert [Fraction(v, scale) for v in ints] == exact


def test_scaled_lane_object_dtype():
    # coordinates big enough to overflow int64 force the exact dtype path
    g = gen_hyperchain(3, 3)
    dyn = DynamicsSpec(g)
    x = [10**12, -(10**12) + 7, 10**11]
    ints, scale = lie_derivative_naive_scaled(dyn, 2, x)
    exact = lie_derivative_recursive(dyn, 2, _frac(x))
    assert [Fraction(v, scale) for v in ints] == exact


def test_scaled_lane_validation(triangle_dyn):
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, [1.5, 2, 3])
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, -1, [1, 2, 3])
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, [1, 2])


def test_recursion_stats_frozen(triangle_dyn):
    stats = RecursionStats()
    lie_derivative_recursive(triangle_dyn, 3, _frac([1, 2, 3]), stats=stats)
    # p=3, k=3: window counts 3*2*1 with one contraction call each, plus the
    # branch calls themselves: 1 + 3 + 3*2 = 10
    assert stats.calls == 10
    # no intermediate product exceeds n**(k-1)
    assert stats.max_kron_len == 9


def test_recursion_budget(triangle_dyn):
    with pytest.raises(ResourceLimitError):
        lie_derivative_recursive(
            triangle_dyn, 4, _frac([1, 2, 3]), max_calls=5
        )


def test_naive_rejects_dual_domain(triangle_dyn):
    # the operator-product oracle evaluates integer points only
    x = [Dual.variable(Fraction(v), j, 3) for j, v in enumerate((1, 2, 3))]
    with pytest.raises(ValueError):
        lie_derivative_naive_scaled(triangle_dyn, 1, x)


def test_naive_resource_caps(triangle_dyn):
    with pytest.raises(ResourceLimitError):
        lie_derivative_naive_scaled(triangle_dyn, 8, [1, 2, 3], max_slots=100)


def test_dynamics_have_unit_weight():
    # the plain adjacency dynamics: no hyperedge weight can be set
    g = random_uniform_hypergraph(4, 3, random.Random(17))
    assert DynamicsSpec(g).weight == 1
    with pytest.raises(TypeError):
        DynamicsSpec(g, weight=2)


def _assert_euler(level, x, m):
    weighted_sum = [sum(a * b for a, b in zip(x, row[1:])) % PRIME for row in level]
    assert weighted_sum == [m * row[0] % PRIME for row in level]


def test_homogeneity_euler_identity(triangle_dyn):
    # J_p is homogeneous of degree p(k-2)+1: sum_j x_j dJ_p/dx_j = m J_p,
    # every gradient coming from one run over lanes of width n + 1
    x = [2, -3, 5]
    p = 2
    level = lie_derivatives(triangle_dyn, x, p)[p].tolist()
    assert [row[0] for row in level] == _residues(
        lie_derivative_recursive(triangle_dyn, p, _frac(x))
    )
    _assert_euler(level, x, p * (3 - 2) + 1)
    # at every level of rings 46/3 and 46/4 at depth 45, whose last level
    # products run over 46 * 45 = 2070 inner rows, more than one GEMM
    # chunk of 2**11; the point mixes in coordinates P - 1 and 2**42 - 1,
    # whose limbs are the largest the float32 limb store holds
    for k in (3, 4):
        x = [
            (v, PRIME - 1, 2**42 - 1)[j % 3]
            for j, v in enumerate(random_point(46, k))
        ]
        chain = lie_derivatives(DynamicsSpec(gen_hyperring(46, k)), x, 45)
        for p, level in enumerate(chain.tolist()):
            _assert_euler(level, x, p * (k - 2) + 1)


def test_chain_symmetry_conservation():
    # outer nodes of the 4-chain see the same single edge remainder {2,3}
    dyn = DynamicsSpec(gen_hyperchain(4, 3))
    rng = random.Random(30)
    x = int_point(4, rng)
    chain = chain_values(dyn, x, 3)
    for p in range(1, 4):
        assert chain[p][0] == chain[p][3]


def test_lie_derivatives_validation(triangle_dyn):
    with pytest.raises(ValueError):
        lie_derivatives(triangle_dyn, [1, 2, 3], -1)
    with pytest.raises(ValueError):
        lie_derivatives(triangle_dyn, [1, 2], 1)
    with pytest.raises(ValueError):
        lie_derivative_recursive(triangle_dyn, -1, _frac([1, 2, 3]))
    with pytest.raises(ValueError):
        lie_derivative_recursive(triangle_dyn, 1, _frac([1, 2]))
    # the length check comes before the order-0 shortcut
    for p in (0, 1):
        with pytest.raises(ValueError):
            lie_derivative_naive_scaled(triangle_dyn, p, [1, 2])


def test_non_integer_coordinates_rejected():
    # truncating 1.5 to 1 would evaluate the chain at a point nobody asked
    # for, so any coordinate that is not an integer is refused
    dyn = DynamicsSpec(gen_hyperring(5, 3))
    for bad in (1.5, 2.0, Fraction(1, 2), Fraction(2), "2", None):
        with pytest.raises(ValueError, match="integer"):
            lie_derivatives(dyn, [bad, 2, 3, 4, 5], 1)
    level0 = chain_values(dyn, [np.int64(-1), 2, 3, 4, 5], 0)[0]
    assert level0 == [PRIME - 1, 2, 3, 4, 5]


def test_scatter_of_many_full_range_terms():
    # every node of complete(8,3) sums 21 remainders, and 21 full-range
    # residues overflow 64 bits unless the scatter splits its sums
    dyn = DynamicsSpec(gen_complete(8, 3))
    assert min(dyn.graph.degrees().values()) == 21
    for t in range(3):
        z = random_point(dyn.n, 500 + t)
        chain = chain_values(dyn, z, 4)
        for p in range(5):
            ints, scale = lie_derivative_naive_scaled(dyn, p, z)
            inv_scale = pow(scale, -1, PRIME)
            assert chain[p] == [v * inv_scale % PRIME for v in ints]


def test_depth_guard_before_allocation(triangle_dyn):
    # at k = 3 a pass to depth d holds, in 8-byte slots: the chain,
    # (d + 1) n (n + 1); the value series of the n nodes, n d; the step
    # table, (n + 1) d; the chain's float32 limbs, 1.5 n (n + 1) d; the
    # limbs of the C = 6 Jacobian cells, 1.5 C d; and for a chunk of
    # g = min(2**11 // n, d) blocks, two float64 buffers of g n rows, 3 n
    # and 3 (n + 1) wide, and 3 C g cell positions; and a level product's
    # peak transients, 19 n (n + 1) when the d blocks take several chunks.
    # On the triangle past d = 682 that is 12 + 46 d + 81 * 682 + 228.
    # Past the cap a pass is refused before any lane exists, so a huge
    # depth fails at once, not in MemoryError; the second depth fits the
    # chain alone, and the last is the first one refused
    fits = (MAX_DENSE_SLOTS - 12 - 81 * 682 - 228) // 46
    for depth in (10**9, MAX_DENSE_SLOTS // 12 - 1, fits + 1):
        with pytest.raises(ResourceLimitError, match="lane slots"):
            lie_derivatives(triangle_dyn, [1, 2, 3], depth)
    check_lane_slots(triangle_dyn, fits)


def test_no_admitted_block_is_wider_than_a_gemm_chunk():
    # the level product takes whole blocks of n columns per chunk of 2**11
    # inner rows (``LimbProduct``), so no pass at k >= 3 may be admitted
    # past n = 2**11: the lane cap refuses stars of 2049 nodes at depth 1,
    # and with them every larger n or depth, from the shapes alone, before
    # a tenth of one chain level exists
    n = 2**11 + 1
    for k in (3, 4, 5):
        dyn = DynamicsSpec(gen_hyperstar(n, k))
        dyn.jacobian_cells, dyn.leave_one_out
        x = [1] * n
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="lane slots"):
                lie_derivatives(dyn, x, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (n + 1) * 8 // 10


def test_a_block_wider_than_a_gemm_chunk_is_refused_before_any_count(
    monkeypatch,
):
    # past n = 2**11 a depth-1 pass at k >= 3 would count fewer slots than
    # at n = 2**11 (no whole block fits a chunk), so it is refused by its
    # width, whatever the cap, before the cells or sets are worked out; a
    # pass to depth 0 holds no level product and is admitted
    monkeypatch.setattr("hyperobs.dynamics.MAX_DENSE_SLOTS", 10**12)
    for k in (3, 4):
        dyn = DynamicsSpec(gen_hyperstar(2**11 + 1, k))
        with pytest.raises(ResourceLimitError, match="lane slots"):
            check_lane_slots(dyn, 1)
        assert "jacobian_cells" not in vars(dyn)
        assert "leave_one_out" not in vars(dyn)
        check_lane_slots(dyn, 0)
    check_lane_slots(DynamicsSpec(gen_hyperstar(2**11, 3)), 1)
    # the rule is the level product's own, so a narrower chunk moves the
    # refusal with it
    monkeypatch.setattr("hyperobs.scalars._GEMM_CHUNK", 5)
    with pytest.raises(ResourceLimitError, match="lane slots"):
        check_lane_slots(DynamicsSpec(gen_hyperring(6, 3)), 1)
    check_lane_slots(DynamicsSpec(gen_hyperring(5, 3)), 1)


def test_the_step_table_scales_each_level():
    # row p is (p+1)^-1 in every lane, and column 0 also (k-1)^-1
    for k, depth in [(3, 6), (4, 1), (5, 3)]:
        dyn = DynamicsSpec(gen_hyperring(6, k))
        steps = ChainStacks.allocate(dyn, depth).steps
        assert steps.dtype == np.uint64 and steps.shape == (depth, 7)
        for p, row in enumerate(steps.tolist()):
            assert row[0] * (p + 1) * (k - 1) % PRIME == 1
            assert all(v * (p + 1) % PRIME == 1 for v in row[1:])


def test_slot_count_at_the_cap(monkeypatch):
    # the count is exact: a pass that needs the cap runs, one slot less is
    # refused. k = 2 keeps only the chain, and a level adds its 10 gathered
    # remainder rows, its 5 output rows and max(10 + 2 * 5, 5 * 5) rows of
    # sums or product temporaries, 6 wide; on ring 6/k at depth 5, k = 3
    # adds the value series of the 6 nodes, the 5 x 7 step table, the
    # resident product's two float64 operands of 5 blocks (30 rows), the
    # positions of 24 cells in one block and its peak transients (the
    # 18 x 21 limb products and the fold's scratch array of their shape),
    # and k = 4 adds the series of all 15 node pairs, and has 30 cells
    def stacks(series, cells):
        return (
            5 * series + 5 * 7 + 30 * (3 * 6 + 3 * 7) + cells * 3
            + 2 * 18 * 21
        )

    for g, depth, slots in [
        (gen_hyperring(5, 2), 4, 5 * 5 * 6 + (10 + 5 + 25) * 6),
        (gen_hyperring(6, 3), 5, 6 * 6 * 7 + stacks(6, 24)),
        (gen_hyperring(6, 4), 5, 6 * 6 * 7 + stacks(6 + 15, 30)),
    ]:
        dyn = DynamicsSpec(g)
        x = list(range(1, g.n + 1))
        monkeypatch.setattr("hyperobs.dynamics.MAX_DENSE_SLOTS", slots)
        assert lie_derivatives(dyn, x, depth).shape == (depth + 1, g.n, g.n + 1)
        monkeypatch.setattr("hyperobs.dynamics.MAX_DENSE_SLOTS", slots - 1)
        with pytest.raises(ResourceLimitError, match=f"needs {slots} lane"):
            lie_derivatives(dyn, x, depth)
    # at k = 3 and depth n - 1 a pass needs about 2.5 n^3 slots, chain
    # and its float32 limbs, plus O(n^2): ring 333/3 fits under the cap of 10**8 and ring 334/3 does not, both
    # read from the refusal, so nothing is allocated; ring 300/3 passes the
    # check
    for n, slots in [(333, 99445454), (334, 100322410)]:
        monkeypatch.setattr("hyperobs.dynamics.MAX_DENSE_SLOTS", slots - 1)
        with pytest.raises(ResourceLimitError, match=f"needs {slots} lane"):
            lie_derivatives(DynamicsSpec(gen_hyperring(n, 3)), [1] * n, n - 1)
    monkeypatch.undo()
    assert 99445454 <= MAX_DENSE_SLOTS < 100322410
    check_lane_slots(DynamicsSpec(gen_hyperring(300, 3)), 299)


def _counted_and_traced(monkeypatch, g, depth):
    """The bytes ``check_lane_slots`` counts for a pass on g, read from its
    refusal, and the tracemalloc peak of the pass, index arrays built
    first."""
    dyn = DynamicsSpec(g)
    dyn.incidence, dyn.incidence_starts
    if g.k > 2:
        dyn.jacobian_cells, dyn.leave_one_out
    monkeypatch.setattr(
        "hyperobs.dynamics.MAX_DENSE_SLOTS", (depth + 1) * g.n * (g.n + 1)
    )
    with pytest.raises(ResourceLimitError) as refusal:
        check_lane_slots(dyn, depth)
    slots = int(str(refusal.value).split("needs ")[1].split()[0])
    monkeypatch.undo()
    tracemalloc.start()
    try:
        lie_derivatives(dyn, list(range(1, g.n + 1)), depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return 8 * slots, peak


@pytest.mark.parametrize(
    "n, k, depth",
    [
        (200, 3, 2),
        (120, 4, 2),
        (100, 3, 5),
        (100, 3, 40),
        (45, 3, 44),
        (1000, 2, 2),
        (1000, 2, 10),
    ],
)
def test_slot_count_bounds_the_traced_peak(monkeypatch, n, k, depth):
    # the count covers what a pass really holds: at small depth and large
    # n most of it is the level step's transients, the fold's for a
    # one-chunk product, a chunk's beside the accumulator for several
    # (ring 100/3 at depth 40), and at k = 2 the gathered rows and the
    # product temporaries of the output; ring 45/3 at depth 44, 1980 inner
    # rows, is a resident product near the one-chunk cap, whose two float64
    # operands hold most of it
    counted, peak = _counted_and_traced(monkeypatch, gen_hyperring(n, k), depth)
    # within 2% here; numpy versions that reuse temporaries peak lower
    assert 0.75 * peak <= counted <= 1.25 * peak


def test_k2_slot_count_bounds_the_traced_peak_on_dense_graphs(monkeypatch):
    # on complete 150/2 the 22,350 gathered remainder rows and their
    # half-word copy, not the chain, set the peak
    counted, peak = _counted_and_traced(monkeypatch, gen_complete(150, 2), 2)
    assert 0.75 * peak <= counted <= 1.25 * peak
    chain = 8 * 3 * 150 * 151
    assert counted > 50 * chain


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=7),
    k=st.integers(min_value=2, max_value=5),
    depth=st.integers(min_value=0, max_value=6),
    at=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_a_stopped_chain_is_a_prefix_of_the_full_one(seed, n, k, depth, at):
    # the stop test sees levels 0..p as the recurrence left them, before
    # the p! scaling; a pass it ends at level p returns exactly levels 0..p
    # of the full pass, and a stop test that never fires changes nothing
    rng = random.Random(seed)
    dyn = DynamicsSpec(
        random_uniform_hypergraph(max(n, k), k, rng, density=rng.random())
    )
    x = random_point(dyn.n, seed)
    full = lie_derivatives(dyn, x, depth)
    asked = []

    def stop(chain, p):
        asked.append(p)
        # level p of the running pass is level p of the result over p!
        fact = np.array([factorial(p) % PRIME], dtype=np.uint64)
        assert (mul(chain[p], fact) == full[p]).all()
        return p == at

    stopped = lie_derivatives(dyn, x, depth, stop)
    top = min(at, depth)
    assert asked == list(range(min(at + 1, depth)))
    assert stopped.shape == (top + 1, dyn.n, dyn.n + 1)
    assert (stopped == full[: top + 1]).all()
