"""Field arithmetic on uint64 lanes and float limbs, the oracles' exact
scalars, and the seeded evaluation points."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hyperobs
from hyperobs import scalars
from hyperobs.dynamics import ChainStacks, DynamicsSpec, lie_derivatives
from hyperobs.hypergraph import gen_complete
from hyperobs.scalars import PRIME, derive_seed, random_point

from conftest import random_uniform_hypergraph
from oracles import Dual, lie_derivative_recursive, residue

residues = st.integers(min_value=0, max_value=PRIME - 1)


def _lanes(*values):
    return scalars.cast(list(values))


def _add(a, b):
    # the sum of two lanes as the kernel takes sums, along an axis
    return scalars.row_sum(np.stack([a, b]))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # independent route to the inverse for cross-checking pow(a, -1, P)
    if b == 0:
        return a, 1, 0
    g, s, t = _egcd(b, a % b)
    return g, t, s - (a // b) * t


def test_prime_constant():
    assert PRIME == 2**61 - 1
    # 2**61 - 1 is a Mersenne prime; spot check a couple of non-divisors
    for q in (3, 5, 7, 11, 13, 31, 61):
        assert PRIME % q != 0


def test_inverse_of_two():
    inv = residue(Fraction(1, 2))
    assert inv == (PRIME + 1) // 2
    g, s, _ = _egcd(2, PRIME)
    assert g == 1
    assert inv == s % PRIME
    assert scalars.mul(_lanes(2), _lanes(inv)).tolist() == [1]


def test_field_inverse_matches_extended_euclid():
    rng = random.Random(7)
    a = [rng.randrange(1, PRIME) for _ in range(50)]
    inverses = []
    for v in a:
        g, s, _ = _egcd(v, PRIME)
        assert g == 1
        assert residue(Fraction(1, v)) == s % PRIME
        inverses.append(s % PRIME)
    assert scalars.mul(_lanes(*a), _lanes(*inverses)).tolist() == [1] * 50


def test_inverse_of_zero_rejected():
    # a rational whose denominator P divides has no image in the field
    with pytest.raises(ZeroDivisionError):
        residue(Fraction(1, PRIME))
    with pytest.raises(ZeroDivisionError):
        residue(Fraction(3, 2 * PRIME))


def test_field_axioms_random_triples():
    rng = random.Random(13)
    a, b, c = (
        _lanes(*(rng.randrange(PRIME) for _ in range(1000))) for _ in range(3)
    )
    add, mul = _add, scalars.mul
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    assert (add(a, b) == add(b, a)).all()
    assert (mul(a, b) == mul(b, a)).all()


@given(residues)
def test_field_units(x):
    a, zero, one = _lanes(x), _lanes(0), _lanes(1)
    assert _add(a, zero).tolist() == [x]
    assert scalars.mul(a, one).tolist() == [x]
    assert scalars.mul(a, zero).tolist() == [0]
    if x != 0:
        assert scalars.mul(a, _lanes(pow(x, -1, PRIME))).tolist() == [1]


def test_int_coercion_reduces():
    assert _add(_lanes(1), _lanes(PRIME)).tolist() == [1]
    assert scalars.mul(_lanes(2), _lanes(PRIME + 3)).tolist() == [6]
    assert _lanes(-1).tolist() == [PRIME - 1]
    assert _lanes(PRIME + 4).tolist() == [4]
    assert scalars.mul(_lanes(5), _lanes(-1)).tolist() == [PRIME - 5]


def test_factorial_inverse_values():
    # 1/(k-1)!, the coefficient of the adjacency unfolding, as a residue and
    # on the lanes
    for k in range(1, 8):
        f = factorial(k - 1)
        inv = residue(Fraction(1, f))
        assert inv * f % PRIME == 1
        assert scalars.mul(_lanes(f), _lanes(inv)).tolist() == [1]


def test_rational_field_homomorphism():
    # Fraction a/b maps to a * b^-1; ring operations must commute with it
    rng = random.Random(23)
    for _ in range(200):
        a = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        b = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        assert residue(a + b) == (residue(a) + residue(b)) % PRIME
        assert residue(a * b) == (residue(a) * residue(b)) % PRIME
        assert residue(a - b) == (residue(a) - residue(b)) % PRIME


def _poly_eval(coeffs, x):
    # coeffs[i] multiplies x**i
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.integers(-9, 9),
)
def test_dual_differentiates_polynomials(coeffs, x0):
    val = _poly_eval(coeffs, Dual.variable(Fraction(x0), 0, 1))
    assert val.value == _poly_eval(coeffs, Fraction(x0))
    assert val.eps == (_poly_eval(_poly_derivative(coeffs), Fraction(x0)),)


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    st.integers(-9, 9),
)
def test_dual_product_rule(p, q, x0):
    # p(x) q(y) at (x0, x0): the gradient is (p' q, p q')
    x = Dual.variable(Fraction(x0), 0, 2)
    y = Dual.variable(Fraction(x0), 1, 2)
    prod = _poly_eval(p, x) * _poly_eval(q, y)
    x0 = Fraction(x0)
    pv, dv = _poly_eval(p, x0), _poly_eval(_poly_derivative(p), x0)
    qv, dq = _poly_eval(q, x0), _poly_eval(_poly_derivative(q), x0)
    assert prod.value == pv * qv
    assert prod.eps == (dv * qv, pv * dq)


def test_dual_over_field_elements():
    x, y = Dual.variable(3, 0, 2), Dual.variable(5, 1, 2)
    # x**2 y at (3, 5): value 45, gradient (2 x y, x**2) = (30, 9)
    xxy = x * x * y
    assert (xxy.value, xxy.eps) == (45, (30, 9))
    # over full-range residues, the exact dual product and sum reduced mod
    # P equal the product rule and the sum on [value | eps] field lanes
    rng = random.Random(5)
    a = [Dual(rng.randrange(PRIME), [rng.randrange(PRIME) for _ in range(2)]) for _ in range(100)]
    b = [Dual(rng.randrange(PRIME), [rng.randrange(PRIME) for _ in range(2)]) for _ in range(100)]
    la = _lanes(*([u.value, *u.eps] for u in a))
    lb = _lanes(*([v.value, *v.eps] for v in b))
    prod = scalars.mul(la[:, :1], lb)
    prod[:, 1:] = _add(prod[:, 1:], scalars.mul(la[:, 1:], lb[:, :1]))
    assert prod.tolist() == [
        [w.value % PRIME, *(e % PRIME for e in w.eps)]
        for w in (u * v for u, v in zip(a, b))
    ]
    assert _add(la, lb).tolist() == [
        [w.value % PRIME, *(e % PRIME for e in w.eps)]
        for w in (u + v for u, v in zip(a, b))
    ]


def test_random_field_vector_deterministic():
    a = random_point(8, 42)
    assert a == random_point(8, 42)
    assert a != random_point(8, 43)
    # nonzero residues only, so no monomial vanishes for a trivial reason
    assert all(1 <= v < PRIME for v in a)
    assert random_point(0, 1) == []


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(0, "x") == derive_seed(0, "x")
    assert derive_seed(0, "x") != derive_seed(0, "y")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    # frozen value guards against accidental algorithm drift
    assert derive_seed(0, "rank-point-0") == 15152959838619848816


_EDGE_RESIDUES = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, PRIME - 2, PRIME - 1]


def test_field_lanes_match_int_arithmetic():
    rng = random.Random(41)
    pairs = [(a, b) for a in _EDGE_RESIDUES for b in _EDGE_RESIDUES]
    pairs += [(rng.randrange(PRIME), rng.randrange(PRIME)) for _ in range(10**4)]
    a = np.array([u for u, _ in pairs], dtype=np.uint64)
    b = np.array([v for _, v in pairs], dtype=np.uint64)
    assert scalars.mul(a, b).tolist() == [u * v % PRIME for u, v in pairs]
    assert _add(a, b).tolist() == [(u + v) % PRIME for u, v in pairs]
    assert scalars.mul(a, _lanes(PRIME - 1)).tolist() == [(-u) % PRIME for u, _ in pairs]
    # the folded sums, along an axis and over row segments, of 10**4 terms
    column = a.reshape(-1, 1)
    assert scalars.row_sum(column).tolist() == [sum(u for u, _ in pairs) % PRIME]
    starts = np.array([0, 3, 64, 65, 5000])
    ends = starts.tolist()[1:] + [len(pairs)]
    assert scalars.segment_sums(column, starts)[:, 0].tolist() == [
        sum(u for u, _ in pairs[lo:hi]) % PRIME
        for lo, hi in zip(starts.tolist(), ends)
    ]


def _int_matmul(a, b):
    return [[sum(u * v for u, v in zip(row, col)) % PRIME for col in zip(*b)] for row in a]


def _limb_series(a, w):
    # the kernel's series product of the levels a (levels, m, width),
    # nonzero only in the cells nonzero at some level, by levels of w
    # columns, and the values of those cells at every level
    levels, m, width = a.shape
    columns, rows = np.nonzero((a != 0).any(axis=0).T)
    return (
        scalars.LimbProduct(m, width, w, levels, rows, columns),
        a[:, rows, columns],
    )


def test_limb_matmul_matches_int_products():
    # coefficient p of the series product, with levels 0..p pushed, is
    # sum over q <= p of A_q B_{p-q}: full-range residues, all-(P-1)
    # operands, and 2**42 - 1, whose two low limbs are both 2**21 - 1, the
    # largest limb product; one level of 2048 columns fills the GEMM chunk
    # of 2**11, and so do 32 levels of 64 columns, a resident product,
    # while 33 such levels take two chunks, staged; 45 levels of 46
    # columns, 2070 inner rows at p = 44, go 44 levels to a chunk, where an
    # unchunked float64 sum of such products would pass 2**53; 5 levels of
    # 1024 columns go two to a chunk, so coefficient 4 adds three chunks'
    # residues. The last two cases stop early, as a chain pass does,
    # pushing fewer levels than the product holds, one of them resident
    # and one staged. Half the entries
    # zeroed at random leave cells out of every level, so a chunk's stale
    # cells would show
    rng = random.Random(53)
    for m, levels, width, w, pushed in [
        (1, 1, 1, 1, 1), (3, 1, 5, 4, 1), (2, 1, 2048, 3, 1),
        (2, 32, 64, 2, 32), (2, 33, 64, 2, 33), (2, 45, 46, 3, 45),
        (1, 5, 1024, 2, 5), (2, 40, 50, 2, 7), (2, 45, 46, 3, 44),
    ]:
        def draw(rows, columns, value):
            return [
                [[value() for _ in range(columns)] for _ in range(rows)]
                for _ in range(levels)
            ]

        full = (
            draw(m, width, lambda: rng.randrange(PRIME)),
            draw(width, w, lambda: rng.randrange(PRIME)),
        )
        sparse = (
            [[[v * rng.randrange(2) for v in row] for row in a] for a in full[0]],
            full[1],
        )
        for a, b in [
            full,
            sparse,
            (draw(m, width, lambda: PRIME - 1), draw(width, w, lambda: PRIME - 1)),
            (draw(m, width, lambda: 2**42 - 1), draw(width, w, lambda: 2**42 - 1)),
        ]:
            product, cells = _limb_series(np.array(a, dtype=np.uint64), w)
            assert product.resident == (levels * width <= 2**11)
            for p in range(pushed):
                got = product.push(p, cells[p], np.array(b[p], dtype=np.uint64))
                assert got.dtype == np.uint64
                # [A_p ... A_0] @ [B_0; ...; B_p]
                left = [
                    [v for q in range(p, -1, -1) for v in a[q][r]]
                    for r in range(m)
                ]
                right = [row for q in range(p + 1) for row in b[q]]
                assert got.tolist() == _int_matmul(left, right)


@pytest.mark.parametrize("k, n, depth", [(3, 6, 5), (4, 5, 4), (5, 6, 3)])
def test_chains_agree_on_both_sides_of_one_chunk(monkeypatch, k, n, depth):
    # with the chunk cut to the n * depth inner rows of the last level the
    # pass is resident, one row less and it is staged in two chunks; both
    # chains match the factor-list recursion at a full-range point: over
    # Dual numbers, values and gradients, below the last level, whose GEMM
    # is the one the cut splits, and its values at that level
    rng = random.Random(n * k)
    dyn = DynamicsSpec(random_uniform_hypergraph(n, k, rng, density=0.7))
    x = [rng.randrange(PRIME) for _ in range(n)]
    seeded = [Dual.variable(v, j, n) for j, v in enumerate(x)]
    want = [
        [[residue(d.value)] + [residue(e) for e in d.eps] for d in level]
        for level in (
            lie_derivative_recursive(dyn, p, seeded) for p in range(depth)
        )
    ]
    last = [residue(v) for v in lie_derivative_recursive(dyn, depth, x)]
    chains = []
    for chunk in (n * depth, n * depth - 1):
        monkeypatch.setattr(scalars, "_GEMM_CHUNK", chunk)
        stacks = ChainStacks.allocate(dyn, depth)
        assert stacks.product.resident == (chunk == n * depth)
        chain = lie_derivatives(dyn, x, depth).tolist()
        assert chain[:depth] == want
        assert [row[0] for row in chain[depth]] == last
        chains.append(chain)
    assert chains[0] == chains[1]


@given(
    arrays(
        np.uint64,
        st.tuples(st.integers(1, 3), st.just(3), st.just(3), st.integers(1, 4)),
        elements=st.integers(min_value=0, max_value=2**53 - 1),
    ),
    st.booleans(),
)
def test_fold_matches_int_sums(limbs, all_max):
    # a chunk's limb products are below 2**53; the fold reduces each at its
    # weight 2**(21 (i + j)) and their sum once. Nine at the maximum give
    # the largest sum it sees
    if all_max:
        limbs[0, :, :, 0] = 2**53 - 1
    m, _, _, w = limbs.shape
    want = [
        [
            sum(
                int(limbs[r, i, j, c]) << (21 * (i + j))
                for i in range(3)
                for j in range(3)
            )
            % PRIME
            for c in range(w)
        ]
        for r in range(m)
    ]
    got = scalars._fold(limbs)
    assert got.dtype == np.uint64
    assert got.tolist() == want


@pytest.mark.parametrize("k, n, depth", [(3, 6, 5), (4, 5, 4), (5, 6, 4)])
def test_a_chain_staged_in_many_chunks_matches_the_oracle(monkeypatch, k, n, depth):
    # with the chunk cut to one block of n rows, the last level product of
    # a pass to depth sums depth chunks (four or five); the chain equals
    # the resident one and, in values, the factor-list recursion at a
    # full-range point. A staged pass its stop test ends at level 2 is
    # levels 0..2 of the full one
    rng = random.Random(7 * n + k)
    dyn = DynamicsSpec(random_uniform_hypergraph(n, k, rng, density=0.7))
    x = [rng.randrange(PRIME) for _ in range(n)]
    resident = lie_derivatives(dyn, x, depth)
    monkeypatch.setattr(scalars, "_GEMM_CHUNK", n)
    assert ChainStacks.allocate(dyn, depth).product.group == 1
    staged = lie_derivatives(dyn, x, depth)
    assert (staged == resident).all()
    want = [
        [residue(v) for v in lie_derivative_recursive(dyn, p, x)]
        for p in range(depth + 1)
    ]
    assert staged[:, :, 0].tolist() == want
    stopped = lie_derivatives(dyn, x, depth, lambda chain, p: p == 2)
    assert (stopped == resident[:3]).all()


def test_limb_product_refuses_a_block_wider_than_a_chunk():
    # a chunk holds whole blocks, so a block past 2**11 columns would sum
    # more limb products than float64 holds exactly
    cell = np.zeros(1, dtype=np.intp)
    with pytest.raises(ValueError, match="2049 columns"):
        scalars.LimbProduct(1, 2**11 + 1, 1, 1, cell, cell)


def test_field_lanes_stay_uint64():
    # numpy 1.x promotes uint64 with a signed Python int to float64, which
    # would silently round residues
    a = scalars.cast([[PRIME - 1, 5], [2**32 + 1, 0]])
    product, cells = _limb_series(a[None], 2)
    results = [
        a,
        scalars.mul(a, a),
        scalars.mul(a[:, :1], a),
        scalars.mul(a, np.full(2, 3, dtype=np.uint64)),
        _add(a, a),
        scalars.row_sum(a),
        scalars.segment_sums(a, np.array([0, 1])),
        product.push(0, cells[0], a),
        lie_derivatives(DynamicsSpec(gen_complete(4, 3)), a.ravel().tolist(), 3),
    ]
    assert all(r.dtype == np.uint64 for r in results)
    assert scalars.mul(a, a).tolist() == [
        [(PRIME - 1) ** 2 % PRIME, 25], [(2**32 + 1) ** 2 % PRIME, 0]
    ]


def test_field_lanes_reduce_before_the_cast():
    values = [-1, -PRIME, PRIME, PRIME + 5, 2**64 + 3, -(2**70) - 1]
    assert scalars.cast(values).tolist() == [v % PRIME for v in values]


def test_package_imports_no_rational_arithmetic():
    # production arithmetic is mod P only: exact rationals and decimals
    # belong to the test oracles
    package_root = str(Path(hyperobs.__file__).resolve().parent.parent)
    code = (
        "import sys, hyperobs, hyperobs.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.stdout.strip() == "[]"
