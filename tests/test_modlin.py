import itertools
import math
import random

import numpy as np
import pytest

from groupoidlab import modlin
from groupoidlab.modlin import _diagonalize, _transform_row, _unit_pivots, solve_mod


def brute_force_solvable(a, b, n):
    a = np.asarray(a) % n
    b = np.asarray(b) % n
    k = a.shape[1]
    for x in itertools.product(range(n), repeat=k):
        if np.all((a @ np.array(x)) % n == b):
            return True
    return False


def test_simple_unit_pivot():
    res = solve_mod([[1, 0], [0, 1]], [3, 4], 5)
    assert res.solution == (3, 4)


def test_composite_modulus_non_unit_pivot():
    # 2x = 4 (mod 6) is solvable although 2 is not invertible
    res = solve_mod([[2]], [4], 6)
    assert res.solvable
    assert (2 * res.solution[0]) % 6 == 4


def test_composite_modulus_unsolvable_with_certificate():
    # 2x = 3 (mod 6) has no solution; certificate u=3: 3*2=0, 3*3=3 mod 6
    res = solve_mod([[2]], [3], 6)
    assert not res.solvable
    assert res.certificate is not None


def test_trivial_modulus():
    assert solve_mod([[5, 7]], [9], 1).solvable


def test_rectangular_underdetermined():
    res = solve_mod([[1, 2, 3]], [1], 4)
    assert res.solvable
    x = np.array(res.solution)
    assert (np.array([1, 2, 3]) @ x) % 4 == 1


def test_inconsistent_overdetermined():
    res = solve_mod([[1], [1]], [0, 1], 5)
    assert not res.solvable
    u = np.array(res.certificate)
    assert np.all((u @ np.array([[1], [1]])) % 5 == 0)
    assert (u @ np.array([0, 1])) % 5 != 0


def test_against_brute_force_random_systems():
    rng = random.Random(5)
    for _ in range(250):
        n = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
        m = rng.randint(1, 4)
        k = rng.randint(1, 3)
        a = [[rng.randrange(n) for _ in range(k)] for _ in range(m)]
        b = [rng.randrange(n) for _ in range(m)]
        res = solve_mod(a, b, n)
        assert res.solvable == brute_force_solvable(a, b, n)
        if res.solvable:
            assert np.all((np.array(a) @ np.array(res.solution)) % n == np.array(b) % n)
        else:
            u = np.array(res.certificate)
            assert np.all((u @ np.array(a)) % n == 0)
            assert int(u @ np.array(b)) % n != 0


def brute_force_solutions(a, n):
    """Every A x mod n, one column per x in (Z/n)^k."""
    k = a.shape[1]
    xs = np.array(list(itertools.product(range(n), repeat=k)), dtype=np.int64).T
    return (a @ xs) % n


def test_tall_systems_against_brute_force():
    # tall random systems: mostly unsolvable, and the certificate row has
    # often been swapped during elimination, so the backward replay of the
    # row log is exercised on swaps as well as on remainder steps
    rng = random.Random(11)
    swapped_certificates = unsolvable = 0
    for _ in range(120):
        k = rng.randint(1, 6)
        n = rng.choice([n for n in (4, 6, 8, 9, 10, 12) if n**k <= 6**6])
        m = rng.randint(k, 40)
        a = np.array([[rng.randrange(n) for _ in range(k)] for _ in range(m)])
        if rng.random() < 0.4:  # solvable by construction
            b = (a @ np.array([rng.randrange(n) for _ in range(k)])) % n
        else:
            b = np.array([rng.randrange(n) for _ in range(m)])
        res = solve_mod(a, b, n)
        reachable = (brute_force_solutions(a, n) == b[:, None]).all(axis=0).any()
        assert res.solvable == reachable
        if res.solvable:
            assert np.all((a @ np.array(res.solution)) % n == b)
            continue
        u = np.array(res.certificate)
        assert np.all((u @ a) % n == 0) and (u @ b) % n != 0
        unsolvable += 1
        d, c = a.copy(), b.copy()
        _, log = _diagonalize(d, c, n)
        swapped = {i for op in log if len(op) == 2 for i in op}
        bad = np.flatnonzero(c % np.gcd(np.r_[d.diagonal(), np.zeros(m - k, dtype=np.int64)], n))
        swapped_certificates += int(bad[0]) in swapped
    assert unsolvable > 20 and swapped_certificates > 5


def test_row_log_replays_the_row_transform():
    # the rows rebuilt from the log form U with U A V = D and U b = c
    rng = random.Random(12)
    for _ in range(30):
        n = rng.choice([6, 12, 30, 36])
        m, k = rng.randint(1, 40), rng.randint(1, 6)
        a = np.array([[rng.randrange(n) for _ in range(k)] for _ in range(m)])
        b = np.array([rng.randrange(n) for _ in range(m)])
        d, c = a.copy(), b.copy()
        v, log = _diagonalize(d, c, n)
        u = np.array([_transform_row(i, m, log, n, np.int64) for i in range(m)])
        assert np.array_equal((u @ a % n) @ v % n, d)
        assert np.array_equal(u @ b % n, c)
        assert not d[~np.eye(m, k, dtype=bool)].any()


def test_big_moduli_use_exact_arithmetic():
    # near the int64 bound (2**30 + 3, 2**31 - 1) the dtype depends on
    # the shape; past it every product is a Python int
    rng = random.Random(13)
    for n in (2**30 + 3, 2**31 - 1, 2**40 + 15, 2**63 - 25, 2**100 + 277):
        for _ in range(10):
            m, k = rng.randint(1, 8), rng.randint(1, 5)
            a = [[rng.randrange(n) for _ in range(k)] for _ in range(m)]
            x = [rng.randrange(n) for _ in range(k)]
            b = [sum(r * v for r, v in zip(row, x)) % n for row in a]
            res = solve_mod(a, b, n)
            assert res.solvable
            assert all(
                sum(r * v for r, v in zip(row, res.solution)) % n == rhs for row, rhs in zip(a, b)
            )
        # 2 (x + y) = 1 has no solution modulo an even number
        even = 2 * n
        res = solve_mod([[2, 2], [4, 4]], [1, 2], even)
        assert not res.solvable
        u = res.certificate
        assert (2 * u[0] + 4 * u[1]) % even == 0 and (u[0] + 2 * u[1]) % even != 0


def test_modulus_must_be_positive():
    for n in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            solve_mod([[1]], [1], n)


def test_mixed_big_and_small_values_are_read_exactly():
    # numpy reads [2**63 + 1, 5] as float64, which rounds 2**63 + 1 to 2**63
    assert modlin._residues([2**63 + 1, 5], 7, np.int64).tolist() == [2, 5]
    assert modlin._residues(np.array([2**63 + 1, 5], dtype=np.uint64), 7, np.int64).tolist() == [2, 5]
    n = 2**63 + 25
    a, b = [[1, 0], [0, 1], [1, 1]], [2**63 + 3, 5, 2**63 + 8]
    res = solve_mod(a, b, n)
    assert res.solution == (2**63 + 3, 5)
    check_result(res, a, b, n)
    # the same read for the matrix: (2**63 + 1) x = 2**63 + 1 has x = 1
    a, b = [[2**63 + 1, 0], [0, 1]], [2**63 + 1, 5]
    res = solve_mod(a, b, n)
    assert res.solution == (1, 5)
    check_result(res, a, b, n)


def check_result(res, a, b, n):
    """Re-check a result in Python ints: A x = b, or u A = 0 and u b != 0."""
    a = [[int(v) for v in row] for row in np.asarray(a, dtype=object)]
    b = [int(v) for v in np.asarray(b, dtype=object)]
    if res.solvable:
        assert all(sum(r * x for r, x in zip(row, res.solution)) % n == rhs % n for row, rhs in zip(a, b))
    else:
        u = res.certificate
        assert all(sum(u[i] * a[i][j] for i in range(len(a))) % n == 0 for j in range(len(a[0])))
        assert sum(ui * bi for ui, bi in zip(u, b)) % n != 0


def reachable(a, b, n):
    return (brute_force_solutions(np.asarray(a), n) == np.asarray(b)[:, None] % n).all(axis=0).any()


def phases(a, b, n):
    """The pivots of the unit phase and the rows it leaves."""
    a = np.asarray(a, dtype=np.int64) % n
    _, pivot, _ = _unit_pivots(a, [int(v) % n for v in b], n, np.int64)
    return pivot, [i for i in range(a.shape[0]) if i not in pivot]


def random_system(rng, n, m, k, entries, solvable):
    a = np.array([[rng.choice(entries) for _ in range(k)] for _ in range(m)])
    if solvable:
        return a, (a @ np.array([rng.randrange(n) for _ in range(k)])) % n
    return a, np.array([rng.randrange(n) for _ in range(m)])


def test_systems_without_unit_entries_go_to_the_diagonal_phase():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.choice([4, 6, 8, 9, 12])
        non_units = [v for v in range(n) if math.gcd(v, n) > 1]
        m, k = rng.randint(1, 6), rng.randint(1, 3)
        a, b = random_system(rng, n, m, k, non_units, rng.random() < 0.5)
        assert phases(a, b, n)[0] == {}
        res = solve_mod(a, b, n)
        assert res.solvable == reachable(a, b, n)
        check_result(res, a, b, n)


def test_mixed_unit_and_non_unit_systems_against_brute_force():
    # tall (m > k) and wide (k > m) systems whose unit phase pivots on
    # some rows and leaves others, with a non-unit entry, to phase 2
    rng = random.Random(22)
    mixed = 0
    for _ in range(300):
        n = rng.choice([4, 6, 8, 9, 12])
        m, k = rng.choice([(rng.randint(3, 8), rng.randint(1, 3)), (rng.randint(1, 3), 4 + (n <= 6))])
        a, b = random_system(rng, n, m, k, range(n), rng.random() < 0.4)
        pivot, rest = phases(a, b, n)
        res = solve_mod(a, b, n)
        assert res.solvable == reachable(a, b, n)
        check_result(res, a, b, n)
        mixed += bool(pivot) and bool(rest)
    assert mixed > 50


def test_zero_rows_with_nonzero_right_hand_side():
    for n in (5, 12):
        a, b = [[1, 2], [0, 0], [3, 1]], [1, 4, 2]
        res = solve_mod(a, b, n)
        assert not res.solvable
        check_result(res, a, b, n)
    res = solve_mod([[1, 2], [0, 0]], [1, 0], 12)
    assert res.solvable


def test_big_moduli_in_both_phases():
    rng = random.Random(23)
    for n in (2**40 + 15, 2**100 + 277):
        for _ in range(10):
            m, k = rng.randint(2, 8), rng.randint(1, 6)
            a = [[rng.randrange(n) for _ in range(k)] for _ in range(m)]
            # a dependent row whose right-hand side is off by one
            a.append([(x + y) % n for x, y in zip(a[0], a[1])])
            x = [rng.randrange(n) for _ in range(k)]
            b = [sum(r * v for r, v in zip(row, x)) % n for row in a]
            for rhs in (b, b[:-1] + [(b[-1] + 1) % n]):
                res = solve_mod(a, rhs, n)
                assert res.solvable == (rhs is b)
                check_result(res, a, rhs, n)
        # entries sharing a factor with 2n are not units: phase 2 runs on them
        res = solve_mod([[2, 2, 1], [4, 4, 0], [0, 0, 0]], [1, 2, 5], 2 * n)
        check_result(res, [[2, 2, 1], [4, 4, 0], [0, 0, 0]], [1, 2, 5], 2 * n)
        assert not res.solvable


def test_certificate_row_touched_by_both_phases(monkeypatch):
    # the certificate row is cleared in the unit phase and then moved by
    # _diagonalize; its row of U is replayed across both logs
    calls = {}

    def diagonalize(d, c, n):
        v, log = _diagonalize(d, c, n)
        calls["block"] = len(log)
        return v, log

    def transform_row(i, m, log, n, dtype):
        calls["row"], calls["log"] = i, list(log)
        return _transform_row(i, m, log, n, dtype)

    monkeypatch.setattr(modlin, "_diagonalize", diagonalize)
    monkeypatch.setattr(modlin, "_transform_row", transform_row)
    rng = random.Random(24)
    both = 0
    for _ in range(400):
        calls.clear()
        n = rng.choice([4, 8, 9, 12])
        a, b = random_system(rng, n, rng.randint(3, 7), rng.randint(2, 4), range(n), False)
        res = solve_mod(a, b, n)
        assert res.solvable == reachable(a, b, n)
        check_result(res, a, b, n)
        if res.solvable:
            continue
        i, log = calls["row"], calls["log"]
        unit_log, block_log = log[: len(log) - calls["block"]], log[len(log) - calls["block"]:]
        # row i changes in a swap it is part of and in a step that targets it
        changed = [any(i in (op if len(op) == 2 else op[1].tolist()) for op in part) for part in (unit_log, block_log)]
        both += all(changed)
    assert both > 10
