import itertools
import random

import numpy as np

from groupoidlab.modlin import _diagonalize, _transform_row, solve_mod


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
