import itertools

import numpy as np
import pytest

from bckcodes import _kernels as K
from bckcodes import parse_algebra_file


def late_witness_tables(count, seed):
    """Seeded n <= 12 tables: half uniform random, half the BCK chain table
    (x*y = 0 if x <= y else x, and its transpose) with one cell overwritten,
    whose first violations land at a late x."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 13))
        if k % 2:
            yield rng.integers(0, n, size=(n, n))
            continue
        idx = np.arange(n)
        t = np.where(idx[:, None] <= idx[None, :], 0, idx[:, None])
        if k % 4:
            t = t.T.copy()
        t[rng.integers(n), rng.integers(n)] = rng.integers(n)
        yield t


def brute_first(n, arity, violated):
    """Plain-loop oracle: the first witness in lexicographic order, or None."""
    for w in itertools.product(range(n), repeat=arity):
        if violated(*w):
            return w
    return None


def brute_hilbert_scan(d, theta):
    n = len(d)
    return [
        brute_first(n, 2, lambda x, y: d[x][d[y][x]] != theta),
        brute_first(n, 3, lambda x, y, z: d[d[x][d[y][z]]][d[d[x][y]][d[x][z]]] != theta),
        brute_first(n, 2, lambda x, y: x != y and d[x][y] == theta and d[y][x] == theta),
    ]


def brute_property_scan(t, theta):
    n = len(t)
    return [
        brute_first(n, 2, lambda x, y: t[x][t[x][y]] != t[y][t[y][x]]),
        brute_first(n, 2, lambda x, y: t[x][t[y][x]] != x),
        brute_first(n, 3, lambda x, y, z: t[t[x][y]][z] != t[t[x][z]][t[y][z]]),
    ]


def theta_first(table, theta):
    """The same table with element `theta` renumbered to 0, through the
    `theta` header of an algebra file."""
    text = f"kind star\nn {len(table)}\ntheta {theta}\n"
    text += "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
    return parse_algebra_file(text).table


class TestScansAgainstBruteForce:
    @pytest.mark.parametrize(
        "kernel, oracle",
        [(K.hilbert_axiom_scan, brute_hilbert_scan), (K.bck_property_scan, brute_property_scan)],
    )
    def test_every_row_matches(self, kernel, oracle):
        late = 0
        for table in late_witness_tables(240, seed=41):
            n = table.shape[0]
            rows = table.tolist()
            for theta in {0, n - 1}:
                relabelled = theta_first(table, theta)
                want = oracle(relabelled.tolist(), 0)
                assert list(kernel(relabelled)) == want, (table, theta)
                # the renumbering keeps which laws fail
                assert [w is None for w in want] == [w is None for w in oracle(rows, theta)]
                late += any(w is not None and w[0] >= n // 2 > 0 for w in want)
        assert late >= 20  # the tables do reach witnesses past the first rows
