import pytest

from nctori.exactlin import Matrix


def _unimodular_pair(rng, d, steps):
    """A random P in GL_d(Z) and its inverse, as products of elementary matrices."""
    p = q = Matrix.identity(d)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        e = [[int(r == s) for s in range(d)] for r in range(d)]
        e[i][j] = c
        p = p @ Matrix(e)
        e[i][j] = -c
        q = Matrix(e) @ q
    return p, q


@pytest.fixture
def unimodular_pair():
    """``unimodular_pair(rng, d, steps)``: a random P in GL_d(Z) and P^-1."""
    return _unimodular_pair
