import numpy as np

from qdtau import cover_homology as ch


def to_float(m):
    return np.array([[float(x) for x in row] for row in m])


def test_intersection_matrix_block_form():
    m = 3
    j = to_float(ch.standard_j(m))
    expected = np.block(
        [[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]]
    )
    assert np.array_equal(j, expected)


def test_mu_matrix_g1_n2():
    mats = ch.build_matrices(1, 2)
    assert to_float(mats.m).tolist() == [
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0],
    ]


def test_mu_squares_to_identity():
    for g, n in [(0, 5), (1, 2), (2, 0), (2, 3), (3, 1)]:
        mats = ch.build_matrices(g, n)
        m = to_float(mats.m)
        assert np.array_equal(m @ m, np.eye(len(m))), (g, n)


def test_t_times_t_transpose_g1_n2():
    mats = ch.build_matrices(1, 2)
    t = to_float(mats.t)
    assert np.array_equal(t @ t.T, np.diag([2.0, 2.0, 1.0]))


def test_s_is_symplectic():
    for g, n in [(0, 5), (1, 2), (2, 0), (3, 2)]:
        mats = ch.build_matrices(g, n)
        s = to_float(mats.s)
        assert ch.is_symplectic(s), (g, n)


def test_eigenspace_dims():
    # mu's +1 and -1 eigenspaces on the a-cycles: g invariant and
    # 3g-3+n anti-invariant dimensions, ghat = 4g-3+n in all
    for g, n in [(0, 5), (1, 2), (2, 0), (4, 3)]:
        m = to_float(ch.build_matrices(g, n).m)
        eig = np.linalg.eigvalsh(m)
        assert len(eig) == 4 * g - 3 + n, (g, n)
        assert np.sum(np.isclose(eig, 1.0)) == g, (g, n)
        assert np.sum(np.isclose(eig, -1.0)) == 3 * g - 3 + n, (g, n)


def test_random_symplectic():
    rng = np.random.default_rng(11)
    j = np.array(ch.standard_j(2), dtype=int)
    for _ in range(20):
        s = ch.random_symplectic(2, rng)
        assert np.array_equal(s.T @ j @ s, j)
        assert s.dtype.kind == "i"
