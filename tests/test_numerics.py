import numpy as np
import pytest

from helpers import cosine_similarity, l2_normalize, reference_average_ranks

from dualmoco.errors import InvalidInputError
from dualmoco.numerics import average_ranks, spearman_correlation


def rank_formula_rho(xs, ys):
    """Textbook no-ties oracle: 1 - 6 * sum(d^2) / (n (n^2 - 1))."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    rx = np.argsort(np.argsort(xs)) + 1
    ry = np.argsort(np.argsort(ys)) + 1
    n = len(xs)
    d = rx - ry
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))


class TestL2Normalize:
    def test_pythagorean_triple(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError, match="cannot normalize a vector with norm"):
            l2_normalize([0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 12)) * 10.0 ** rng.integers(-3, 4)
            once = l2_normalize(v)
            twice = l2_normalize(once)
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_direction_preserved(self):
        v = np.array([2.0, -5.0, 1.0])
        u = l2_normalize(v)
        np.testing.assert_allclose(u * np.linalg.norm(v), v, rtol=1e-12)


class TestCosineSimilarity:
    def test_self_similarity(self):
        assert cosine_similarity([0.6, 0.8], [0.6, 0.8]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_value(self):
        # dot / (norm * norm) = 1 / sqrt(2)
        oracle = 1.0 / (np.sqrt(2.0) * 1.0)
        got = cosine_similarity([1.0, 1.0], [1.0, 0.0])
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.70710678, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError, match="dimension mismatch: 2 vs 3"):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(InvalidInputError, match="undefined for zero vectors"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            a, b = rng.uniform(0.01, 100.0, size=2)
            assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u), abs=1e-12)
            assert cosine_similarity(a * u, b * v) == pytest.approx(
                cosine_similarity(u, v), abs=1e-9
            )

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = rng.normal(size=4)
            assert -1.0 <= cosine_similarity(u, u * rng.uniform(0.5, 2.0)) <= 1.0

    def test_dot_product_when_unit_norm(self):
        rng = np.random.default_rng(17)
        u = l2_normalize(rng.normal(size=8))
        v = l2_normalize(rng.normal(size=8))
        assert cosine_similarity(u, v) == pytest.approx(float(np.dot(u, v)), abs=1e-12)

    def test_unit_vector_distance_identity(self):
        # ||u - v||^2 = 2 - 2 cos(u, v) for unit vectors
        rng = np.random.default_rng(19)
        for _ in range(100):
            u = l2_normalize(rng.normal(size=5))
            v = l2_normalize(rng.normal(size=5))
            lhs = float(np.sum((u - v) ** 2))
            rhs = 2.0 - 2.0 * cosine_similarity(u, v)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert spearman_correlation([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_rank_formula_example(self):
        oracle = rank_formula_rho([1, 2, 3], [3, 1, 2])
        assert oracle == pytest.approx(-0.5)
        assert spearman_correlation([1, 2, 3], [3, 1, 2]) == pytest.approx(oracle, abs=1e-12)

    def test_matches_rank_formula_on_random_permutations(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            xs = rng.permutation(n).astype(float)
            ys = rng.permutation(n).astype(float)
            assert spearman_correlation(xs, ys) == pytest.approx(
                rank_formula_rho(xs, ys), abs=1e-12
            )

    def test_average_ranks_on_ties(self):
        np.testing.assert_allclose(average_ranks([1.0, 1.0, 2.0]), [1.5, 1.5, 3.0])
        np.testing.assert_allclose(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])

    def test_average_ranks_match_tie_walking_reference_bitwise(self):
        rng = np.random.default_rng(24)
        for case in range(2000):
            n = int(rng.integers(0, 40))
            xs = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            xs[rng.random(n) < 0.15] = -0.0
            xs[rng.random(n) < 0.15] = 0.0
            step = rng.random(n) < 0.2
            xs[step] = np.nextafter(xs[step], np.inf)
            if case % 10 == 0:
                xs[rng.random(n) < 0.2] = np.nan
            assert average_ranks(xs).tobytes() == reference_average_ranks(xs).tobytes()

    def test_tied_input_against_hand_computation(self):
        xs = [1.0, 1.0, 2.0]
        ys = [10.0, 20.0, 30.0]
        rx = np.array([1.5, 1.5, 3.0])
        ry = np.array([1.0, 2.0, 3.0])
        rxc, ryc = rx - rx.mean(), ry - ry.mean()
        oracle = float(np.dot(rxc, ryc) / (np.linalg.norm(rxc) * np.linalg.norm(ryc)))
        assert spearman_correlation(xs, ys) == pytest.approx(oracle, abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(29)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        base = spearman_correlation(xs, ys)
        for transform in (np.exp, lambda v: v**3, lambda v: 2.0 * v + 1.0):
            assert spearman_correlation(transform(xs), ys) == pytest.approx(base, abs=1e-12)
            assert spearman_correlation(xs, transform(ys)) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError, match="length mismatch: 3 vs 2"):
            spearman_correlation([1, 2, 3], [1, 2])

    def test_constant_sequence_rejected(self):
        with pytest.raises(InvalidInputError, match="constant sequence has no rank correlation"):
            spearman_correlation([1.0, 1.0, 1.0], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InvalidInputError, match="need at least 2 observations, got 1"):
            spearman_correlation([1.0], [2.0])

    def test_output_in_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            xs = rng.normal(size=10)
            ys = rng.normal(size=10)
            assert -1.0 <= spearman_correlation(xs, ys) <= 1.0
