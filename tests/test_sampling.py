import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minterp import (
    Dataset,
    TeacherFunction,
    barron_norm_upper,
    make_teacher,
    sample_dataset,
    sample_l1_sphere,
    sup_norm_upper,
    teacher_eval_batch,
)

from minterp.sampling import _l1_sphere_rows, _random_signs
from minterp.seeding import rng_from

from _oracles import rademacher_formula, sample_l1_sphere_formula, teacher_eval

BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64", "PCG64DXSM")


def generator_pair(name: str, seed: int, half_word: bool):
    """Two generators in one state; with ``half_word`` each holds a buffered uint32 half."""
    pair = [np.random.Generator(getattr(np.random, name)(seed)) for _ in range(2)]
    if half_word:
        for rng in pair:
            rng.integers(0, 1 << 32, dtype=np.uint32)
    return pair


def assert_same_state(rng_a, rng_b):
    assert rng_a.random() == rng_b.random()
    words_a = rng_a.integers(0, 1 << 32, size=3, dtype=np.uint32)
    np.testing.assert_array_equal(words_a, rng_b.integers(0, 1 << 32, size=3, dtype=np.uint32))


class TestL1Sphere:
    def test_shape(self):
        W = sample_l1_sphere(4, 100, seed=0)
        assert W.shape == (100, 5)

    def test_unit_l1_norm(self):
        W = sample_l1_sphere(6, 5000, seed=1)
        assert_allclose(np.abs(W).sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_l1_sphere(3, 50, seed=9), sample_l1_sphere(3, 50, seed=9)
        )

    def test_sign_symmetry(self):
        # componentwise means vanish like 1/sqrt(count)
        W = sample_l1_sphere(2, 200_000, seed=2)
        assert np.abs(W.mean(axis=0)).max() < 5e-3

    def test_covers_both_signs(self):
        W = sample_l1_sphere(1, 1000, seed=3)
        assert (W[:, 0] > 0).any() and (W[:, 0] < 0).any()

    @pytest.mark.parametrize("d", [1, 4, 9])
    @pytest.mark.parametrize("count", [1, 7, 1000, 65_536])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_in_place_draw_matches_formula(self, d, count, seed):
        want = sample_l1_sphere_formula(rng_from(seed), count, d + 1)
        assert _l1_sphere_rows(rng_from(seed), count, d + 1).tobytes() == want.tobytes()
        assert sample_l1_sphere(d, count, seed).tobytes() == want.tobytes()

    # tobytes, because assert_array_equal takes -0.0 for 0.0; dims 1-17 cover the
    # column-by-column row sums below 8 columns and numpy's pairwise sum above
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(BIT_GENERATORS), dim=st.integers(1, 17),
           count=st.integers(1, 300), seed=st.integers(0, 2**63), half_word=st.booleans())
    def test_rows_and_state_match_formula_bit_for_bit(self, name, dim, count, seed, half_word):
        rng, ref = generator_pair(name, seed, half_word)
        got = _l1_sphere_rows(rng, count, dim)
        assert got.tobytes() == sample_l1_sphere_formula(ref, count, dim).tobytes()
        assert_same_state(rng, ref)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(BIT_GENERATORS), rows=st.integers(1, 40),
           cols=st.integers(1, 9), seed=st.integers(0, 2**63), half_word=st.booleans())
    def test_rademacher_signs_match_formula_bit_for_bit(self, name, rows, cols, seed, half_word):
        rng, ref = generator_pair(name, seed, half_word)
        got = _random_signs(rng, np.ones((rows, cols)))
        assert got.tobytes() == rademacher_formula(ref, (rows, cols)).tobytes()
        assert_same_state(rng, ref)

    def test_signs_keep_zero_entries_signed(self):
        # a sign of -1 turns 0.0 into -0.0, as the product with the formula's signs does
        rng, ref = generator_pair("PCG64", 6, False)
        got = _random_signs(rng, np.zeros(64))
        want = np.zeros(64) * (ref.integers(0, 2, size=64) * 2 - 1)
        assert got.tobytes() == want.tobytes() and np.signbit(got).any()


class TestTeacher:
    def test_make_teacher_shapes(self):
        f = make_teacher(5, 12, seed=0)
        assert f.d == 5
        assert f.n_atoms == 12
        assert f.coefficients.shape == (12,)
        assert f.directions.shape == (12, 6)

    def test_directions_on_sphere(self):
        f = make_teacher(4, 30, seed=1)
        assert_allclose(np.abs(f.directions).sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(f.coefficients).max() <= 1.0

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            TeacherFunction(
                coefficients=np.array([1.0]),
                directions=np.array([[0.7, 0.7]]),
            )

    def test_dimension_is_read_from_the_directions(self):
        f = TeacherFunction(coefficients=np.ones(2), directions=np.array([[0.5, 0.5], [0.0, -1.0]]))
        assert f.d == 1
        # a direction (b, c) needs at least one input coordinate b
        for directions in (np.array([[1.0], [-1.0]]), np.ones((2, 0)), np.ones(2)):
            with pytest.raises(ValueError, match=r"d\+1 >= 2"):
                TeacherFunction(coefficients=np.ones(2), directions=directions)
        with pytest.raises(ValueError, match="expected coefficients"):
            TeacherFunction(coefficients=np.ones(3), directions=np.array([[0.5, 0.5]]))

    def test_teacher_without_atoms_rejected(self):
        # a zero-atom teacher would evaluate to 0 / 0
        with pytest.raises(ValueError, match="at least one atom"):
            TeacherFunction(np.empty(0), np.empty((0, 4)))

    def test_eval_matches_hand_formula(self):
        # single atom a * relu(b x + c)
        f = TeacherFunction(
            coefficients=np.array([2.0]),
            directions=np.array([[0.5, -0.5]]),
        )
        assert teacher_eval(f, np.array([0.6])) == pytest.approx(0.0)  # 0.3 - 0.5 < 0
        assert teacher_eval(f, np.array([-0.6])) == pytest.approx(0.0)
        f2 = TeacherFunction(
            coefficients=np.array([2.0]),
            directions=np.array([[0.5, 0.5]]),
        )
        assert teacher_eval(f2, np.array([0.6])) == pytest.approx(2.0 * 0.8)

    def test_batch_matches_pointwise(self):
        f = make_teacher(3, 7, seed=4)
        X = np.random.default_rng(0).uniform(-1, 1, (3, 40))
        batch = teacher_eval_batch(f, X)
        point = np.array([teacher_eval(f, X[:, i]) for i in range(40)])
        assert_allclose(batch, point, rtol=1e-12)

    def test_norm_uppers(self):
        f = TeacherFunction(
            coefficients=np.array([3.0, -1.0]),
            directions=np.array([[0.5, 0.5], [1.0, 0.0]]),
        )
        assert barron_norm_upper(f) == pytest.approx(2.0)  # mean(|3|, |-1|)
        # sup relu(b x + c) over |x| <= 1 equals relu(|b| + c)
        assert sup_norm_upper(f) == pytest.approx((3.0 * 1.0 + 1.0 * 1.0) / 2.0)

    def test_sup_upper_is_actual_bound(self):
        f = make_teacher(4, 20, seed=5)
        X = np.random.default_rng(1).uniform(-1, 1, (4, 5000))
        assert np.abs(teacher_eval_batch(f, X)).max() <= sup_norm_upper(f) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(d=st.integers(1, 8), n_atoms=st.integers(1, 64), seed=st.integers(0, 2**63))
    @example(d=1, n_atoms=1, seed=8)  # this direction's |b| + c rounds to 1 + 2.2e-16
    def test_drawn_teacher_labels_need_no_rescaling(self, d, n_atoms, seed):
        # coefficients in [-1, 1] keep the norm bound, and so every label, below 1
        f = make_teacher(d, n_atoms, seed)
        assert barron_norm_upper(f) < 1.0
        assert sup_norm_upper(f) <= barron_norm_upper(f)


class TestDataset:
    def test_sample_dataset(self):
        f = make_teacher(4, 10, seed=7)
        data = sample_dataset(f, 25, seed=8)
        assert data.X.shape == (4, 25)
        assert data.y.shape == (25,)
        assert np.abs(data.X).max() <= 1.0
        assert np.abs(data.y).max() <= 1.0
        assert_allclose(data.y, teacher_eval_batch(f, data.X), rtol=1e-12)

    def test_deterministic(self):
        f = make_teacher(2, 5, seed=0)
        a = sample_dataset(f, 10, seed=3)
        b = sample_dataset(f, 10, seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_label_overflow_reports_index(self):
        # teacher with sup norm 3: some |y| > 1 must occur and be flagged
        f = TeacherFunction(
            coefficients=np.array([3.0]),
            directions=np.array([[1.0, 0.0]]),
        )
        with pytest.raises(ValueError, match=r"\|y\| <= 1, label \d+ is"):
            sample_dataset(f, 200, seed=0)
        with pytest.raises(ValueError, match=r"label 1 is 1\.5"):
            Dataset(X=np.zeros((1, 3)), y=np.array([0.5, 1.5, -2.0]), seed=0)
        with pytest.raises(ValueError, match=r"label 0 is nan"):
            Dataset(X=np.zeros((1, 2)), y=np.array([np.nan, 0.0]), seed=0)

    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(X=np.array([[2.0]]), y=np.array([0.0]), seed=0)
        with pytest.raises(ValueError):
            Dataset(X=np.array([[0.5]]), y=np.array([1.5]), seed=0)
        with pytest.raises(ValueError, match="inputs"):  # NaN is not in the box
            Dataset(X=np.array([[np.nan]]), y=np.array([0.0]), seed=0)
