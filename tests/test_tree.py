import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference_tree import reference_grow

from foglink import tree as tree_module
from foglink.serialize import model_to_dict
from foglink.tables import LabeledTable
from foglink.tree import _child_keys, _draw, _mix, fit_regression_tree


def table(features, targets):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and len(targets) > 1:
        features = features.T
    return LabeledTable(features, targets, tuple(f"f{i}" for i in range(features.shape[1])))


def test_constant_targets_single_leaf():
    tree = fit_regression_tree(table([[0.0], [1.0], [2.0]], [5.0, 5.0, 5.0]), 1)
    assert tree.feature == [-1]
    assert tree.value == [5.0]


def test_two_cluster_split():
    data = table([0.0, 1.0, 10.0, 11.0], [0.0, 0.0, 1.0, 1.0])
    tree = fit_regression_tree(data, 1)
    assert tree.feature[0] == 0
    assert 1.0 < tree.threshold[0] < 10.0
    left, right = tree.left[0], tree.right[0]
    assert tree.feature[left] == -1 and tree.value[left] == 0.0
    assert tree.feature[right] == -1 and tree.value[right] == 1.0
    assert tree.predict_row([0.5]) == 0.0
    assert tree.predict_row([10.5]) == 1.0


def test_min_leaf_equal_to_rows_gives_mean():
    data = table([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 6.0])
    tree = fit_regression_tree(data, 4)
    assert tree.feature == [-1]
    assert tree.value[0] == pytest.approx(3.0)


def test_memorises_training_rows_with_min_leaf_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b", "c")), 1)
    assert tree.predict(X) == pytest.approx(y, rel=1e-12)


def test_routing_is_left_on_ties():
    data = table([0.0, 1.0], [0.0, 1.0])
    tree = fit_regression_tree(data, 1)
    # exactly at the threshold routes left
    assert tree.predict_row([tree.threshold[0]]) == 0.0


def test_dimension_mismatch_rejected():
    tree = fit_regression_tree(table([0.0, 1.0], [0.0, 1.0]), 1)
    with pytest.raises(ValueError):
        tree.predict_row([0.0, 1.0])
    with pytest.raises(ValueError):
        tree.predict(np.zeros((3, 4)))


def test_empty_table_rejected():
    empty = LabeledTable(np.zeros((0, 2)), np.zeros(0), ("a", "b"))
    with pytest.raises(ValueError):
        fit_regression_tree(empty, 1)


def test_max_depth_caps_tree():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b")), 1, max_depth=2)

    def depth(node):
        if tree.feature[node] == -1:
            return 0
        return 1 + max(depth(tree.left[node]), depth(tree.right[node]))

    assert depth(0) <= 2


def test_sample_weight_shifts_leaf_values():
    data = table([0.0, 1.0], [0.0, 10.0])
    heavy_right = fit_regression_tree(data, 2, sample_weight=np.array([1.0, 3.0]))
    assert heavy_right.value[0] == pytest.approx(7.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_weight_rejected(bad):
    # either would reach predict as a NaN leaf for its row
    data = table(np.arange(10.0), np.arange(10.0) ** 2)
    w = np.ones(10)
    w[3] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_regression_tree(data, 1, sample_weight=w)


def test_integer_weights_match_duplicated_rows():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 5.0, 5.0, 10.0])
    counts = [1, 2, 3, 1]
    weighted = fit_regression_tree(LabeledTable(X, y, ("x",)), 1,
                                   sample_weight=np.array(counts, dtype=float))
    rows = np.repeat(np.arange(4), counts)
    duplicated = fit_regression_tree(LabeledTable(X[rows], y[rows], ("x",)), 1)
    grid = np.linspace(-1.0, 4.0, 23)[:, None]
    assert weighted.predict(grid) == pytest.approx(duplicated.predict(grid), rel=1e-12)


def test_tie_break_prefers_lowest_feature_index():
    # identical columns: the split must land on feature 0
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = fit_regression_tree(LabeledTable(X, y, ("a", "b")), 1)
    assert tree.feature[0] == 0


def test_midpoint_rounding_onto_upper_value_splits_at_lower():
    # 0.5 * ((1 + 2**-52) + (1 + 2**-51)) rounds to 1 + 2**-51, which would
    # send every row left; the lower value gives the scanned partition
    X = [0.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51]
    tree = fit_regression_tree(table(X, [0.0, 0.0, 1.0]), 1, max_depth=4)
    assert tree.threshold[0] == 1.0 + 2.0 ** -52
    assert np.isfinite(tree.value).all()
    assert tree.predict(np.array(X)[:, None]).tolist() == [0.0, 0.0, 1.0]


def test_refit_is_deterministic():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(25, 2))
    y = rng.normal(size=25)
    data = LabeledTable(X, y, ("a", "b"))
    grid = rng.normal(size=(50, 2))
    first = fit_regression_tree(data, 2).predict(grid)
    second = fit_regression_tree(data, 2).predict(grid)
    assert np.array_equal(first, second)


# --- the presorted, feature-batched search against the per-feature reference

def fit_both(data, min_leaf_size, rng_seed=None, **kwargs):
    """The same fit through ``foglink.tree`` and through the reference search,
    each as its serialized model dict (JSON text, so NaN compares too)."""
    def fit():
        if rng_seed is not None:
            kwargs["_rng"] = np.random.default_rng(rng_seed)
        return json.dumps(model_to_dict(fit_regression_tree(data, min_leaf_size, **kwargs)))

    fast = fit()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_grow", reference_grow)
        reference = fit()
    return fast, reference


def awkward_table(seed, n=160):
    """Random table with the column shapes that stress the tie-break: a
    duplicated column, a monotone function of another column, a constant
    column, and coarse columns with many repeated values."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 4, size=n).astype(float)
    level = np.round(rng.gamma(2.0, 15.0, size=n), 1)
    smooth = rng.normal(size=n)
    X = np.column_stack([
        coarse,
        1e9 / (1.0 + level),        # strictly decreasing in `level`
        level,
        np.full(n, 0.1),            # constant
        smooth,
        level,                      # duplicate of column 2
        rng.choice([850.0, 1310.0, 1550.0], size=n),
    ])
    if seed % 2:
        # exact function of the features, like the QoS target: many splits
        # with zero error on one side
        y = 10.0 * np.log10(X[:, 6]) - 0.3 * level + 2.0 * coarse
    else:
        y = np.round(40.0 + 5.0 * smooth - 0.2 * level + rng.normal(size=n), 2)
    return LabeledTable(X, y, tuple(f"f{i}" for i in range(X.shape[1])))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("min_leaf_size", [1, 3, 10])
def test_batched_search_matches_reference(seed, min_leaf_size):
    fast, reference = fit_both(awkward_table(seed), min_leaf_size)
    assert fast == reference


@pytest.mark.parametrize("seed", range(4))
def test_batched_search_matches_reference_on_bootstrap_rows(seed):
    data = awkward_table(seed)
    picked = np.random.default_rng(seed + 50).integers(0, data.n_rows, size=data.n_rows)
    fast, reference = fit_both(data.subset(picked), 1)
    assert fast == reference


@pytest.mark.parametrize("seed", range(4))
def test_batched_search_matches_reference_with_tiny_weights(seed):
    # AdaBoost-style weights spanning 1e-300 to 1, both ends present
    data = awkward_table(seed)
    rng = np.random.default_rng(seed + 70)
    w = 10.0 ** rng.uniform(-300.0, 0.0, size=data.n_rows)
    w[:3] = 1e-300
    w[3:6] = 1.0
    for max_depth in (None, 3):
        fast, reference = fit_both(data, 2, sample_weight=w, max_depth=max_depth)
        assert fast == reference


@pytest.mark.parametrize("seed", range(4))
def test_batched_search_matches_reference_with_mtry_and_depth_caps(seed):
    data = awkward_table(seed)
    for mtry, max_depth in ((2, None), (3, 4), (1, 2)):
        fast, reference = fit_both(data, 1, rng_seed=seed + 90, _mtry=mtry,
                                   max_depth=max_depth)
        assert fast == reference


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_search_matches_reference_on_extreme_values():
    # midpoints that round onto the upper value, subnormal and huge
    # magnitudes, overflowing squared targets: the near-tie shortcut must fall
    # back to rescoring.  Such a midpoint can send every row of a node left,
    # so the depth cap keeps the fit finite.
    rng = np.random.default_rng(123)
    one_up = np.nextafter(1.0, 2.0)
    base = np.array([1.0, one_up, np.nextafter(one_up, 2.0), 5e-324, 1e-323, 1e300, 1.5e308])
    X = np.column_stack([rng.choice(base, size=60), rng.choice(base, size=60),
                         rng.normal(size=60)])
    for y in (rng.normal(size=60), rng.normal(size=60) * 1e200):
        fast, reference = fit_both(LabeledTable(X, y, ("a", "b", "c")), 1, max_depth=8)
        assert fast == reference


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_search_matches_reference_when_squares_overflow():
    # targets near 1e152: prefix sums of w*y squared overflow while sums of
    # w*y^2 do not, so scan errors are unbounded and every feature is rescored
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        y = 10.0 ** rng.uniform(150, 154) * (1 + 0.3 * rng.normal(size=n))
        fast, reference = fit_both(LabeledTable(X, y, ("a", "b", "c")), 1, max_depth=6)
        assert fast == reference


# zero weights (a zero-weight child scores and averages 0/0), subnormal and
# tiny ones
WEIGHTS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.25, 1.0, 3.0])


@pytest.mark.parametrize("max_depth", [-1, -3, 0])
def test_depth_cap_at_or_below_zero_fits_one_leaf(max_depth):
    data = awkward_table(4, 40)
    fast, reference = fit_both(data, 1, max_depth=max_depth)
    assert fast == reference
    tree = fit_regression_tree(data, 1, max_depth=max_depth)
    assert tree.feature == [-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 48), weights=st.data(),
       weighted=st.booleans(), max_depth=st.sampled_from([None, *range(-2, 8)]),
       min_leaf_size=st.integers(1, 8), mtry=st.sampled_from([None, 1, 3]))
def test_fit_matches_reference_grower(seed, n, weights, weighted, max_depth, min_leaf_size,
                                      mtry):
    data = awkward_table(seed, n)
    kwargs = {"max_depth": max_depth}
    if weighted:
        w = np.array(weights.draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
        if not w.sum() > 0:
            w[0] = 1.0
        kwargs["sample_weight"] = w
    if mtry is not None:
        kwargs["_mtry"] = mtry
    fast, reference = fit_both(data, min_leaf_size, rng_seed=None if mtry is None else seed,
                               **kwargs)
    assert fast == reference


# --- the path-keyed feature draws against exact integer arithmetic

M64 = 2 ** 64
KEYS = [0, 1, 2, 0x9E3779B97F4A7C15, 0x0123456789ABCDEF, 2 ** 63, 2 ** 63 + 1, M64 - 1]


def exact_mix(z):
    """splitmix64's finaliser on a Python integer below 2^64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % M64
    return z ^ (z >> 31)


def test_mix_matches_exact_integer_arithmetic():
    assert _mix(np.array(KEYS, dtype=np.uint64)).tolist() == [exact_mix(k) for k in KEYS]
    # splitmix64 seeded with 0 first returns 0xE220A8397B1DCDAF
    assert exact_mix(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_child_keys_and_draw_match_exact_integer_arithmetic():
    keys = np.array(KEYS, dtype=np.uint64)
    left, right = _child_keys(keys)
    assert left.tolist() == [exact_mix(2 * k % M64) for k in KEYS]
    assert right.tolist() == [exact_mix((2 * k + 1) % M64) for k in KEYS]
    for n_features, mtry in ((7, 3), (5, 2), (4, 1), (9, 8)):
        expected = [sorted(sorted(range(n_features),
                                  key=lambda f: exact_mix(k ^ exact_mix(f + 1)))[:mtry])
                    for k in KEYS]
        assert _draw(keys, n_features, mtry).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.integers(0, M64 - 1), min_size=1, max_size=20), data=st.data())
def test_every_node_draws_mtry_distinct_sorted_features(keys, data):
    n_features = data.draw(st.integers(1, 12))
    mtry = data.draw(st.integers(1, n_features))
    drawn = _draw(np.array(keys, dtype=np.uint64), n_features, mtry)
    assert drawn.shape == (len(keys), mtry)
    for row in drawn.tolist():
        assert row == sorted(set(row)) and 0 <= row[0] and row[-1] < n_features


@pytest.mark.parametrize("n_features, mtry", [(5, 2), (7, 3)])
def test_each_feature_is_drawn_at_rate_mtry_over_features(n_features, mtry):
    # the keys of 10,000 nodes of one tree, level by level from a seeded root
    keys, level = [], np.random.default_rng(0).integers(2 ** 64, size=1, dtype=np.uint64)
    while len(keys) < 10_000:
        keys += level.tolist()
        level = np.concatenate(_child_keys(level))
    keys = np.array(keys[:10_000], dtype=np.uint64)
    rate = np.bincount(_draw(keys, n_features, mtry).ravel(), minlength=n_features) / keys.size
    assert np.all(np.abs(rate / (mtry / n_features) - 1.0) <= 0.03)
