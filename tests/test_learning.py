import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orbitfl.learning import (
    DataFormatError,
    EmptyShardError,
    LearnerConfig,
    LocalDataset,
    NumericDivergenceError,
    PartitionError,
    compute_time,
    evaluate,
    global_aggregate,
    init_params,
    load_idx,
    local_gd,
    local_gradient,
    model_dimension,
    partial_aggregate,
    partition_dataset,
    synthetic_pool,
    value_bound,
    _product,
)

from helpers import cross_entropy, features, numeric_gradient, write_idx_pair


def small_dataset(seed=0, n=40, f=5, c=3):
    return synthetic_pool(n, f, c, seed=seed, separation=2.0)


def test_model_dimension_and_init():
    assert model_dimension(784, 10) == 7850
    zeros = init_params(4, 3)
    assert zeros.shape == (15,)
    assert not zeros.any()


# Direct per-sample softmax: naive loop oracle
def test_evaluate_loss_matches_naive_loop():
    rng = np.random.default_rng(5)
    ds = small_dataset(seed=1, n=25, f=4, c=4)
    params = rng.normal(size=model_dimension(4, 4))
    w = params.reshape(5, 4)
    total = 0.0
    for x, y in zip(features(ds), ds.labels):
        scores = np.append(x, 1.0) @ w
        probs = np.exp(scores) / np.exp(scores).sum()
        total -= math.log(probs[y])
    assert evaluate(params, ds)[1] == pytest.approx(total / ds.num_samples, rel=1e-10)
    assert cross_entropy(params, ds) == pytest.approx(total / ds.num_samples, rel=1e-10)


def test_evaluate_rejects_mismatched_params():
    ds = small_dataset()
    with pytest.raises(ValueError):
        evaluate(np.zeros(17), ds)


def test_local_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = int(rng.integers(2, 7))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(5, 30))
        ds = synthetic_pool(n, f, c, seed=int(rng.integers(1e6)), separation=1.5)
        params = rng.normal(size=model_dimension(f, c))
        analytic = local_gradient(params, ds)
        numeric = numeric_gradient(lambda p: cross_entropy(p, ds), params)
        denom = np.maximum(np.abs(analytic), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


# Duplicating every sample leaves the mean gradient unchanged
def test_local_gradient_duplicate_invariance():
    drawn = small_dataset(seed=3)
    ds = LocalDataset(features(drawn), drawn.labels)
    doubled = LocalDataset(
        np.vstack([ds.levels, ds.levels]), np.concatenate([ds.labels, ds.labels])
    )
    params = np.random.default_rng(2).normal(scale=0.01, size=model_dimension(5, 3))
    np.testing.assert_allclose(
        local_gradient(params, ds), local_gradient(params, doubled), rtol=1e-12
    )


def test_local_gd_descends_and_composes():
    ds = small_dataset(seed=4)
    params = np.zeros(model_dimension(5, 3))
    cfg1 = LearnerConfig(learning_rate=0.1, local_iterations=1)
    cfg2 = LearnerConfig(learning_rate=0.1, local_iterations=2)
    after1 = local_gd(params, ds, cfg1)
    assert evaluate(after1, ds)[1] < evaluate(params, ds)[1]
    # two iterations must equal one iteration applied twice, bit for bit
    np.testing.assert_array_equal(local_gd(params, ds, cfg2), local_gd(after1, ds, cfg1))


def test_local_gd_guards_against_divergence():
    ds = small_dataset(seed=6)
    bad = LocalDataset(features(ds) * 1e30, ds.labels)
    cfg = LearnerConfig(learning_rate=1e300, local_iterations=5)
    with pytest.raises(NumericDivergenceError):
        local_gd(np.ones(model_dimension(5, 3)), bad, cfg)


# Each thread widens its shard into its own buffer, so shards trained on two
# threads at once, with the interpreter switching threads often, come out as
# they do trained in turn.
def test_training_on_two_threads_at_once_equals_training_in_turn():
    pools = [synthetic_pool(150, 40, 4, seed=seed) for seed in (1, 2)]
    cfg = LearnerConfig(learning_rate=0.1, local_iterations=200)
    params = init_params(40, 4)
    want = [local_gd(params, pool, cfg).tobytes() for pool in pools]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda ds: local_gd(params, ds, cfg).tobytes(), pools))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_compute_time_reference_value():
    # 1500 samples of 784 features at 8 bits each, 1e3 cycles per bit, 1 GHz clock
    ds = LocalDataset(np.zeros((1500, 784)), np.zeros(1500, dtype=int))
    cfg = LearnerConfig(learning_rate=0.1, cycles_per_sample=1e3, cpu_hz=1e9)
    assert ds.size_bits == 1500 * 6272
    assert compute_time(ds, cfg) == pytest.approx(9.408, rel=1e-12)
    scaled = LearnerConfig(learning_rate=0.1, cycles_per_sample=1e3, cpu_hz=1e9,
                           compute_time_factor=10.0)
    assert compute_time(ds, scaled) == pytest.approx(94.08, rel=1e-12)


def test_compute_time_linear_in_samples():
    cfg = LearnerConfig(learning_rate=0.1)
    one = compute_time(LocalDataset(np.zeros((10, 20)), np.zeros(10, dtype=int)), cfg)
    two = compute_time(LocalDataset(np.zeros((20, 20)), np.zeros(20, dtype=int)), cfg)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_partial_aggregate_weighted_sum():
    own = np.array([1.0, 2.0])
    out = partial_aggregate(own, 3, [np.array([4.0, 4.0]), np.array([1.0, 0.0])])
    np.testing.assert_array_equal(out, [8.0, 10.0])
    with pytest.raises(ValueError):
        partial_aggregate(own, 0, [])
    with pytest.raises(ValueError):
        partial_aggregate(own, 1, [np.zeros(3)])


def test_global_aggregate_is_weighted_average():
    parts = [np.array([2.0, 4.0]), np.array([4.0, 2.0])]
    np.testing.assert_array_equal(global_aggregate(parts, 3), [2.0, 2.0])
    with pytest.raises(ValueError):
        global_aggregate([], 3)


def test_every_model_made_here_is_read_only():
    ds = small_dataset()
    start = init_params(5, 3)
    trained = local_gd(start, ds, LearnerConfig(learning_rate=0.1))
    part = partial_aggregate(trained, ds.num_samples, [])
    models = (start, trained, part, global_aggregate([part], ds.num_samples))
    for params in models:
        with pytest.raises(ValueError):
            params[0] = 1.0
        with pytest.raises(ValueError):
            params += 1.0


# The folds add into a fresh array in place; the reference below is the
# out-of-place fold, which rounds every sum the same way. A fold whose sum is
# not finite raises instead, and numpy warns of nothing.
@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_in_place_folds_are_bit_equal_to_out_of_place_folds(data):
    shape = data.draw(hnp.array_shapes(max_dims=2, max_side=12))
    models = hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, width=64))
    own = data.draw(models)
    incoming = data.draw(st.lists(models, max_size=6))
    num_samples = data.draw(st.integers(1, 10**6))
    total = data.draw(st.integers(1, 10**9))
    with np.errstate(all="ignore"):  # sums of large entries overflow, alike in both
        out = num_samples * own
        for part in incoming:
            out = out + part
        acc = np.zeros(shape)
        for part in [own] + incoming:
            acc = acc + part
        expected = acc / total
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fold, want in ((lambda: partial_aggregate(own, num_samples, incoming), out),
                           (lambda: global_aggregate([own] + incoming, total), expected)):
            if np.all(np.isfinite(want)):
                assert fold().tobytes() == want.tobytes()
            else:
                with pytest.raises(NumericDivergenceError):
                    fold()


# A block product equals the whole one to 1e-12 of the magnitudes it sums, for
# a C-contiguous left factor and for a transposed view (the gradient's aug.T),
# with a short last block, and one row a block when a row is over 2**18
# multiply-adds; the examples are the desk's evaluation and gradient shapes,
# and the gradient of an empty shard, whose products sum nothing
@settings(max_examples=60, derandomize=True, deadline=None)
@example(rows=2000, inner=785, cols=10, transposed=False, wide=False, seed=0)
@example(rows=785, inner=150, cols=10, transposed=True, wide=False, seed=0)
@example(rows=785, inner=0, cols=10, transposed=True, wide=False, seed=0)
@example(rows=5, inner=600, cols=450, transposed=False, wide=True, seed=0)
@given(
    rows=st.integers(1, 400),
    inner=st.integers(1, 800),
    cols=st.integers(1, 60),
    transposed=st.booleans(),
    wide=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_products_match_the_whole_product(rows, inner, cols, transposed, wide, seed):
    if wide:  # inner * cols > 2**18
        rows, inner, cols = rows % 6 + 1, 600 + inner % 200, 440 + cols
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(inner, rows)).T if transposed else rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, cols))
    got = _product(a, b)
    assert got.shape == (rows, cols)
    assert np.all(np.abs(got - a @ b) <= 1e-12 * (np.abs(a) @ np.abs(b)))


# Folding weighted contributions up an arbitrary tree must equal the flat
# weighted average, to float precision
def test_tree_fold_matches_centralized():
    rng = np.random.default_rng(21)
    dim = 50
    counts = rng.integers(1, 500, size=7)
    models = rng.normal(size=(7, dim))
    # chain 0<-1<-2 and 0<-3, plus chain 4<-5<-6 folded at two roots
    leaf2 = partial_aggregate(models[2], counts[2], [])
    node1 = partial_aggregate(models[1], counts[1], [leaf2])
    leaf3 = partial_aggregate(models[3], counts[3], [])
    root0 = partial_aggregate(models[0], counts[0], [node1, leaf3])
    leaf6 = partial_aggregate(models[6], counts[6], [])
    node5 = partial_aggregate(models[5], counts[5], [leaf6])
    root4 = partial_aggregate(models[4], counts[4], [node5])
    total = int(counts.sum())
    tree = global_aggregate([root0, root4], total)
    flat = (counts[:, None] * models).sum(axis=0) / total
    np.testing.assert_allclose(tree, flat, rtol=1e-12)


def test_partition_iid_conserves_samples():
    labels = small_dataset(seed=8, n=103, f=4, c=3).labels
    rows = partition_dataset(labels, 10, "iid", 5, 3)
    assert len(rows) == 10
    assert sorted(np.concatenate(rows).tolist()) == list(range(103))
    sizes = sorted(r.size for r in rows)
    assert sizes[-1] - sizes[0] <= 1
    # a second call with the same seed deals identically
    again = partition_dataset(labels, 10, "iid", 5, 3)
    for a, b in zip(rows, again):
        np.testing.assert_array_equal(a, b)


def test_partition_single_worker_gets_everything():
    labels = small_dataset(seed=9, n=30).labels
    (rows,) = partition_dataset(labels, 1, "iid", 0, 3)
    assert sorted(rows.tolist()) == list(range(30))


# the first block of np.array_split's two takes the labels below num_classes // 2
def test_partition_label_split_reference_layout():
    for workers, num_classes in ((40, 10), (5, 3)):
        labels = synthetic_pool(4000, 8, num_classes, seed=14, separation=2.0).labels
        rows = partition_dataset(labels, workers, "label_split", 3, num_classes)
        first = -(-workers // 2)
        for worker, r in enumerate(rows):
            assert r.size > 0
            assert set((labels[r] < num_classes // 2).tolist()) == {worker < first}
        assert sorted(np.concatenate(rows).tolist()) == list(range(4000))


def _drawn(pool_size=103, workers=10, features=6):
    """A pool drawn straight into the shards of an iid deal."""
    def shard(labels):
        return partition_dataset(labels, workers, "iid", 1, 3)

    return synthetic_pool(pool_size, features, 3, seed=4, shard=shard)


# A drawn pool's shards share one block of byte levels, and the pool's map
# from levels to features.
def test_shards_are_row_slices_of_one_block():
    shards = _drawn()
    block = shards[0].levels.base
    assert block.shape == (103, 6) and block.dtype == np.uint8 and block.flags.c_contiguous
    assert all(np.shares_memory(s.levels, block) for s in shards)
    assert all(np.shares_memory(s.labels, shards[0].labels.base) for s in shards)
    assert sum(s.num_samples for s in shards) == 103
    assert all(s.shifts is shards[0].shifts and s.scale == shards[0].scale for s in shards)


def test_a_write_to_a_shard_or_a_test_set_raises():
    drawn = _drawn()
    test_set = synthetic_pool(20, 6, 3, seed=5, means_seed=4)
    for ds in (drawn[0], drawn[3], test_set, LocalDataset(np.zeros((2, 3)), [0, 1])):
        arrays = [ds.levels, ds.labels] + ([] if ds.shifts is None else [ds.shifts])
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1


def test_a_dataset_stores_a_copy_of_its_features():
    rows, labels = np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])
    ds = LocalDataset(rows, labels)
    rows[0, 0], labels[0] = 9.0, 1  # the caller's arrays stay its own and writable
    np.testing.assert_array_equal(ds.levels, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert ds.labels.tolist() == [0, 1, 0]
    assert (ds.scale, ds.shifts) == (1.0, None)
    double = np.zeros((2, 2))  # already float64, and still copied
    assert not np.shares_memory(LocalDataset(double, [0, 1]).levels, double)


# Features given as floats are held as float64, the width of every model and
# product, so each value is kept as given, however large.
def test_a_dataset_holds_its_features_as_float64():
    ds = LocalDataset([[0.1, 1e-3], [1e200, -1e-310]], [0, 1])
    assert ds.levels.dtype == np.float64 and ds.levels.flags.c_contiguous
    assert ds.levels.tolist() == [[0.1, 1e-3], [1e200, -1e-310]]
    assert LocalDataset(np.float32([[0.1]]), [0]).levels.tolist() == [[float(np.float32(0.1))]]


# a float block's largest |level| plays the part of an integer block's
# largest level: the same values bound training alike however they are held
def test_a_float_block_is_bounded_by_its_largest_level():
    levels = np.array([[0, 255, 3], [7, 0, 128]], dtype=np.uint8)
    labels = np.array([0, 1])
    held = LocalDataset._over(levels, labels, 1.0, None)
    floats = LocalDataset(levels.astype(np.float64), labels)
    config = LearnerConfig(learning_rate=0.1)
    want = value_bound(config, 2, 2, [held], held)
    assert value_bound(config, 2, 2, [floats], floats) == want
    signed = LocalDataset(-levels.astype(np.float64), labels)
    assert value_bound(config, 2, 2, [signed], signed) == want


def test_sizes_count_the_features_not_the_bias_column():
    cfg = LearnerConfig(learning_rate=0.1)
    drawn = _drawn(pool_size=100, workers=10, features=20)
    made = LocalDataset(np.zeros((10, 20)), np.zeros(10, dtype=int))
    for ds in (drawn[0], made):
        assert ds.levels.shape == (10, 20)
        assert (ds.num_samples, ds.num_features) == (10, 20)
        assert ds.size_bits == 10 * 20 * 8
        assert compute_time(ds, cfg) == 1e3 * 10 * 20 * 8 / 1e9


def test_partition_errors():
    labels = small_dataset(seed=10, n=5, c=3).labels
    with pytest.raises(EmptyShardError):
        partition_dataset(labels, 6, "iid", 0, 3)  # more workers than samples
    with pytest.raises(PartitionError):
        partition_dataset(labels, 1, "label_split", 0, 3)  # a half of the labels with no worker
    with pytest.raises(PartitionError):
        partition_dataset(labels, 2, "nonsense", 0, 3)
    # a half whose labels never occur leaves its workers empty
    with pytest.raises(EmptyShardError):
        partition_dataset(np.zeros(5, dtype=int), 2, "label_split", 0, 3)


def test_evaluate_perfect_and_uniform():
    ds = synthetic_pool(60, 5, 3, seed=11, separation=8.0)
    # hand-built nearest-mean discriminant: with clusters this far apart it
    # classifies everything correctly
    params = np.zeros((6, 3))
    means = np.stack([features(ds)[ds.labels == c].mean(axis=0) for c in range(3)])
    params[:5, :] = (10.0 * means).T
    params[5, :] = -5.0 * (means**2).sum(axis=1)
    accuracy, loss = evaluate(params.reshape(-1), ds)
    assert accuracy == 1.0
    assert loss < 0.1
    ds = small_dataset(seed=11, n=60, f=5, c=3)
    # zero params: every class ties, argmax picks class 0
    accuracy0, loss0 = evaluate(np.zeros(18), ds)
    assert accuracy0 == pytest.approx(np.mean(ds.labels == 0))
    assert loss0 == pytest.approx(math.log(3), rel=1e-12)


# A model that fits every row to within rounding has a loss of 0.0, not -0.0.
def test_a_perfect_fits_loss_is_positive_zero():
    ds = LocalDataset(np.array([[1.0], [-1.0]]), np.array([0, 1]))
    accuracy, loss = evaluate(np.array([1000.0, -1000.0, 0.0, 0.0]), ds)
    assert (accuracy, loss, math.copysign(1.0, loss)) == (1.0, 0.0, 1.0)


def test_evaluate_matches_naive_argmax():
    rng = np.random.default_rng(17)
    ds = small_dataset(seed=13, n=50, f=4, c=4)
    params = rng.normal(size=model_dimension(4, 4))
    w = params.reshape(5, 4)
    correct = 0
    for x, y in zip(features(ds), ds.labels):
        scores = np.append(x, 1.0) @ w
        best = 0
        for c in range(1, 4):
            if scores[c] > scores[best]:
                best = c
        correct += best == y
    accuracy, _ = evaluate(params, ds)
    assert accuracy == pytest.approx(correct / 50)


def test_synthetic_pool_properties():
    a = synthetic_pool(100, 6, 4, seed=3)
    b = synthetic_pool(100, 6, 4, seed=3)
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=4)
    np.testing.assert_array_equal(counts, [25, 25, 25, 25])
    # 103 samples over 4 classes: remainder goes to the lowest class indices
    c = synthetic_pool(103, 6, 4, seed=3)
    np.testing.assert_array_equal(np.bincount(c.labels, minlength=4), [26, 26, 26, 25])
    with pytest.raises(ValueError):
        synthetic_pool(3, 6, 4, seed=3)


# Byte noise is bounded: a level of 0..255 less 127.5, over the levels' standard
# deviation, so every row lies within 127.5 / sd of its class mean, and the
# class means come from means_seed alone. The pool stores the levels, and each
# class mean less 127.5 / sd as its class's shift, in float64.
def test_synthetic_pool_shared_means_differ_in_draws():
    train = synthetic_pool(200, 5, 3, seed=1, means_seed=99)
    test = synthetic_pool(200, 5, 3, seed=2, means_seed=99)
    assert not np.array_equal(train.levels, test.levels)
    means = np.random.default_rng(99).normal(size=(3, 5)) * (4.0 / np.sqrt(5))
    sd = math.sqrt((256**2 - 1) / 12)
    for pool in (train, test):
        assert pool.levels.dtype == np.uint8 and pool.scale == 1 / sd
        np.testing.assert_array_equal(pool.shifts, means - 127.5 / sd)
        rows = (pool.levels - 127.5) / sd + means[pool.labels]
        np.testing.assert_allclose(features(pool), rows, rtol=0, atol=1e-14)
        assert np.all(np.abs(features(pool) - means[pool.labels]) <= 127.5 / sd + 1e-14)


# Well-separated clusters are easy: 50 plain GD steps reach 95% train accuracy
def test_separable_pool_trains_quickly():
    pool = synthetic_pool(300, 10, 4, seed=20, separation=5.0)
    cfg = LearnerConfig(learning_rate=0.5, local_iterations=50)
    trained = local_gd(init_params(10, 4), pool, cfg)
    accuracy, _ = evaluate(trained, pool)
    assert accuracy >= 0.95


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    pool = load_idx(ip, lp, 7, 12, 10)
    assert pool.num_samples == 7
    assert pool.num_features == 12
    np.testing.assert_array_equal(pool.labels, labels)
    np.testing.assert_array_equal(pool.levels, images.reshape(7, 12))
    assert pool.levels.dtype == np.uint8 and pool.shifts is None
    np.testing.assert_allclose(features(pool), images.reshape(7, 12) / 255.0, rtol=1e-15)
    assert features(pool).max() <= 1.0


def test_load_idx_rejects_bad_magic(tmp_path):
    import struct as _struct

    ip = tmp_path / "img"
    lp = tmp_path / "lab"
    ip.write_bytes(_struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
    lp.write_bytes(_struct.pack(">II", 0x00000801, 1) + bytes(1))
    with pytest.raises(DataFormatError):
        load_idx(str(ip), str(lp), 1, 4, 1)


def test_load_idx_rejects_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    # truncate one label
    raw = Path(lp).read_bytes()
    Path(lp).write_bytes(raw[:-1])
    with pytest.raises(DataFormatError):
        load_idx(ip, lp, 3, 4, 1)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnerConfig(learning_rate=0.1, local_iterations=0)
    with pytest.raises(ValueError):
        LearnerConfig(learning_rate=0.1, compute_time_factor=0.0)
