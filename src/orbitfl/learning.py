"""Local training, dataset handling, and weighted model aggregation.

The model is multinomial logistic regression with a bias term. A parameter
vector of length (num_features + 1) * num_classes is interpreted as a dense
matrix: a row of class weights per feature, then a row of class biases.
Training is full-batch gradient descent on the mean cross-entropy of the local
shard.

A dataset stores its rows as levels under an affine map: row i's features are
``scale * levels[i] + shifts[labels[i]]``, with one shift row per class. A
synthetic pool stores the ``uint8`` levels as drawn, and its shifts are the
class means, each less ``127.5 * scale``. An idx pool stores the pixel bytes as
read, with scale 1/255 and no shifts. Rows given as floats are stored as
float64, with scale 1 and no shifts. A pool's shards are read-only row slices
of one C-contiguous ``(n, F)`` block, in shard order.

The products fold the map in, so no row is ever held in float. With ``L`` the
levels, ``W`` the weights and ``K`` the shifts, the scores are
``scale * (L W) + bias + (K W)[labels]``. With ``G`` the scores' gradient,
the weight gradient is ``scale * (Lᵀ G) + Kᵀ S``, where ``S`` sums the rows
of ``G`` per class, and the bias gradient is ``colsum(G)``. The shift term
rebuilds each row's stored value from its class mean, as the draw made it. It
gives the model nothing that the row's features do not hold, so it does not
leak labels into evaluation. Only the two ``L`` products are large, and each
widens its levels to float64 exactly.

Aggregation follows sample-count weighting: a worker's contribution is its
parameter vector scaled by its shard size, partial sums combine by addition,
and the final division by the total sample count happens once at the server.
Each sum folds into its own fresh array, in place, which rounds as an
out-of-place fold does. Every model made here, initial, trained or
aggregated, comes back read-only, so it can be shared instead of copied.
Models, sums and products are float64. The 32-bit wire size is purely a
transfer-cost model and never truncates the math.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

BITS_PER_FEATURE = 8  # modeled sensor encoding, used only for data-volume costs
_LEVEL_SD = math.sqrt((256**2 - 1) / 12)  # standard deviation of a level uniform on 0..255
# multiply-adds in one block of a model product. OpenBLAS runs a product of at
# most 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) multiply-adds on the
# calling thread, so a block's bits do not depend on the BLAS thread count.
_BLOCK_MADDS = 2**18
Shard = Callable[[np.ndarray], list[np.ndarray]]  # a pool's labels to each shard's rows


class DataFormatError(ValueError):
    pass


class PartitionError(ValueError):
    pass


class EmptyShardError(PartitionError):
    """A worker would receive no rows."""


class NumericDivergenceError(ArithmeticError):
    pass


class LocalDataset:
    """One worker's shard: feature rows, stored as levels, and integer labels.

    Row i's features are ``scale * levels[i] + shifts[labels[i]]``, with no
    shift when ``shifts`` is None. ``levels`` is an ``(n, F)`` block, ``uint8``
    for a synthetic or idx pool. Rows given here as floats are copied into a
    float64 block, with scale 1 and no shifts. Every array is read-only.
    """

    __slots__ = ("levels", "labels", "scale", "shifts")

    def __init__(self, features, labels):
        features = np.array(features, dtype=np.float64, order="C")
        if features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {features.shape}")
        labels = np.array(labels, dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise DataFormatError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        features.flags.writeable = labels.flags.writeable = False
        self.levels, self.labels = features, labels
        self.scale, self.shifts = 1.0, None

    @classmethod
    def _over(cls, levels: np.ndarray, labels: np.ndarray, scale: float,
              shifts: np.ndarray | None) -> LocalDataset:
        """A dataset over the arrays as they are, with no copy and no check."""
        dataset = cls.__new__(cls)
        dataset.levels, dataset.labels = levels, labels
        dataset.scale, dataset.shifts = scale, shifts
        return dataset

    @property
    def num_samples(self) -> int:
        return self.levels.shape[0]

    @property
    def num_features(self) -> int:
        return self.levels.shape[1]

    @property
    def size_bits(self) -> int:
        """Modeled raw size of the shard as it sits on the satellite."""
        return self.num_samples * self.num_features * BITS_PER_FEATURE


@dataclass(frozen=True)
class LearnerConfig:
    learning_rate: float
    local_iterations: int = 1
    cycles_per_sample: float = 1e3
    cpu_hz: float = 1e9
    compute_time_factor: float = 1.0

    def __post_init__(self):
        # in field order: the step count is at least 1, every other field positive
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "local_iterations":
                if value < 1:
                    raise ValueError(f"local_iterations must be >= 1, got {value}")
            elif value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value}")


def _read_only(params: np.ndarray) -> np.ndarray:
    """``params``, a model made here, with writes to it turned off."""
    params.flags.writeable = False
    return params


def _finite(params: np.ndarray, what: str) -> np.ndarray:
    """``params``, read-only, once every entry is checked finite."""
    if not np.all(np.isfinite(params)):
        raise NumericDivergenceError(f"{what} left the finite range")
    return _read_only(params)


def model_dimension(num_features: int, num_classes: int) -> int:
    return (num_features + 1) * num_classes


def init_params(num_features: int, num_classes: int) -> np.ndarray:
    """Zero parameters, the model every run starts from."""
    return _read_only(np.zeros(model_dimension(num_features, num_classes), dtype=np.float64))


def _unpack(params: np.ndarray, num_features: int) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size % (num_features + 1) != 0:
        raise ValueError(
            f"parameter vector of size {params.size} does not match {num_features} features"
        )
    return params.reshape(num_features + 1, -1)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in float64, filled a block of rows at a time, each block at
    most ``_BLOCK_MADDS`` multiply-adds (one row, when a row alone is more).
    Any other ``a`` is widened exactly to float64 a block at a time."""
    out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, _BLOCK_MADDS // max(1, a.shape[1] * b.shape[1]))
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        if block.dtype != np.float64:
            block = block.astype(np.float64)
        np.matmul(block, b, out=out[start : start + rows])
    return out


def _scores(rows: np.ndarray, weights: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Class scores of every row of ``dataset``, one column per class, with
    ``rows`` its levels or a float64 copy of them and ``weights`` the model."""
    scores = _product(rows, weights[:-1])
    scores *= dataset.scale
    scores += weights[-1]
    if dataset.shifts is not None:  # each row's class mean, less 127.5 levels
        scores += _product(dataset.shifts, weights[:-1])[dataset.labels]
    return scores


def _cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    log_probs = _log_softmax(scores)
    if np.any(labels < 0) or np.any(labels >= scores.shape[1]):
        raise ValueError("labels outside the class range of the parameter vector")
    # 0 - mean, not -mean, so that a perfect fit's loss is 0.0 and not -0.0
    return float(0.0 - log_probs[np.arange(labels.size), labels].mean())


def local_gradient(params: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy, flattened to match ``params``."""
    weights = _unpack(params, dataset.num_features)
    rows = dataset.levels.astype(np.float64)  # once, for both products
    probs = np.exp(_log_softmax(_scores(rows, weights, dataset)))
    probs[np.arange(dataset.num_samples), dataset.labels] -= 1.0
    grad = np.empty_like(weights)
    np.multiply(_product(rows.T, probs), dataset.scale, out=grad[:-1])
    grad[-1] = probs.sum(axis=0)
    if dataset.shifts is not None:
        sums = _class_sums(probs, dataset.labels, dataset.shifts.shape[0])
        grad[:-1] += _product(dataset.shifts.T, sums)
    grad /= dataset.num_samples
    return grad.reshape(-1)


def _class_sums(rows: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """``(num_classes, columns)``: row k sums the ``rows`` labelled k, in order."""
    cols = rows.shape[1]
    cells = (labels[:, np.newaxis] * cols + np.arange(cols)).ravel()
    return np.bincount(cells, rows.ravel(), num_classes * cols).reshape(num_classes, cols)


def local_gd(params: np.ndarray, dataset: LocalDataset, config: LearnerConfig) -> np.ndarray:
    """``local_iterations`` full-batch gradient steps from ``params``."""
    current = np.asarray(params, dtype=np.float64).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_iterations):
            current -= config.learning_rate * local_gradient(current, dataset)
            if not np.all(np.isfinite(current)):
                raise NumericDivergenceError("parameters left the finite range during descent")
    return _read_only(current)


def value_bound(config: LearnerConfig, epochs: int, num_classes: int, shards,
                test_set: LocalDataset) -> float:
    """Twice, for rounding, a bound on every value that ``epochs`` rounds of
    training the level ``shards`` from zero, summing them and evaluating on
    ``test_set`` reach (README, "Scenario files"), inf where it overflows: no
    parameter exceeds P = epochs * local_iterations * learning_rate * max(1, X),
    with X the largest feature magnitude, and the rest grow from P."""
    datasets = (*shards, test_set)
    top = max(np.iinfo(d.levels.dtype).max for d in datasets)
    x = max(d.scale * top + (0.0 if d.shifts is None else float(np.abs(d.shifts).max()))
            for d in datasets)
    p = epochs * config.local_iterations * config.learning_rate * max(1.0, x)
    features = test_set.num_features
    loss = test_set.num_samples * (2.0 * (features * x + 1.0) * p + math.log(num_classes))
    return 2.0 * max(top * features * p, loss, sum(d.num_samples for d in shards) * p)


def compute_time(dataset: LocalDataset, config: LearnerConfig) -> float:
    """Seconds of processor time to train on the shard once.

    cycles-per-sample-bit times the shard's modeled bit volume over the clock
    rate, charged once per computation phase regardless of the local iteration
    count; ``compute_time_factor`` rescales for reduced-data presets.
    """
    return config.cycles_per_sample * dataset.size_bits / config.cpu_hz * config.compute_time_factor


def _fold(out: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """``out``, a fresh float64 array, with each of ``parts`` added in turn, in
    place; a sum that overflows is left for the caller's finiteness check."""
    with np.errstate(over="ignore", invalid="ignore"):
        for part in parts:
            part = np.asarray(part, dtype=np.float64)
            if part.shape != out.shape:
                raise ValueError(f"partial of shape {part.shape} does not match {out.shape}")
            out += part
    return out


def partial_aggregate(
    params: np.ndarray, num_samples: int, incoming: list[np.ndarray]
) -> np.ndarray:
    """Sample-weighted own contribution plus already-weighted incoming sums;
    NumericDivergenceError if an entry is not finite."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    with np.errstate(over="ignore"):
        own = num_samples * np.asarray(params, dtype=np.float64)
    return _finite(_fold(own, incoming), "partial sum")


def global_aggregate(partials: list[np.ndarray], total_samples: int) -> np.ndarray:
    """Sum of weighted partials divided by the total sample count;
    NumericDivergenceError if an entry is not finite."""
    if total_samples < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    if not partials:
        raise ValueError("no partials to aggregate")
    acc = _fold(np.zeros_like(np.asarray(partials[0], dtype=np.float64)), partials)
    acc /= total_samples
    return _finite(acc, "global model")


def evaluate(params: np.ndarray, dataset: LocalDataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on the given set.

    Predictions take the highest-scoring class; score ties resolve to the
    lowest class index.
    """
    scores = _scores(dataset.levels, _unpack(params, dataset.num_features), dataset)
    accuracy = float(np.mean(np.argmax(scores, axis=1) == dataset.labels))
    return accuracy, _cross_entropy(scores, dataset.labels)


def partition_dataset(labels: np.ndarray, num_workers: int, scheme: str, seed: int,
                      num_classes: int) -> list[np.ndarray]:
    """Each worker's rows of a pool with these labels, drawn from ``num_classes``.

    ``iid``: seeded shuffle of the whole pool, dealt round-robin. ``label_split``:
    the workers are split into two contiguous blocks, as ``np.array_split``
    splits them; the first block receives only the rows labelled below
    ``num_classes // 2`` and the second only the rest, each shuffled and dealt
    round-robin within its block. Which rows go where depends only on the
    labels, the scheme and the seed. The rows come in the order that
    :func:`synthetic_pool` and :func:`load_idx` fill a pool's shards straight into.

    Raises:
        EmptyShardError: if any worker would end up with zero samples.
        PartitionError: on a worker count or scheme the split cannot take.
    """
    labels = np.asarray(labels)
    if num_workers < 1:
        raise PartitionError(f"num_workers must be >= 1, got {num_workers}")
    rng = np.random.default_rng(seed)
    if scheme == "iid":
        order = rng.permutation(labels.size)
        assignments = [order[w::num_workers] for w in range(num_workers)]
    elif scheme == "label_split":
        if num_workers < 2:
            raise PartitionError(f"label_split needs at least 2 workers, got {num_workers}")
        lower = labels < num_classes // 2
        assignments = []
        for members, block in zip((np.flatnonzero(lower), np.flatnonzero(~lower)),
                                  np.array_split(np.arange(num_workers), 2)):
            order = members[rng.permutation(members.size)]
            assignments += [order[j :: block.size] for j in range(block.size)]
    else:
        raise PartitionError(f"unknown partition scheme: {scheme!r}")
    for worker, rows in enumerate(assignments):
        if rows.size == 0:
            raise EmptyShardError(f"worker {worker} would receive zero samples")
    return assignments


def _pool(labels: np.ndarray, shard: Shard | None, levels: Callable[[np.ndarray], np.ndarray],
          scale: float, shifts: np.ndarray | None = None) -> LocalDataset | list[LocalDataset]:
    """The pool with these labels, or its shards when ``shard`` is given:
    read-only row slices of one block, ``levels(order)``, whose row k holds
    the levels of the pool's row ``order[k]``, under ``scale`` and ``shifts``."""
    rows = [np.arange(labels.size)] if shard is None else shard(labels)
    order = np.concatenate(rows)
    block, labels = levels(order), labels[order]
    for array in (block, labels) if shifts is None else (block, labels, shifts):
        array.flags.writeable = False
    bounds = itertools.pairwise(itertools.accumulate([r.size for r in rows], initial=0))
    shards = [LocalDataset._over(block[start:stop], labels[start:stop], scale, shifts)
              for start, stop in bounds]
    return shards[0] if shard is None else shards


def synthetic_pool(
    num_samples: int,
    num_features: int,
    num_classes: int,
    seed: int,
    separation: float = 4.0,
    means_seed: int | None = None,
    shard: Shard | None = None,
) -> LocalDataset | list[LocalDataset]:
    """Class-conditional pool with an exactly balanced label histogram.

    Class means are drawn once from ``means_seed`` (defaulting to ``seed``), so
    pools drawn with different seeds share them; ``separation`` scales their
    expected distance, and must keep them within the float32 range. Per-feature
    noise is a byte level uniform on 0..255, as ``(level - 127.5) / _LEVEL_SD``:
    mean 0 and variance 1. The pool stores the levels, one byte each, and each
    class mean less ``127.5 / _LEVEL_SD`` as the class's shift.

    ``shard``, when given, maps the pool's labels to each shard's rows of the
    pool, as :func:`partition_dataset` does, and the shards come back instead
    of the pool. The levels are drawn after the labels, in block order, in one
    draw of whole little-endian 32-bit words a row, read as bytes
    (``num_features`` rounded up to a multiple of 4 bytes), of which each row
    keeps the first ``num_features``.
    """
    if num_samples < num_classes:
        raise ValueError(f"need at least one sample per class, got {num_samples}")
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    means = means_rng.normal(size=(num_classes, num_features))
    with np.errstate(over="ignore"):
        means *= separation / np.sqrt(num_features)
    if not np.all(np.abs(means) <= np.finfo(np.float32).max):
        raise ValueError(f"separation must keep the class means within the float32 range, "
                         f"got {separation}")
    rng = np.random.default_rng(seed)
    base, extra = divmod(num_samples, num_classes)
    labels = np.repeat(np.arange(num_classes), [base + (c < extra) for c in range(num_classes)])
    labels = labels[rng.permutation(num_samples)]
    width = -(-num_features // 4) * 4  # bytes a row draws: whole 32-bit words

    def draw(order):
        # little-endian words, viewed as bytes, are the bytes a uint8 draw takes
        words = rng.integers(0, 2**32, size=(order.size, width // 4), dtype=np.uint32)
        words = words.astype("<u4", copy=False)
        words.flags.writeable = False  # the block's owner when every byte is kept
        return np.ascontiguousarray(words.view(np.uint8)[:, :num_features])

    return _pool(labels, shard, draw, 1.0 / _LEVEL_SD, means - 127.5 / _LEVEL_SD)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _idx_header(path: str, magic: int, dims: int, unit: str) -> list[int]:
    """The ``dims`` sizes in the header of the idx file at ``path``, checked against
    its magic number; the file must hold their product in byte ``unit``s after it."""
    with open(path, "rb") as f:
        header = f.read(4 + 4 * dims)
        if len(header) < 4 + 4 * dims:
            raise DataFormatError(f"{path}: truncated header")
        found, *sizes = struct.unpack(f">{1 + dims}I", header)
        if found != magic:
            raise DataFormatError(f"{path}: bad magic 0x{found:08x}")
        size = os.fstat(f.fileno()).st_size - len(header)
    if size != math.prod(sizes):
        raise DataFormatError(f"{path}: expected {math.prod(sizes)} {unit}, found {size}")
    return sizes


def load_idx(images_path: str, labels_path: str, num_samples: int, num_features: int,
             num_classes: int, shard: Shard | None = None) -> LocalDataset | list[LocalDataset]:
    """A pool of the first ``num_samples`` rows of an IDX image/label file pair.

    Big-endian headers; image bytes are flattened row-major and stored as
    they are, levels that the products scale to [0, 1]. Only the rows used are
    read, once both files' headers and sizes are checked; they must hold
    ``num_features`` pixels and labels below ``num_classes``. ``shard`` is as
    in :func:`synthetic_pool`.
    """
    count, rows, cols = _idx_header(images_path, _IDX_IMAGES_MAGIC, 3, "pixels")
    (label_count,) = _idx_header(labels_path, _IDX_LABELS_MAGIC, 1, "labels")
    if count != label_count:
        raise DataFormatError(f"image count {count} does not match label count {label_count}")
    if count < num_samples:
        raise DataFormatError(f"{images_path}: {count} images, but the run uses {num_samples}")
    if rows * cols != num_features:
        raise DataFormatError(
            f"{images_path}: {rows * cols} features per image, but num_features is {num_features}"
        )
    labels = np.fromfile(labels_path, np.uint8, num_samples, offset=8).astype(np.int64)
    if (top := labels.max(initial=0)) >= num_classes:
        raise DataFormatError(f"{labels_path}: label {top}, but num_classes is {num_classes}")
    pixels = np.fromfile(images_path, np.uint8, num_samples * num_features, offset=16)
    pixels = pixels.reshape(num_samples, num_features)
    return _pool(labels, shard, lambda order: pixels[order], 1.0 / 255.0)
