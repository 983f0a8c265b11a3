"""Local training, dataset handling, and weighted model aggregation.

The model is multinomial logistic regression with a bias term. A parameter
vector of length (num_features + 1) * num_classes is interpreted as a dense
matrix mapping bias-augmented feature rows to class scores. Training is
full-batch gradient descent on the mean cross-entropy of the local shard.

A dataset holds its rows bias-augmented: one read-only C-contiguous float32
``(n, F + 1)`` block whose last column is 1, the block the model multiplies.
A pool's shards are row slices of one such block, filled in block order a few
rows at a time, from a synthetic draw of byte noise or an idx file's rows:
each chunk is computed in float64, then rounded once to float32.

Aggregation follows sample-count weighting: a worker's contribution is its
parameter vector scaled by its shard size, partial sums combine by addition,
and the final division by the total sample count happens once at the server.
Each sum folds into its own fresh array, in place, which rounds as an
out-of-place fold does. Every model made here, initial, trained or
aggregated, comes back read-only, so it can be shared instead of copied.
Models, sums and products are float64: a product widens its float32 rows to
float64 first, which is exact. The 32-bit wire size is purely a transfer-cost
model and never truncates the math.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

BITS_PER_FEATURE = 8  # modeled sensor encoding, used only for data-volume costs
# rows of a block filled at a time, drawn or read into a float64 chunk buffer
# and rounded once into the float32 block; a chunked draw equals one draw bit
# for bit. On a 2-vCPU host a desk data build in a fresh interpreter took
# 54-82 ms and peaked at 60.8 MB with 64 rows, against 69-100 ms and 66.4 MB
# with 512, over five runs of each.
_DRAW_ROWS = 64
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


class NumericDivergenceError(ArithmeticError):
    pass


class LocalDataset:
    """One worker's shard: float32 feature rows and integer class labels.

    The rows are held in ``augmented``, an ``(n, F + 1)`` block whose last
    column is 1; ``features`` is its ``[:, :-1]`` view. Both arrays are
    read-only.
    """

    __slots__ = ("augmented", "labels")

    def __init__(self, features, labels):
        try:
            with np.errstate(over="raise"):
                features = np.asarray(features, dtype=np.float32)
        except FloatingPointError:
            raise DataFormatError("features outside the float32 range") from None
        if features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {features.shape}")
        labels = np.array(labels, dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise DataFormatError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        augmented = np.hstack([features, np.ones((features.shape[0], 1), np.float32)])
        augmented.flags.writeable = labels.flags.writeable = False
        self.augmented, self.labels = augmented, labels

    @classmethod
    def _over(cls, augmented: np.ndarray, labels: np.ndarray) -> LocalDataset:
        """A dataset over the arrays as they are, with no copy and no check."""
        dataset = cls.__new__(cls)
        dataset.augmented, dataset.labels = augmented, labels
        return dataset

    @property
    def features(self) -> np.ndarray:
        return self.augmented[:, :-1]

    @property
    def num_samples(self) -> int:
        return self.augmented.shape[0]

    @property
    def num_features(self) -> int:
        return self.augmented.shape[1] - 1

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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.local_iterations < 1:
            raise ValueError(f"local_iterations must be >= 1, got {self.local_iterations}")
        for name in ("cycles_per_sample", "cpu_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.compute_time_factor <= 0:
            raise ValueError(f"compute_time_factor must be positive, got {self.compute_time_factor}")


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


class _Buffers(threading.local):
    wide = np.empty(0)  # the float64 buffer that _widened reuses, one per thread


_buffers = _Buffers()


def _widened(rows: np.ndarray) -> np.ndarray:
    """``rows`` widened exactly to float64, in a buffer that the thread's next
    call overwrites."""
    if _buffers.wide.size < rows.size:
        _buffers.wide = np.empty(rows.size)
    wide = _buffers.wide[: rows.size].reshape(rows.shape)
    np.copyto(wide, rows)
    return wide


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in float64, filled a block of rows at a time, each block at
    most ``_BLOCK_MADDS`` multiply-adds (one row, when a row alone is more).
    A float32 ``a`` is widened a block at a time (through :func:`_widened`)."""
    out = np.empty((a.shape[0], b.shape[1]))
    rows = max(1, _BLOCK_MADDS // max(1, a.shape[1] * b.shape[1]))
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        if block.dtype != np.float64:
            block = _widened(block)
        np.matmul(block, b, out=out[start : start + rows])
    return out


def _scores(params: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Class scores of every row, one column per class."""
    return _product(dataset.augmented, _unpack(params, dataset.num_features))


def _cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    log_probs = _log_softmax(scores)
    if np.any(labels < 0) or np.any(labels >= scores.shape[1]):
        raise ValueError("labels outside the class range of the parameter vector")
    return float(-log_probs[np.arange(labels.size), labels].mean())


def local_gradient(params: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy, flattened to match ``params``."""
    weights = _unpack(params, dataset.num_features)
    aug = _widened(dataset.augmented)  # once, for both products
    probs = np.exp(_log_softmax(_product(aug, weights)))
    probs[np.arange(dataset.num_samples), dataset.labels] -= 1.0
    return (_product(aug.T, probs) / dataset.num_samples).reshape(-1)


def local_gd(params: np.ndarray, dataset: LocalDataset, config: LearnerConfig) -> np.ndarray:
    """``local_iterations`` full-batch gradient steps from ``params``."""
    current = np.asarray(params, dtype=np.float64).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_iterations):
            current -= config.learning_rate * local_gradient(current, dataset)
            if not np.all(np.isfinite(current)):
                raise NumericDivergenceError("parameters left the finite range during descent")
    return _read_only(current)


def compute_time(dataset: LocalDataset, config: LearnerConfig) -> float:
    """Seconds of processor time to train on the shard once.

    cycles-per-sample-bit times the shard's modeled bit volume over the clock
    rate, charged once per computation phase regardless of the local iteration
    count; ``compute_time_factor`` rescales for reduced-data presets.
    """
    return config.cycles_per_sample * dataset.size_bits / config.cpu_hz * config.compute_time_factor


def partial_aggregate(
    params: np.ndarray, num_samples: int, incoming: list[np.ndarray]
) -> np.ndarray:
    """Sample-weighted own contribution plus already-weighted incoming sums;
    NumericDivergenceError if an entry is not finite."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = num_samples * np.asarray(params, dtype=np.float64)
        for part in incoming:
            part = np.asarray(part, dtype=np.float64)
            if part.shape != out.shape:
                raise ValueError(f"partial of shape {part.shape} does not match {out.shape}")
            out += part
    return _finite(out, "partial sum")


def global_aggregate(partials: list[np.ndarray], total_samples: int) -> np.ndarray:
    """Sum of weighted partials divided by the total sample count;
    NumericDivergenceError if an entry is not finite."""
    if total_samples < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    if not partials:
        raise ValueError("no partials to aggregate")
    acc = np.zeros_like(np.asarray(partials[0], dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        for part in partials:
            part = np.asarray(part, dtype=np.float64)
            if part.shape != acc.shape:
                raise ValueError(f"partial of shape {part.shape} does not match {acc.shape}")
            acc += part
    acc /= total_samples
    return _finite(acc, "global model")


def evaluate(params: np.ndarray, dataset: LocalDataset) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on the given set.

    Predictions take the highest-scoring class; score ties resolve to the
    lowest class index.
    """
    scores = _scores(params, dataset)
    accuracy = float(np.mean(np.argmax(scores, axis=1) == dataset.labels))
    return accuracy, _cross_entropy(scores, dataset.labels)


def partition_dataset(
    pool: LocalDataset | np.ndarray,
    num_workers: int,
    scheme: str = "iid",
    seed: int = 0,
    label_groups: list[set[int]] | None = None,
) -> list[LocalDataset] | list[np.ndarray]:
    """Split a pool into per-worker shards.

    ``iid``: seeded shuffle of the whole pool, dealt round-robin. ``label_split``:
    workers are divided into len(label_groups) contiguous blocks; each block
    receives only the samples whose labels fall in its group, shuffled and dealt
    round-robin within the block. Which rows go where depends only on the
    labels, the scheme and the seed.

    ``pool`` is a dataset or its labels alone. A dataset's rows are gathered
    once, in shard order, into one block of which each shard is a row slice.
    Labels alone give each shard's rows of the pool instead, the order that
    :func:`synthetic_pool` and :func:`load_idx` fill a pool straight into.

    Raises:
        PartitionError: if any worker would end up with zero samples.
    """
    labels = pool.labels if isinstance(pool, LocalDataset) else np.asarray(pool)
    if num_workers < 1:
        raise PartitionError(f"num_workers must be >= 1, got {num_workers}")
    rng = np.random.default_rng(seed)
    if scheme == "iid":
        order = rng.permutation(labels.size)
        assignments = [order[w::num_workers] for w in range(num_workers)]
    elif scheme == "label_split":
        if not label_groups:
            raise PartitionError("label_split requires label_groups")
        worker_blocks = np.array_split(np.arange(num_workers), len(label_groups))
        assignments = []
        for group, block in zip(label_groups, worker_blocks):
            if block.size == 0:
                raise PartitionError(
                    f"more label groups ({len(label_groups)}) than workers ({num_workers})"
                )
            members = np.nonzero(np.isin(labels, sorted(group)))[0]
            order = members[rng.permutation(members.size)]
            assignments += [order[j :: block.size] for j in range(block.size)]
    else:
        raise PartitionError(f"unknown partition scheme: {scheme!r}")
    for worker, rows in enumerate(assignments):
        if rows.size == 0:
            raise PartitionError(f"worker {worker} would receive zero samples")
    if not isinstance(pool, LocalDataset):
        return assignments
    return _fill_pool(labels, pool.num_features, lambda _: assignments,
                      lambda rows, out: np.copyto(out, pool.features[rows]))


def _fill_pool(labels: np.ndarray, num_features: int, shard: Shard | None,
               fill: Callable[..., object]) -> LocalDataset | list[LocalDataset]:
    """The pool with these labels, or its shards, read-only row slices of one
    block, when ``shard`` is given. The block is filled in block order,
    ``_DRAW_ROWS`` rows at a time: ``fill(pool_rows, out)`` writes the features
    of the pool's rows ``pool_rows`` into ``out``, a float64 chunk buffer that
    is then rounded once into those rows of the float32 block."""
    rows = [np.arange(labels.size)] if shard is None else shard(labels)
    order = np.concatenate(rows)
    block = np.empty((labels.size, num_features + 1), np.float32)
    block[:, -1] = 1.0
    chunk = np.empty((_DRAW_ROWS, num_features))
    for start in range(0, labels.size, _DRAW_ROWS):
        pool_rows = order[start : start + _DRAW_ROWS]
        out = chunk[: pool_rows.size]
        fill(pool_rows, out)
        block[start : start + pool_rows.size, :-1] = out
    labels = labels[order]
    block.flags.writeable = labels.flags.writeable = False
    bounds = itertools.pairwise(itertools.accumulate([r.size for r in rows], initial=0))
    shards = [LocalDataset._over(block[start:stop], labels[start:stop]) for start, stop in bounds]
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
    expected distance. Per-feature noise is a byte level uniform on 0..255, as
    ``(level - 127.5) / _LEVEL_SD``: mean 0 and variance 1.

    ``shard``, when given, maps the pool's labels to each shard's rows of the
    pool, as :func:`partition_dataset` does, and the shards come back instead
    of the pool. The noise is drawn after the labels, in block order, each row
    whole 32-bit words (``num_features`` rounded up to a multiple of 4 bytes),
    so a chunked draw equals one whole draw.
    """
    if num_samples < num_classes:
        raise ValueError(f"need at least one sample per class, got {num_samples}")
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    means = means_rng.normal(size=(num_classes, num_features))
    means *= separation / np.sqrt(num_features)
    rng = np.random.default_rng(seed)
    base, extra = divmod(num_samples, num_classes)
    labels = np.repeat(np.arange(num_classes), [base + (c < extra) for c in range(num_classes)])
    labels = labels[rng.permutation(num_samples)]
    width = -(-num_features // 4) * 4  # bytes a row draws: whole 32-bit words

    def draw(pool_rows, out):
        levels = rng.integers(0, 256, size=(pool_rows.size, width), dtype=np.uint8)
        np.subtract(levels[:, :num_features], 127.5, out=out)
        out /= _LEVEL_SD
        out += means[labels[pool_rows]]

    return _fill_pool(labels, num_features, shard, draw)


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

    Big-endian headers; image bytes are flattened row-major and scaled to
    [0, 1]. Only the rows used are read, once both files' headers and sizes
    are checked; they must hold ``num_features`` pixels and labels below
    ``num_classes``. ``shard`` is as in :func:`synthetic_pool`.
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
    return _fill_pool(labels, num_features, shard,
                      lambda rows, out: np.divide(pixels[rows], 255.0, out=out))
