"""Local training, dataset handling, and weighted model aggregation.

The model is multinomial logistic regression with a bias term. A parameter
vector of length (num_features + 1) * num_classes is interpreted as a dense
matrix mapping bias-augmented feature rows to class scores. Training is
full-batch gradient descent on the mean cross-entropy of the local shard.

A dataset holds its rows bias-augmented: one C-contiguous ``(n, F + 1)``
block whose last column is 1, the block the model multiplies, made once when
the dataset is. A pool's shards are row slices of one shard-ordered block: a
synthetic pool is drawn straight into that order, a few rows at a time, and a
loaded pool is gathered into it once. The blocks are read-only, so a write to
one shard cannot reach another.

Aggregation follows sample-count weighting: a worker's contribution is its
parameter vector scaled by its shard size, partial sums combine by addition,
and the final division by the total sample count happens once at the server.
Each sum folds into its own fresh array, in place, which rounds as an
out-of-place fold does. Every model made here, initial, trained or
aggregated, comes back read-only, so it can be shared instead of copied.
Everything here is float64; the 32-bit wire size is purely a transfer-cost
model and never truncates the math.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

BITS_PER_FEATURE = 8  # modeled sensor encoding, used only for data-volume costs
# rows of a synthetic pool's noise drawn at a time; a chunked draw equals one
# draw bit for bit. A scenario's two pools are drawn at once, on two threads,
# so a chunk is kept small in memory, yet large enough that the loop is free.
_DRAW_ROWS = 64


class DataFormatError(ValueError):
    pass


class PartitionError(ValueError):
    pass


class NumericDivergenceError(ArithmeticError):
    pass


class LocalDataset:
    """One worker's shard: float64 feature rows and integer class labels.

    The rows are held in ``augmented``, an ``(n, F + 1)`` block whose last
    column is 1; ``features`` is its ``[:, :-1]`` view. Both arrays are
    read-only.
    """

    __slots__ = ("augmented", "labels")

    def __init__(self, features, labels):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {features.shape}")
        labels = np.array(labels, dtype=np.int64)
        if labels.shape != (features.shape[0],):
            raise DataFormatError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows"
            )
        augmented = np.empty((features.shape[0], features.shape[1] + 1))
        augmented[:, :-1] = features
        augmented[:, -1] = 1.0
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


def _shards(augmented: np.ndarray, labels: np.ndarray, sizes: list[int]) -> list[LocalDataset]:
    """Datasets over consecutive row slices of one block, ``sizes[i]`` rows in
    the i-th; the block and its labels become read-only."""
    augmented.flags.writeable = labels.flags.writeable = False
    bounds = itertools.accumulate(sizes, initial=0)
    return [
        LocalDataset._over(augmented[start:stop], labels[start:stop])
        for start, stop in itertools.pairwise(bounds)
    ]


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
        if self.cycles_per_sample <= 0 or self.cpu_hz <= 0:
            raise ValueError("cycles_per_sample and cpu_hz must be positive")
        if self.compute_time_factor <= 0:
            raise ValueError(f"compute_time_factor must be positive, got {self.compute_time_factor}")


def _read_only(params: np.ndarray) -> np.ndarray:
    """``params``, a model made here, with writes to it turned off."""
    params.flags.writeable = False
    return params


def model_dimension(num_features: int, num_classes: int) -> int:
    return (num_features + 1) * num_classes


def init_params(num_features: int, num_classes: int, seed: int | None = None) -> np.ndarray:
    """Zero parameters, or a small seeded Gaussian draw when a seed is given."""
    dim = model_dimension(num_features, num_classes)
    if seed is None:
        return _read_only(np.zeros(dim, dtype=np.float64))
    rng = np.random.default_rng(seed)
    return _read_only(rng.normal(scale=0.01, size=dim))


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


def _scores(params: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Class scores of every row, one column per class."""
    return dataset.augmented @ _unpack(params, dataset.num_features)


def _cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    log_probs = _log_softmax(scores)
    if np.any(labels < 0) or np.any(labels >= scores.shape[1]):
        raise ValueError("labels outside the class range of the parameter vector")
    return float(-log_probs[np.arange(labels.size), labels].mean())


def local_loss(params: np.ndarray, dataset: LocalDataset) -> float:
    """Mean cross-entropy of the shard under the given parameters."""
    return _cross_entropy(_scores(params, dataset), dataset.labels)


def local_gradient(params: np.ndarray, dataset: LocalDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy, flattened to match ``params``."""
    weights = _unpack(params, dataset.num_features)
    aug = dataset.augmented
    probs = np.exp(_log_softmax(aug @ weights))
    probs[np.arange(dataset.num_samples), dataset.labels] -= 1.0
    return (aug.T @ probs / dataset.num_samples).reshape(-1)


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
    """Sample-weighted own contribution plus already-weighted incoming sums."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    out = num_samples * np.asarray(params, dtype=np.float64)
    for part in incoming:
        part = np.asarray(part, dtype=np.float64)
        if part.shape != out.shape:
            raise ValueError(f"partial of shape {part.shape} does not match {out.shape}")
        out += part
    return _read_only(out)


def global_aggregate(partials: list[np.ndarray], total_samples: int) -> np.ndarray:
    """Sum of weighted partials divided by the total sample count."""
    if total_samples < 1:
        raise ValueError(f"total_samples must be >= 1, got {total_samples}")
    if not partials:
        raise ValueError("no partials to aggregate")
    acc = np.zeros_like(np.asarray(partials[0], dtype=np.float64))
    for part in partials:
        part = np.asarray(part, dtype=np.float64)
        if part.shape != acc.shape:
            raise ValueError(f"partial of shape {part.shape} does not match {acc.shape}")
        acc += part
    acc /= total_samples
    return _read_only(acc)


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
    :func:`synthetic_pool` draws a pool straight into.

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
    order = np.concatenate(assignments)
    return _shards(pool.augmented[order], labels[order], [rows.size for rows in assignments])


def synthetic_pool(
    num_samples: int,
    num_features: int,
    num_classes: int,
    seed: int,
    separation: float = 4.0,
    means_seed: int | None = None,
    shard: Callable[[np.ndarray], list[np.ndarray]] | None = None,
) -> LocalDataset | list[LocalDataset]:
    """Gaussian class-conditional pool with an exactly balanced label histogram.

    Class means are drawn once from ``means_seed`` (defaulting to ``seed``) so a
    train pool and a test pool sampled with different seeds share the same
    class geometry. Per-feature noise is unit Gaussian; ``separation`` scales
    the expected distance between class means.

    ``shard``, when given, maps the pool's labels to each shard's rows of the
    pool, as :func:`partition_dataset` does, and the shards come back instead
    of the pool, each a row slice of one block. Either way the noise is drawn
    a chunk of rows at a time, in pool order, and each row is written straight
    into its place in the block, so the rows are those of one whole draw.
    The draw reads no state but its own generators and runs no BLAS, so two
    pools can be drawn on two threads at once and come out as drawn in turn.
    """
    return _synthetic_pool(
        num_samples, num_features, num_classes, seed, separation, means_seed, shard
    )


def _synthetic_pool(num_samples, num_features, num_classes, seed, separation, means_seed, shard):
    """:func:`synthetic_pool`, under the private name a worker thread calls."""
    if num_samples < num_classes:
        raise ValueError(f"need at least one sample per class, got {num_samples}")
    means_rng = np.random.default_rng(seed if means_seed is None else means_seed)
    means = means_rng.normal(size=(num_classes, num_features))
    means *= separation / np.sqrt(num_features)
    rng = np.random.default_rng(seed)
    base, extra = divmod(num_samples, num_classes)
    labels = np.concatenate(
        [np.full(base + (1 if c < extra else 0), c, dtype=np.int64) for c in range(num_classes)]
    )
    labels = labels[rng.permutation(num_samples)]
    rows = [np.arange(num_samples)] if shard is None else shard(labels)
    order = np.concatenate(rows)
    place = np.empty(num_samples, dtype=np.intp)  # where each pool row goes in the block
    place[order] = np.arange(num_samples)
    block = np.empty((num_samples, num_features + 1))
    block[:, -1] = 1.0
    for start in range(0, num_samples, _DRAW_ROWS):
        stop = min(start + _DRAW_ROWS, num_samples)
        chunk = rng.normal(size=(stop - start, num_features))
        chunk += means[labels[start:stop]]
        block[place[start:stop], :-1] = chunk
    shards = _shards(block, labels[order], [r.size for r in rows])
    return shards[0] if shard is None else shards


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def load_idx(images_path: str, labels_path: str) -> LocalDataset:
    """Load an IDX image/label file pair into a pool.

    Big-endian headers; image bytes are flattened row-major and scaled to
    [0, 1].
    """
    return _load_idx(images_path, labels_path)


def _load_idx(images_path: str, labels_path: str) -> LocalDataset:
    """:func:`load_idx`, under the private name a worker thread calls."""
    with open(images_path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{images_path}: truncated header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != _IDX_IMAGES_MAGIC:
            raise DataFormatError(f"{images_path}: bad magic 0x{magic:08x}")
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    if raw.size != count * rows * cols:
        raise DataFormatError(
            f"{images_path}: expected {count * rows * cols} pixels, found {raw.size}"
        )
    with open(labels_path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{labels_path}: truncated header")
        magic, label_count = struct.unpack(">II", header)
        if magic != _IDX_LABELS_MAGIC:
            raise DataFormatError(f"{labels_path}: bad magic 0x{magic:08x}")
        labels = np.frombuffer(f.read(), dtype=np.uint8)
    if labels.size != label_count:
        raise DataFormatError(f"{labels_path}: expected {label_count} labels, found {labels.size}")
    if count != label_count:
        raise DataFormatError(
            f"image count {count} does not match label count {label_count}"
        )
    features = raw.reshape(count, rows * cols).astype(np.float64) / 255.0
    return LocalDataset(features, labels.astype(np.int64))
