"""Fixed reference work that tracks how fast the host runs at the moment.

On a shared host the same run can take 40 % longer a minute later, because
other tenants load the cores, caches and memory. ``run.py`` divides each run's
timings by reference work timed next to it, in the same kind of fresh
interpreter and under the same threading, so a slow spell stretches both and
cancels. The reference is fixed code that does not touch ``orbitfl``, so a
change to the program moves the normalised timing by its full amount.

``compute_s(parts)`` times the named parts of ``PARTS``; a workload names the
parts that resemble its own profile:

- ``py``: interpreter work, an integer loop and dict updates;
- ``small``: numpy calls on 3-vectors, like the scalar geometry of
  ``distance_km``;
- ``blas``: matrix products of the shapes local training uses
  (150 x 784 by 784 x 10).

``import_s()`` times ``import numpy`` in a fresh interpreter that has imported
nothing else, the reference for the import time ``setup_s``.

    python3 perfbench/reference.py     # prints each, in seconds
"""

import time

# Each part's seconds, rounded, on a lightly loaded 2-vCPU Xeon (Sapphire
# Rapids) host. run.py scales a timing by nominal / measured, so that it reads
# as seconds on such a host.
NOMINAL_S = {"py": 0.045, "small": 0.06, "blas": 0.06}
NOMINAL_IMPORT_S = 0.06


def _py():
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    counts: dict[int, float] = {}
    for i in range(100_000):
        counts[i % 977] = counts.get(i % 977, 0.0) + 1.5


def _small():
    import numpy as np

    ground = np.array([7000.0, 0.0, 0.0])
    for i in range(10_000):
        angle = i * 1e-3
        sat = np.array([np.cos(angle), np.sin(angle), 0.0]) * 7000.0
        np.linalg.norm(sat - ground, axis=-1)


def _blas():
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 784))
    w = rng.standard_normal((784, 10))
    g = rng.standard_normal((150, 10))
    for _ in range(200):
        x @ w
        w -= 1e-6 * (x.T @ g)


PARTS = {"py": _py, "small": _small, "blas": _blas}


def compute_s(parts) -> float:
    """Seconds for the named parts, run once each."""
    import numpy  # noqa: F401  (imported before the clock starts)

    t0 = time.perf_counter()
    for part in parts:
        PARTS[part]()
    return time.perf_counter() - t0


def nominal_s(parts) -> float:
    """What ``compute_s(parts)`` takes on the host ``NOMINAL_S`` describes."""
    return sum(NOMINAL_S[part] for part in parts)


def import_s() -> float:
    """Seconds to import numpy; meaningful only in a fresh interpreter."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    return time.perf_counter() - t0


if __name__ == "__main__":
    print(f"import {import_s():.6f} s (nominal {NOMINAL_IMPORT_S})")
    for name in PARTS:
        print(f"{name} {compute_s([name]):.6f} s (nominal {NOMINAL_S[name]})")
