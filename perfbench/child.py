"""Run one ``orbitfl run`` call in this fresh interpreter and report its cost.

    PYTHONPATH=src python3 perfbench/child.py --ref py,blas [--trace] run --config F ...
    python3 perfbench/child.py --reference
    python3 perfbench/child.py --env

The arguments after ``--ref`` and the optional ``--trace`` go to
``orbitfl.cli.main``. The last stdout line is a JSON object with the exit
code, ``setup_s`` (seconds to import ``orbitfl.cli``), ``wall_s`` and
``cpu_s`` of the ``main`` call, ``peak_rss_mb`` of this process and
``ref_compute_s``, the reference parts named by ``--ref`` (see
``reference.py``) timed once before and once after the call. With ``--trace``
the layers are wrapped by ``spans.Tracer`` after the import and its report is
added under ``trace``. ``--reference`` reports ``ref_import_s``, the time to
import numpy in a fresh interpreter; ``--env`` reports the environment.

Only ``sys`` and ``time`` are imported before the timed imports, so modules
that orbitfl pulls in are not preloaded.
"""

import sys
import time


def environment() -> dict:
    """Python, numpy and BLAS as a fresh interpreter sees them."""
    import ctypes
    import os
    import pathlib
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
        "blas_threads": threads,
        "thread_env": {
            k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")
        },
    }


def run(argv: list[str]) -> dict:
    t0 = time.perf_counter()
    import orbitfl.cli

    setup_s = time.perf_counter() - t0
    import reference

    parts, argv = argv[1].split(","), argv[2:]  # after "--ref"
    tracer = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ref_before = reference.compute_s(parts)
    c0, w0 = time.process_time(), time.perf_counter()
    code = orbitfl.cli.main(argv)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0

    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ref_compute_s": ref_before + reference.compute_s(parts),
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main() -> int:
    argv = sys.argv[1:]
    if argv == ["--env"]:
        out = environment()
    elif argv == ["--reference"]:
        import reference

        out = {"ref_import_s": reference.import_s()}
    else:
        out = run(argv)
    import json

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
