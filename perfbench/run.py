"""Host-performance benchmark for orbitfl.

One timed operation is one ``orbitfl run`` call through ``orbitfl.cli.main``
in a fresh interpreter (``child.py``), so every run pays for the import, the
data build and the contact scans, as a command-line user does. Load model:
closed loop, one run at a time from this one process, under the library's
default threading (no thread variables are set).

    python3 perfbench/run.py --workload desk-fedisl --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all       # every workload, plus cross-checks
    python3 perfbench/run.py --selfcheck          # every workload at one epoch

Timings are normalised for the host's speed (see ``reference.py``): each
run's ``wall_s`` and ``cpu_s`` are scaled by the nominal over the measured
time of the workload's reference parts, run in the same process before and
after the run, and ``setup_s`` by the nominal over the measured time a fresh
interpreter takes to import numpy just before the run. They read as seconds on
the host the nominal times describe. The raw medians are printed next to them.

``--seed`` is the scenario seed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` also makes two traced runs (``spans.py``) and reports the
per-layer metrics. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give each metric
with its quartiles and sample count, and the environment record. ``--out FILE``
also writes the full record as JSON. The exit code is 1 when an output check
fails and 2 when the program under test is missing.

Workload scenarios, why each was chosen and which metric each layer should
move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SECOND_SEED = 11
CHILD_TIMEOUT_S = 170
TRACED_RUNS = 2
PAIR_TOLERANCE = 1e-12

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_s": "sim_s",
    "server_model_msgs": "count",
}
TIMED = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
# The measured reference each timing is normalised by (see reference.py).
REFERENCE = {"wall_s": "ref_compute_s", "cpu_s": "ref_compute_s", "setup_s": "ref_import_s"}

# Per-layer metric prefix -> (the spans it sums, the fields it reports).
# Span names come from spans.py.
BOTH = ("calls", "self_s")
SPAN_METRICS = {
    "orbital.distance_km": (["orbital.Constellation.distance_km"], BOTH),
    "orbital.visible": (["orbital.Constellation.visible"], BOTH),
    "orbital.next_contact": (["orbital.Constellation.next_contact"], BOTH),
    "orbital.remaining_contact_time": (["orbital.Constellation.remaining_contact_time"], BOTH),
    # ShannonLink.transfer_time delegates here, so this counts each transfer once
    "link.transfer_time": (["link.transfer_time"], ("calls",)),
    "learning.local_gd": (["learning.local_gd"], BOTH),
    "learning.evaluate": (["learning.evaluate"], BOTH),
    "learning.synthetic_pool": (["learning.synthetic_pool"], ("self_s",)),
    "learning.partition_dataset": (["learning.partition_dataset"], ("self_s",)),
    "protocol.select_sink": (["protocol.select_sink"], BOTH),
    "protocol.fallback_next_hop": (["protocol.fallback_next_hop"], ("calls",)),
    "protocol.handle_connection": (
        ["protocol.PsState.handle_connection", "protocol.DirectPsState.handle_connection"],
        ("calls",),
    ),
    "cli.parse_config": (["cli.parse_config"], ("self_s",)),
    "cli.render_run_csv": (["cli.render_run_csv"], ("self_s",)),
}
SPAN_LAYERS = ("orbital", "link", "learning", "protocol", "cli")
HANDLERS = (
    "fire_poll",
    "poll_retry",
    "ps_recv_request",
    "sat_recv_ctrl",
    "ps_recv_ack",
    "sat_recv_model",
    "compute_done",
    "sat_recv_partial",
    "try_deliver",
    "sat_recv_fallback",
    "ps_recv_update",
)


@dataclass(frozen=True)
class Workload:
    name: str
    planes: int
    sats_per_plane: int
    protocol: str
    epochs: int
    # reference.py parts that resemble the workload's own profile
    reference: tuple[str, ...]

    @property
    def groups(self) -> int:
        """Server model transfers each way per epoch: one per plane or satellite."""
        if self.protocol == "fedisl":
            return self.planes
        return self.planes * self.sats_per_plane

    def config(self) -> str:
        """desk_scenario (compute_time_factor 25) at this size, as INI text."""
        return (
            "[constellation]\n"
            f"num_planes = {self.planes}\n"
            f"sats_per_plane = {self.sats_per_plane}\n"
            "[learning]\n"
            "compute_time_factor = 25.0\n"
            "[sim]\n"
            f"until_epochs = {self.epochs}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-fedisl", 5, 8, "fedisl", 5, ("py", "blas")),
        Workload("desk-fednonisl", 5, 8, "fednonisl", 5, ("py", "small")),
        Workload("wide-fedisl", 20, 20, "fedisl", 3, ("py", "blas")),
    )
}
DESK_PAIR = ("desk-fedisl", "desk-fednonisl")


@dataclass
class Outcome:
    """Every run of one workload in this invocation."""

    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    rows: list[dict] | None = None
    digest: str | None = None

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)


# -- one run -------------------------------------------------------------------


def _child(args: list[str]) -> tuple[dict | None, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"no result within {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        pass
    return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"


def check_csv(text: str, wl: Workload, seed: int) -> tuple[list[dict], list[str]]:
    """Rows of a run CSV and whatever is wrong with them."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != f"# seed={seed}":
        return [], [f"expected '# seed={seed}' then a header"]
    header = lines[1].split(",")
    try:
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
        epochs = [int(r["epoch"]) for r in rows]
    except (ValueError, KeyError) as exc:
        return [], [f"unreadable row: {exc}"]
    problems = []
    if epochs != list(range(wl.epochs + 1)):
        problems.append(f"epochs {epochs}, expected 0..{wl.epochs}")
    for r in rows:
        want = r["epoch"] * wl.groups
        if r["ps_down_msgs"] != want or r["ps_up_msgs"] != want:
            problems.append(
                f"epoch {int(r['epoch'])}: {r['ps_down_msgs']:.0f} down and "
                f"{r['ps_up_msgs']:.0f} up, expected {want:.0f} each"
            )
        if not (0.0 <= r["test_accuracy"] <= 1.0 and math.isfinite(r["test_loss"])):
            problems.append(f"epoch {int(r['epoch'])}: accuracy or loss out of range")
    return rows, problems


def run_once(out: Outcome, work: Path, traced: bool):
    """One fresh-interpreter run; its sample or trace lands in ``out``."""
    wl = out.workload
    config = work / f"{wl.name}.ini"
    config.write_text(wl.config(), encoding="utf-8")
    csv = work / f"{wl.name}.csv"
    csv.unlink(missing_ok=True)
    argv = ["run", "--config", str(config), "--protocol", wl.protocol,
            "--seed", str(out.seed), "--out", str(csv)]  # fmt: skip
    out.attempted += 1
    ref_import: dict | None = {}
    if not traced:  # the import reference, just before the run's own import
        ref_import, error = _child(["--reference"])
        if ref_import is None:
            out.fail(f"reference: {error}")
            return
    parts = ["--ref", ",".join(wl.reference)]
    result, error = _child(parts + (["--trace"] if traced else []) + argv)
    if result is None or result["code"] != 0:
        out.fail(error or f"orbitfl exited {result['code']}")
        return
    result.update(ref_import)
    data = csv.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    rows, problems = check_csv(data.decode("utf-8"), wl, out.seed)
    if out.digest is None:
        out.digest, out.rows = digest, rows
    elif digest != out.digest:
        problems.append(f"csv sha256 {digest[:12]} differs from {out.digest[:12]}")
    if traced:
        problems += check_trace(result["trace"], result["wall_s"])
    if problems:
        out.fail("; ".join(problems))
    elif traced:
        out.traces.append(result)
    else:
        out.samples.append(result)


def measure(out: Outcome, work: Path, seconds: float, traced: bool):
    """Closed loop for ``seconds`` (at least one run), then the traced runs."""
    start = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - start < seconds:
        run_once(out, work, traced=False)
    if traced:
        for _ in range(TRACED_RUNS):
            run_once(out, work, traced=True)
        counts = {json.dumps(trace_counts(t["trace"]), sort_keys=True) for t in out.traces}
        if len(counts) > 1:
            out.fail("call or event counts differ between traced runs")


# -- trace accounting --------------------------------------------------------------


def check_trace(trace: dict, wall_s: float) -> list[str]:
    problems = []
    if trace["min_self_s"] < 0:
        problems.append(f"negative self time {trace['min_self_s']}")
    main = trace["spans"].get("cli.main", {}).get("total_s", 0.0)
    total_self = sum(s["self_s"] for s in trace["spans"].values())
    if abs(total_self - main) > 1e-6 * main + 1e-9 or main > wall_s:
        problems.append(f"self times sum to {total_self} s, traced run took {main} s")
    return problems


def trace_counts(trace: dict) -> dict:
    return {
        "calls": {name: s["calls"] for name, s in trace["spans"].items()},
        "extra": trace["extra"],
        "events": trace["events"],
    }


def layer_metrics(trace: dict, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = trace["spans"]

    m: dict[str, tuple[float, str]] = {}
    for prefix, (names, fields) in SPAN_METRICS.items():
        for f in fields:
            total = sum(spans.get(name, {}).get(f, 0) for name in names)
            m[f"{prefix}.{f}"] = (total, "count" if f == "calls" else "s")
    layer_self = trace["layer_self_s"]
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    extra = trace["extra"]
    m["orbital.visible.points"] = (extra.get("orbital.Constellation.visible", 0), "count")
    m["protocol.select_sink.orbital_s"] = (trace["orbital_under_scope_s"], "s")
    sends = sum(extra.get(name, 0) for name in SPAN_METRICS["protocol.handle_connection"][0])
    polls = m["protocol.handle_connection.calls"][0]
    m["protocol.handle_connection.send_model"] = (sends, "count")
    m["protocol.useful_poll_ratio"] = (sends / polls if polls else 0.0, "ratio")

    traced_wall = spans["cli.main"]["total_s"]
    m["sim.self_s"] = (traced_wall - sum(layer_self[layer] for layer in SPAN_LAYERS), "s")
    events = trace["events"]
    if events is not None:
        m["sim.events"] = (sum(events.values()), "count")
        for handler in sorted(set(HANDLERS) | set(events)):
            m[f"sim.events.{handler}"] = (events.get(handler, 0), "count")
        m["sim.events_per_s"] = (m["sim.events"][0] / untraced_wall_s, "1/s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall_s, "s")
    return m


# -- metrics -------------------------------------------------------------------


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def end_to_end(out: Outcome) -> dict[str, dict]:
    """Each end-to-end metric as value (the median), quartiles, unit and n.

    A normalised timing also carries ``raw``, the median as measured.
    """
    nominal = {
        "ref_compute_s": 2 * reference.nominal_s(out.workload.reference),  # before and after
        "ref_import_s": reference.NOMINAL_IMPORT_S,
    }
    m = {}
    for name in TIMED:
        values = [s[name] for s in out.samples]
        if not values:
            continue
        if name in REFERENCE:
            ref = REFERENCE[name]
            raw = statistics.median(values)
            values = [s[name] * nominal[ref] / s[ref] for s in out.samples]
        med, q1, q3 = _spread(values)
        m[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values)}
        pct = 100 * (len(values) - 10) // len(values)
        if pct > 50:  # the highest percentile with ten samples above it
            m[name]["tail"] = (pct, sorted(values)[-11])
        if name in REFERENCE:
            m[name]["raw"] = raw
    if out.rows:
        last = out.rows[-1]
        m["sim_s"] = {"value": last["sim_time_s"]}
        m["server_model_msgs"] = {"value": int(last["ps_down_msgs"] + last["ps_up_msgs"])}
    for name, metric in m.items():
        metric["unit"] = END_TO_END_UNITS[name]
    return m


def per_layer(out: Outcome, untraced_wall_s: float) -> dict[str, dict]:
    """Per-layer metrics, times as the median over the traced runs.

    ``untraced_wall_s`` is the raw median, as the traced times are raw too.
    """
    runs = [layer_metrics(t["trace"], untraced_wall_s) for t in out.traces]
    if not runs:
        return {}
    if "sim.events" not in runs[0]:
        print("warning: _Simulation.schedule not found; sim.events* missing", file=sys.stderr)
    metrics = {}
    for name, (value, unit) in runs[0].items():
        if unit != "count":  # counts are equal across traced runs, times are not
            value = statistics.median(r[name][0] for r in runs)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def pair_problems(a: Outcome, b: Outcome) -> list[str]:
    """The desk pair must learn the same model: loss and accuracy per epoch."""
    if not a.rows or not b.rows:
        return [f"{a.workload.name} or {b.workload.name} produced no rows"]
    problems = []
    for ra, rb in zip(a.rows, b.rows):
        for field in ("test_loss", "test_accuracy"):
            if abs(ra[field] - rb[field]) > PAIR_TOLERANCE:
                problems.append(
                    f"epoch {int(ra['epoch'])} {field}: {ra[field]!r} vs {rb[field]!r}"
                )
    return problems


# -- environment ---------------------------------------------------------------


def environment() -> dict:
    """Where the numbers come from. Its child run also warms the page cache."""
    env, _ = _child(["--env"])
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit or "unknown",
        **(env or {}),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


# -- entry points ----------------------------------------------------------------


def _print_metrics(label: str, metrics: dict[str, dict]):
    for name, m in metrics.items():
        spread = f" (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "n" in m else ""
        if "tail" in m:
            spread += f" p{m['tail'][0]} {m['tail'][1]:.6g}"
        if "raw" in m:
            spread += f" raw median {m['raw']:.6g}"
        print(f"{label} {name} = {m['value']:.6g} {m['unit']}{spread}")


def run_bench(names: list[str], seed: int, seconds: float, traced: bool, work: Path):
    outcomes, results = [], {}
    for name in names:
        out = Outcome(WORKLOADS[name], seed)
        measure(out, work, seconds, traced)
        outcomes.append(out)
        e2e = end_to_end(out)
        layers = per_layer(out, e2e["wall_s"]["raw"]) if traced and "wall_s" in e2e else {}
        _print_metrics(name, e2e)
        _print_metrics(name, layers)
        rate = out.failed / out.attempted
        print(f"{name} error_rate = {rate:.6g} ratio ({out.failed}/{out.attempted} runs)")
        for problem in out.problems:
            print(f"{name} FAILED: {problem}")
        results[name] = {"end_to_end": e2e, "per_layer": layers, "problems": out.problems,
                         "samples": out.samples,
                         "traces": [t["trace"] for t in out.traces]}  # fmt: skip
    by_name = {o.workload.name: o for o in outcomes}
    pair = pair_problems(*(by_name[n] for n in DESK_PAIR)) if set(DESK_PAIR) <= set(by_name) else []
    for problem in pair:
        print(f"desk pair FAILED: {problem}")
    return outcomes, results, pair


def selfcheck(seed: int, work: Path) -> int:
    """Every workload at one epoch: checks on two seeds, traced counts, names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for s in (seed, SECOND_SEED):
        outs = {}
        for wl in WORKLOADS.values():
            out = Outcome(replace(wl, epochs=1), s)
            measure(out, work, 0, traced=s == seed)
            outs[wl.name] = out
            problems += [f"{wl.name} seed {s}: {p}" for p in out.problems]
            if s != seed:
                continue
            e2e = end_to_end(out)
            layers = per_layer(out, e2e.get("wall_s", {}).get("raw", math.nan))
            for kind, got in (("end_to_end", e2e), ("per_layer", layers)):
                missing = [m["name"] for m in spec[kind] if m["name"] not in got]
                if missing:
                    problems.append(f"{wl.name}: {kind} metrics missing: {missing}")
        problems += [f"desk pair seed {s}: {p}" for p in pair_problems(*(outs[n] for n in DESK_PAIR))]
        print(f"seed {s}: " + ", ".join(f"{n} {o.digest}" for n, o in outs.items()))
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7, help="scenario seed (default 7)")
    parser.add_argument("--seconds", type=float, default=50.0, help="closed-loop time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="quick check of the benchmark")
    parser.add_argument("--out", help="also write the full record here as JSON")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like Ctrl-C: subprocess.run kills and reaps the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "orbitfl" / "cli.py").is_file():
        print(f"no orbitfl sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.selfcheck:
            return selfcheck(args.seed, work)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes, results, pair = run_bench(names, args.seed, args.seconds, bool(args.trace), work)
    env["csv_sha256"] = {o.workload.name: o.digest for o in outcomes}
    print("env " + json.dumps(env, sort_keys=True))
    if args.out:
        record = {"seed": args.seed, "seconds": args.seconds, "env": env, "workloads": results,
                  "desk_pair_problems": pair}  # fmt: skip
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, m in result[kind].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not pair and all(o.samples for o in outcomes)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
