"""Discrete-event simulation of federated training rounds over a constellation.

The engine moves a single clock over a heap of timestamped events: connection
attempts, message arrivals, training completions, and waits for a server
window. Every message is charged to the run's traffic counters in one place
and, through one send path, scheduled to arrive. A satellite runs at most one
poll chain: poll, server answer, reply, retry. Its stages are written once, in
one method that runs the stage an event brings and books the next, and its one
record is the time and stage of that next event. A satellite
that is ahead of the server, done with the server's epoch and asking for the
next model, is answered "not yet" until the epoch advances, and it ignores
which "not yet" it gets. So its chain is parked off the heap, where it
coasts: when the epoch advances, and when the run stops at its time limit or
cap, every parked chain runs its cycles up to that time in one pass, in
lockstep, without asking the server. The pass charges their control traffic
at once and books each chain's next stage as an event again.
Polls, transfers, deliveries and sink election read every server window from
the run's one :class:`orbitfl.orbital.ContactPlan`, the plan
:func:`contact_table` prints; a poll or delivery with no window left before the
plan's end is booked at infinity, so a stalled run wakes nothing until it stops.
Geometry and link rates come from :mod:`orbitfl.orbital` and
:mod:`orbitfl.link`; node behavior comes from :mod:`orbitfl.protocol`; the
math being trained lives in :mod:`orbitfl.learning`. What a run starts from
does not depend on its protocol: the constellation, the read-only shards and
test set, and the contact plan are built once per scenario, and
:func:`compare` runs both protocols on that one build. A model is made once
and shared: the server's global model goes out to every group as it is, with
its elected sink's routing tree, and rides on to each training event; every
trained update and partial sum is read-only, and a satellite drops its update
and its children's partials once its partial sum is folded.
A scenario is checked only where it is built: :func:`_build` raises one
:class:`ConfigError` with every problem found, and the engine's constructor
rejects a protocol the geometry cannot carry.
Everything is deterministic for a fixed scenario: ties in time are broken by
scheduling order, floats fold in fixed orders, and randomness enters only
through the scenario seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from . import learning, link, protocol
from .orbital import (
    MIN_SEPARATION_KM,
    PS_NODE,
    Constellation,
    ContactPlan,
    intra_plane_isl_feasible,
    max_isl_range_km,
    server_spec,
    walker_planes,
)

DEFAULT_TIME_CAP_S = 30 * 86400.0
# The longest span a run's time limit or a contact table may cover, one year.
# A window scan takes time in proportion to its span even when it finds no
# window, so a span without a bound could keep a scan going for days.
MAX_SPAN_S = 365 * 86400.0
# How far past the run's end the engine's contact plan reaches. Sink election
# ranks a group's members by the contact they have left when aggregation is
# due, so a window cut at the end would rank a member by the cut, not its pass.
PLAN_REACH_S = 43200.0

# the stages of a satellite's poll chain, named by the handler that runs each as an event
_FIRE, _REQUEST, _REPLY = "_fire_poll", "_ps_recv_request", "_sat_recv_ctrl"
# a coasting cycle's stages (poll, server answer, reply, next poll), by their order
_CYCLE = (_FIRE, _REQUEST, _REPLY, _FIRE)


class DeadlockError(RuntimeError):
    """No event can advance the run any further, yet the goal was not reached."""


class ConfigError(ValueError):
    """A scenario that cannot run: ``problems`` has a line per problem, tagged
    with the INI section when a section's part refused it; ``str()`` joins them by "; "."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


@dataclass
class ScenarioConfig:
    """One simulated deployment: constellation, radio, data, and run goals.

    Defaults describe the study case used throughout: five planes of eight
    satellites at 2000 km and 80 degrees inclination, an equatorial relay
    server at 20000 km, a 20 MHz S-band link, and softmax regression over a
    synthetic ten-class image-sized dataset.
    """

    seed: int
    # constellation
    num_planes: int = 5
    sats_per_plane: int = 8
    altitude_km: float = 2000.0
    inclination_deg: float = 80.0
    phasing_factor: int = 1
    # parameter server placement
    ps_kind: str = "orbit"  # "orbit" or "ground"
    ps_altitude_km: float = 20000.0
    ps_inclination_deg: float = 0.0
    ps_raan_deg: float = 0.0
    ps_latitude_deg: float = 0.0
    ps_longitude_deg: float = 0.0
    ps_min_elevation_deg: float = 10.0
    # radio, both server links and inter-satellite links
    bandwidth_hz: float = 20e6
    tx_power_dbm: float = 40.0
    antenna_gain_dbi: float = 6.98
    carrier_hz: float = 2.4e9
    noise_temperature_k: float = 354.81
    tx_delay_s: float = 0.0
    rx_delay_s: float = 0.0
    # learning
    learning_rate: float = 0.05
    local_iterations: int = 1
    cycles_per_sample: float = 1e3
    cpu_hz: float = 1e9
    compute_time_factor: float = 1.0
    # data
    data_source: str = "synthetic"  # or "idx"
    data_scheme: str = "iid"  # or "label_split"
    samples_per_satellite: int = 150
    test_samples: int = 2000
    num_features: int = 784
    num_classes: int = 10
    separation: float = 4.0
    train_images_path: str = ""
    train_labels_path: str = ""
    test_images_path: str = ""
    test_labels_path: str = ""
    # protocol timing
    reconnect_wait_s: float = 10.0
    grace_factor: float = 2.0
    # run goals
    until_epochs: int = 10
    time_limit_s: float | None = None
    target_accuracy: float | None = None


# each section's ScenarioConfig fields, in the order a scenario file lists them
_SECTION_FIELDS = {
    "constellation": "num_planes sats_per_plane altitude_km inclination_deg phasing_factor",
    "ps": "ps_kind ps_altitude_km ps_inclination_deg ps_raan_deg ps_latitude_deg "
    "ps_longitude_deg ps_min_elevation_deg",
    "link": "bandwidth_hz tx_power_dbm antenna_gain_dbi carrier_hz noise_temperature_k "
    "tx_delay_s rx_delay_s",
    "learning": "learning_rate local_iterations cycles_per_sample cpu_hz compute_time_factor",
    "data": "data_source data_scheme samples_per_satellite test_samples num_features "
    "num_classes separation train_images_path train_labels_path test_images_path "
    "test_labels_path",
    "protocol": "reconnect_wait_s grace_factor",
    "sim": "seed until_epochs time_limit_s target_accuracy",
}
# field -> (INI section, key), in that order: a key is its field's name, less
# the section's prefix under [ps] and [data]
INI_KEYS = {
    name: (section, name.removeprefix(f"{section}_") if section in ("ps", "data") else name)
    for section, names in _SECTION_FIELDS.items()
    for name in names.split()
}


def reference_scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    """The study-case deployment at its published scale."""
    return replace(ScenarioConfig(seed=seed), **overrides)


def desk_scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    """Study-case geometry with training cost scaled up so that local compute
    and transport are in proportion, keeping short runs representative."""
    base = ScenarioConfig(seed=seed, compute_time_factor=25.0)
    return replace(base, **overrides)


@dataclass(frozen=True)
class MetricsRecord:
    sim_time_s: float
    epoch: int
    test_accuracy: float
    test_loss: float
    ps_down_msgs: int
    ps_down_bits: int
    ps_up_msgs: int
    ps_up_bits: int
    isl_msgs: int
    isl_bits: int
    fallback_hops: int
    epoch_duration_s: float


# the cumulative traffic counters of a run, named as MetricsRecord fields
_TRAFFIC = tuple(
    f.name for f in fields(MetricsRecord) if f.name.endswith(("_msgs", "_bits", "_hops"))
)


@dataclass
class RunResult:
    """A run's records and models.

    ``final_params`` and the ``epoch_params`` entries are the run's own
    read-only model arrays, shared with it rather than copied: copy one
    before writing to it.
    """

    protocol: str
    records: list[MetricsRecord]
    final_params: np.ndarray
    epoch_params: dict[int, np.ndarray]
    counters: dict[str, int]
    stop_reason: str

    def time_to_accuracy(self, target: float) -> float | None:
        for rec in self.records:
            if rec.epoch > 0 and rec.test_accuracy >= target:
                return rec.sim_time_s
        return None


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Every problem with the scenario, one line each; empty when it can run.

    These are the problems of building it (:func:`_build`), else of setting up
    the engine of either protocol on that build, so a scenario that validates
    builds and starts under both protocols, and ``run`` reports the same lines.
    """
    try:
        build = _build(cfg)
        for name in ("fednonisl", "fedisl"):
            _Simulation(build, name)
    except ConfigError as exc:
        return exc.problems
    return []


def _setting_problems(cfg: ScenarioConfig) -> list[str]:
    """The problems of single settings, each tagged with its INI section and key."""
    bad = []  # (field, what is wrong with its value)
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        bad.append(("seed", f"must be a non-negative integer, got {cfg.seed!r}"))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            bad.append((f.name, f"must be finite, got {value}"))
    if cfg.ps_kind not in ("orbit", "ground"):
        bad.append(("ps_kind", f"must be 'orbit' or 'ground', got {cfg.ps_kind!r}"))
    if cfg.data_source not in ("synthetic", "idx"):
        bad.append(("data_source", f"must be 'synthetic' or 'idx', got {cfg.data_source!r}"))
    if cfg.data_scheme not in ("iid", "label_split"):
        bad.append(("data_scheme", f"must be 'iid' or 'label_split', got {cfg.data_scheme!r}"))
    if cfg.data_source == "idx":
        paths = ("train_images_path", "train_labels_path", "test_images_path", "test_labels_path")
        bad += [(name, "is required when source is 'idx'") for name in paths
                if not getattr(cfg, name)]
    least = {"samples_per_satellite": 1, "test_samples": 1, "num_features": 1, "num_classes": 2}
    for name, low in least.items():
        if getattr(cfg, name) < low:
            bad.append((name, f"must be at least {low}, got {getattr(cfg, name)}"))
    num_sats = max(cfg.num_planes, 0) * max(cfg.sats_per_plane, 0)
    # label_split gives each half of the labels to its own half of the satellites
    if cfg.data_scheme == "label_split" and num_sats == 1:
        bad.append(("data_scheme", "'label_split' needs at least one satellite per label "
                                   "group (2), got 1"))
    # a synthetic pool draws every class at least once; an empty one is refused above
    if cfg.data_source == "synthetic":
        pools = {"samples_per_satellite": (cfg.samples_per_satellite * num_sats,
                                           f"times the {num_sats} satellites "),
                 "test_samples": (cfg.test_samples, "")}
        for name, (rows, times) in pools.items():
            if 1 <= rows < cfg.num_classes:
                bad.append((name, f"{times}must be at least num_classes ({cfg.num_classes}) "
                                  f"for a synthetic pool, got {rows}"))
    if cfg.reconnect_wait_s <= 0:
        bad.append(("reconnect_wait_s", f"must be positive, got {cfg.reconnect_wait_s}"))
    if cfg.grace_factor < 0:
        bad.append(("grace_factor", f"must be non-negative, got {cfg.grace_factor}"))
    if cfg.until_epochs < 1:
        bad.append(("until_epochs", f"must be at least 1, got {cfg.until_epochs}"))
    if cfg.time_limit_s is not None and not 0 < cfg.time_limit_s <= MAX_SPAN_S:
        bad.append(("time_limit_s", f"must lie in (0, {MAX_SPAN_S:.0f}] when set (one year)"))
    if cfg.target_accuracy is not None and not 0.0 < cfg.target_accuracy <= 1.0:
        bad.append(("target_accuracy", "must lie in (0, 1]"))
    return ["[{}] {} {}".format(*INI_KEYS[name], rule) for name, rule in bad]


def _section(cfg: ScenarioConfig, name: str) -> dict:
    """The settings of ``[name]``, by their keys in a scenario file."""
    return {key: getattr(cfg, field) for field, (section, key) in INI_KEYS.items()
            if section == name}


def build_constellation(cfg: ScenarioConfig) -> Constellation:
    """The scenario's constellation; ConfigError on any problem of its parts."""
    return _build_parts(cfg)[0]


def build_datasets(cfg: ScenarioConfig):
    """Per-satellite training shards plus the shared held-out test set.

    The shards are row slices of one read-only block, in satellite order; the
    test set is its own block. The shards are made first, then the test set,
    each pool from its own generator or file pair. An idx file must hold at
    least the rows the run uses, ``num_features`` features per image and, in
    the rows used, labels below ``num_classes``; only the rows used are read."""
    num_sats = cfg.num_planes * cfg.sats_per_plane

    def shard(labels):
        try:
            return learning.partition_dataset(labels, num_sats, cfg.data_scheme, cfg.seed,
                                              cfg.num_classes)
        except learning.EmptyShardError as exc:
            # a label group's rows are fewer than its satellites
            raise learning.PartitionError(
                f"samples_per_satellite is too small for scheme {cfg.data_scheme!r}, "
                f"got {cfg.samples_per_satellite}: {exc}") from exc

    size = num_sats * cfg.samples_per_satellite
    sizes = dict(num_features=cfg.num_features, num_classes=cfg.num_classes)
    if cfg.data_source == "idx":
        shards = learning.load_idx(cfg.train_images_path, cfg.train_labels_path, size,
                                   shard=shard, **sizes)
        test_set = learning.load_idx(cfg.test_images_path, cfg.test_labels_path,
                                     cfg.test_samples, **sizes)
    else:
        draw = dict(sizes, separation=cfg.separation, means_seed=cfg.seed)
        shards = learning.synthetic_pool(size, seed=cfg.seed + 1, shard=shard, **draw)
        test_set = learning.synthetic_pool(cfg.test_samples, seed=cfg.seed + 2, **draw)
    by_sat = {sat: shards[sat - 1] for sat in range(1, num_sats + 1)}
    return by_sat, test_set


def _end_s(cfg: ScenarioConfig) -> float:
    """When a run stops at the latest: its time limit, else the default cap."""
    return DEFAULT_TIME_CAP_S if cfg.time_limit_s is None else cfg.time_limit_s


@dataclass(frozen=True)
class _Build:
    """What every run of a scenario starts from, whatever its protocol.

    The shards and the test set are read-only. The contact plan extends itself
    as it is read, and its windows do not depend on the order they are asked
    for, so runs that share it see the same windows.
    """

    cfg: ScenarioConfig
    con: Constellation
    link_params: link.LinkParams
    lcfg: learning.LearnerConfig
    data: Mapping[int, learning.LocalDataset]
    test_set: learning.LocalDataset
    plan: ContactPlan


def _build_parts(cfg: ScenarioConfig):
    """The constellation, link and learner: :func:`_build` but the data and plan.

    Each layer's constructor applies its own rules to its section's part, and
    the server is placed among the satellites once the parts are sound. Last,
    the link must carry the largest message across the longest line of sight
    between two satellites, or a satellite and the server, in finite time, and
    a model to the server within the passes a run reads, which end by the
    contact plan's end."""
    problems, parts = _setting_problems(cfg), []
    for section, build in (("constellation", walker_planes), ("ps", server_spec),
                           ("link", link.LinkParams), ("learning", learning.LearnerConfig)):
        try:
            parts.append(build(**_section(cfg, section)))
        except ValueError as exc:
            problems.append(f"[{section}] {exc}")
    if problems:
        raise ConfigError(*problems)
    planes, server, link_params, lcfg = parts
    try:
        con = Constellation(planes, server)
    except ValueError as exc:
        raise ConfigError(f"[ps] {exc}") from exc
    longest_km = max_isl_range_km(cfg.altitude_km, max(cfg.altitude_km, server.altitude_km))
    dim = learning.model_dimension(cfg.num_features, cfg.num_classes)
    bits = max(link.model_size_bits(dim), link.CONTROL_MESSAGE_BITS)
    try:  # a rate or noise power that rounds to 0, or a path loss that overflows, divides by zero
        finite = math.isfinite(link.transfer_times(link_params, longest_km * 1000.0, bits))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise ConfigError(f"[link] rate rounds to 0 bit/s at the longest line of sight, "
                          f"{longest_km:.0f} km, so a transfer there never ends")
    # no satellite comes nearer the server than their altitudes' difference,
    # nor than the 10 m that Constellation enforces
    least_km = max(abs(cfg.altitude_km - server.altitude_km), MIN_SEPARATION_KM)
    # the signal-to-noise ratio only grows nearer, so finite at the least
    # distance it is finite at every distance a transfer spans
    try:  # a noise power times a path loss that rounds to 0 divides by zero
        finite = math.isfinite(link.snr(link_params, least_km * 1000.0))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise ConfigError(f"[link] signal-to-noise ratio overflows at the least distance, "
                          f"{least_km:.6g} km, so the rate there has no bound")
    span_s = _end_s(cfg) + PLAN_REACH_S
    model_s = link.transfer_times(link_params, least_km * 1000.0, link.model_size_bits(dim))
    if model_s > span_s:
        raise ConfigError(f"[link] a model takes {model_s:.3g} s to reach the server even at "
                          f"the least distance, {least_km:.0f} km, longer than the "
                          f"{span_s:.3g} s of passes a run reads, so no pass carries one")
    return con, link_params, lcfg


def _build(cfg: ScenarioConfig) -> _Build:
    """Build the scenario once, for any number of runs: its parts, then the
    costly data, then the contact plan. Raises ConfigError on any problem."""
    con, link_params, lcfg = _build_parts(cfg)
    try:
        data, test_set = build_datasets(cfg)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"[data] {exc}") from exc
    span_s = _end_s(cfg) + PLAN_REACH_S
    train_s = max(learning.compute_time(shard, lcfg) for shard in data.values())
    if not train_s <= span_s:  # an overflow to inf included
        raise ConfigError(f"[learning] a shard trains for {train_s:.3g} s under cycles_per_sample,"
                          f" cpu_hz and compute_time_factor, past the {span_s:.3g} s a run reads")
    if not math.isfinite(learning.value_bound(lcfg, cfg.until_epochs, cfg.num_classes,
                                              data.values(), test_set)):
        raise ConfigError(f"[learning] learning_rate is too large for training to stay in the float"
                          f" range over {cfg.until_epochs} epochs of {cfg.local_iterations} local"
                          f" iterations, got {cfg.learning_rate!r}")
    plan = ContactPlan(con, span_s)
    return _Build(cfg, con, link_params, lcfg, MappingProxyType(data), test_set, plan)


def contact_table(cfg: ScenarioConfig, horizon_s: float):
    """Server visibility windows for every satellite, sorted by opening time:
    the windows a run reads, cut at ``horizon_s``. The scenario is checked as
    a run checks it, but its data is never built."""
    con = _build_parts(cfg)[0]
    plan = ContactPlan(con, horizon_s)
    rows = [
        (sat, con.plane_of(sat), w.start_s, w.end_s)
        for sat in con.satellite_ids()
        for w in plan.windows(sat)
    ]
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows


# -- the engine ------------------------------------------------------------------


class _Simulation:
    def __init__(self, build: _Build, protocol_name: str):
        if protocol_name not in ("fedisl", "fednonisl"):
            raise ConfigError(f"unknown protocol {protocol_name!r}")
        orbit = build.con.orbits[0]
        if protocol_name == "fedisl" and not intra_plane_isl_feasible(orbit):
            reach_km = max_isl_range_km(orbit.altitude_km, orbit.altitude_km)
            raise ConfigError(
                f"[constellation] sats_per_plane is too few for the ring protocol, got "
                f"{orbit.num_satellites}: adjacent satellites in a plane are "
                f"{build.con.distance_km(1, 2, 0.0):.6g} km apart, beyond their "
                f"{reach_km:.6g} km line-of-sight range")
        self.cfg = cfg = build.cfg
        self.protocol = protocol_name
        self.con, self.link_params, self.lcfg = build.con, build.link_params, build.lcfg
        self.data, self.test_set, self.plan = build.data, build.test_set, build.plan
        # A group shares one server downlink and one uplink per epoch: a whole
        # plane for the ring protocol, a single satellite for the direct one.
        if protocol_name == "fedisl":
            self.groups = [self.con.ring_ids(p) for p in self.con.plane_indices()]
        else:
            self.groups = [[sid] for sid in self.con.satellite_ids()]
        self.dim = learning.model_dimension(cfg.num_features, cfg.num_classes)
        self.model_bits = link.model_size_bits(self.dim)

        ids = self.con.satellite_ids()
        self.sats = {
            sid: protocol.SatelliteState(group=gid)
            for gid, group in enumerate(self.groups)
            for sid in group
        }
        self.compute_s = {
            sid: learning.compute_time(self.data[sid], self.lcfg) for sid in ids
        }
        total = sum(d.num_samples for d in self.data.values())
        init = learning.init_params(cfg.num_features, cfg.num_classes)
        self.ps = protocol.PsState(
            num_groups=len(self.groups), total_samples=total, global_params=init
        )

        # intra-plane hops span a constant chord, so their cost is fixed per
        # group, and so is its predicted span from model to aggregate
        self.isl_model_s, self.aggregation_s = [], []
        for ring in self.groups:
            isl_s = 0.0
            if len(ring) >= 2:
                chord_km = self.con.distance_km(ring[0], ring[1], 0.0)
                isl_s = link.transfer_time(self.link_params, chord_km * 1000.0, self.model_bits)
            self.isl_model_s.append(isl_s)
            slowest = max(self.compute_s[s] for s in ring)
            self.aggregation_s.append(protocol.estimate_aggregation_time(len(ring), isl_s, slowest))

        self.queue: list = []
        self.seq = itertools.count()
        self.t = 0.0
        self.counters = dict.fromkeys(_TRAFFIC + ("duplicate_models",), 0)
        self.records: list[MetricsRecord] = []
        self.epoch_params: dict[int, np.ndarray] = {}
        self.epoch_started = 0.0
        self.stop_reason = ""  # set when a goal is met
        # each satellite's poll chain: the (time, stage) of its next stage, the
        # one event of the chain that runs; None when it runs no chain or the
        # chain is parked
        self._due: dict[int, tuple[float, str] | None] = dict.fromkeys(ids)
        # the poll chains of satellites ahead of the server, parked off the
        # heap at a poll: when each one's next poll is due
        self._parked: dict[int, float] = {}

    # -- scheduling ---------------------------------------------------------

    def schedule(self, t: float, fn, *args):
        heapq.heappush(self.queue, (t, next(self.seq), fn, args))

    def _book(self, sid: int, t: float, stage: str, reply: tuple):
        """Book ``stage`` of the satellite's poll chain at t: its record and its event."""
        self._due[sid] = t, stage
        self.schedule(t, getattr(self, stage), sid, *reply)

    def _charge(self, hop: str, control: bool, count: int = 1):
        """Count ``count`` messages over ``hop`` ("ps_down", "ps_up" or "isl"):
        their bits always count, and they count as messages when they carry a
        model rather than control."""
        c = self.counters
        if control:
            c[hop + "_bits"] += count * link.CONTROL_MESSAGE_BITS
        else:
            c[hop + "_msgs"] += count
            c[hop + "_bits"] += count * self.model_bits

    def _send(self, hop: str, dt: float, fn, *args, control: bool = False):
        """One message over ``hop``, charged now and arriving as ``fn(*args)``
        after ``dt``."""
        self._charge(hop, control)
        self.schedule(self.t + dt, fn, *args)

    # -- geometry shortcuts ---------------------------------------------------

    def _ps_transfer_s(self, sat: int, t: float, bits: int) -> float:
        d_m = self.con.distance_km(sat, PS_NODE, t) * 1000.0
        return link.transfer_time(self.link_params, d_m, bits)

    # -- connection polling ----------------------------------------------------

    def _poll_time(self, sid: int, t: float) -> float:
        """When a poll wanted at t goes out: at once inside a server window,
        else when the next window opens, else never (at infinity)."""
        w = self.plan.window(sid, t)
        return math.inf if w is None else max(t, w.start_s)

    def _schedule_poll(self, sid: int, t: float):
        """Book a poll for the satellite's server window open at t or next, in
        place of a poll booked later (a retry). A chain that waits on the
        server keeps its course."""
        due = self._due[sid]
        if due is not None and due[1] != _FIRE:
            return
        at = self._poll_time(sid, t)
        if due is None or at < due[0]:
            self._book(sid, at, _FIRE, ())

    def _fire_poll(self, sid: int):
        """Ask the server for the model when in view, else book a poll. Runs
        only as the chain's booked stage: a retry a fresh poll replaced, and a
        poll of a parked or ended chain, are stale."""
        self._poll(sid, _FIRE, ())

    def _ps_recv_request(self, sid: int):
        self._poll(sid, _REQUEST, ())

    def _sat_recv_ctrl(self, sid: int, wait_epoch: int | None):
        self._poll(sid, _REPLY, (wait_epoch,))

    def _poll(self, sid: int, stage: str, reply: tuple):
        """Run the stage of the satellite's poll chain (fire, server answer,
        reply) that an event brings now, then book the chain's next stage as
        its event, or park the chain. The server's answer reaches the
        satellite as one value, the epoch a WAIT was given in, else None; a
        WAIT in the satellite's own epoch ends the chain.

        The chain's one record is ``_due[sid]``: an event runs only when it
        brings the stage due at this time, and clears the record; ``_book``
        writes it with the stage's event, and a chain that ends or parks leaves
        it None, so any other event of the chain on the heap is stale.

        A satellite ahead of the server gets no WAIT in its epoch until the
        epoch advances, so its chain is parked once it books a retry, and
        `_replay_parked` carries it on without asking the server: when the
        epoch advances, to that time, and when the run stops."""
        t, sat, ps = self.t, self.sats[sid], self.ps
        if self._due[sid] != (t, stage):  # not the stage booked
            return
        self._due[sid] = None
        bits = link.CONTROL_MESSAGE_BITS
        if stage == _FIRE:
            if sat.tree is not None:  # its model came over the ring
                return
            at = self._poll_time(sid, t)
            if at > t:  # out of view: book a poll for the next window
                t = at
            else:
                self._charge("ps_up", control=True)
                t += self._ps_transfer_s(sid, t, bits)
                stage = _REQUEST
        elif stage == _REQUEST:
            action = ps.handle_connection(sat.group)
            if action == protocol.SEND_MODEL:
                if sat.epoch > ps.epoch:
                    raise protocol.ProtocolError(
                        f"the server sent satellite {sid} a second model in epoch {ps.epoch}"
                    )
                if self._serve(sid):
                    return
            self._charge("ps_down", control=True)
            reply = (ps.epoch if action == protocol.WAIT else None,)
            t += self._ps_transfer_s(sid, t, bits)
            stage = _REPLY
        elif reply[0] == sat.epoch:  # a WAIT in its epoch: its model is on the ring
            return
        else:
            t += self.cfg.reconnect_wait_s
            stage, reply = _FIRE, ()
            if sat.epoch > ps.epoch:
                if sat.group not in ps.sent and sat.group not in ps.inflight:
                    raise protocol.ProtocolError(
                        f"satellite {sid} is in epoch {sat.epoch} but the server, in "
                        f"epoch {ps.epoch}, never served its group {sat.group}"
                    )
                self._parked[sid] = t
                return
        self._book(sid, t, stage, reply)

    def _model_fit_s(self, sid: int, w) -> float | None:
        """A model's transfer time over the server link from now, if ``w`` is
        open now and the transfer ends inside it; else None."""
        if w is None or w.start_s > self.t:
            return None
        dt = self._ps_transfer_s(sid, self.t, self.model_bits)
        return dt if self.t + dt <= w.end_s else None

    def _serve(self, sid: int) -> bool:
        """Send the group's model, with the routing tree of the sink elected for
        it, if it fits the pass open now; else it is unserved again."""
        gid, t = self.sats[sid].group, self.t
        dt = self._model_fit_s(sid, self.plan.window(sid, t))
        if dt is None:
            self.ps.inflight.discard(gid)
            return False
        ring = self.groups[gid]
        due = t + (dt + self.aggregation_s[gid])  # when the sink should hold the aggregate
        sink = protocol.select_sink(ring, due, self.plan.window)
        tree = protocol.build_routing_tree(ring, sink)
        epoch, model = self.ps.epoch, self.ps.global_params
        self._send("ps_down", dt, self._sat_recv_model, sid, epoch, tree, sid, model)
        return True

    def _replay_parked(self, until: float):
        """Coast every parked chain to ``until`` and unpark it: book each
        chain's stage due next, after ``until``, at its exact time, in parking
        order.

        The chains run in lockstep, a cycle of each per round: a poll once in
        view (a window is looked up only when the chain's last one has
        closed), the server's "not yet", and the wait before the next poll.
        The server is not asked: its answer to a parked chain changes no server
        state and is never a WAIT in the satellite's epoch, so a reply left
        due carries None, which ends no chain. The control messages of all the
        cycles are charged in one count each way.

        A round evaluates every chain's server distance in one numpy pass
        (``Constellation.distances_to``) at times clamped to ``until``, whose
        clamped stages go unread, and re-indexes only where chains stop.
        """
        # by satellite: each chain's stage due next after until, as (t, stage, reply)
        due = {sid: (at, _FIRE, ()) for sid, at in self._parked.items() if at > until}
        sids = [sid for sid in self._parked if sid not in due]  # the chains going on
        t = np.array([self._parked[sid] for sid in sids])
        w_start, w_end = np.zeros(len(sids)), np.full(len(sids), -math.inf)
        params, bits, wait = self.link_params, link.CONTROL_MESSAGE_BITS, self.cfg.reconnect_wait_s
        distance_km = self.con.distances_to(sids)

        def transfer_s(t):
            return link.transfer_times(params, distance_km(np.minimum(t, until)) * 1000.0, bits)

        polls = answers = 0
        while sids:
            for i in (t > w_end).nonzero()[0].tolist():  # its window closed: find the next
                w = self.plan.window(sids[i], float(t[i]))
                w_start[i], w_end[i] = (math.inf, math.inf) if w is None else (w.start_s, w.end_s)
            fire = np.maximum(t, w_start)  # out of view: poll when the window opens
            asked = fire + transfer_s(fire)
            answered = asked + transfer_s(asked)
            t = answered + wait
            late = t > until
            stops = late.nonzero()[0].tolist()
            full = len(sids) - len(stops)  # the cycles that ended by until
            polls, answers = polls + full, answers + full
            if not stops:
                continue
            for i in stops:  # the first of the cycle's stages that is due after until
                times = float(fire[i]), float(asked[i]), float(answered[i]), float(t[i])
                k = next(k for k, at in enumerate(times) if at > until)
                polls, answers = polls + (k > 0), answers + (k > 1)
                due[sids[i]] = times[k], _CYCLE[k], (None,) if k == 2 else ()
            going = (~late).nonzero()[0]
            sids = [sids[i] for i in going.tolist()]
            t, w_start, w_end = t[going], w_start[going], w_end[going]
            distance_km = distance_km.take(going)
        self._charge("ps_up", control=True, count=polls)
        self._charge("ps_down", control=True, count=answers)
        for sid in self._parked:
            self._book(sid, *due[sid])
        self._parked.clear()

    def _ps_recv_ack(self, sid: int):
        self.ps.downlink_acked(self.sats[sid].group)

    # -- model distribution and training ----------------------------------------

    def _sat_recv_model(self, sid, epoch, tree, source, params):
        """A model and its routing tree land, from the server at its source, else a neighbor."""
        sat = self.sats[sid]
        if sat.tree is not None:
            self.counters["duplicate_models"] += 1
            return
        sat.tree, sat.epoch = tree, epoch
        if sid == source:
            dt = self._ps_transfer_s(sid, self.t, link.CONTROL_MESSAGE_BITS)
            self._send("ps_up", dt, self._ps_recv_ack, sid, control=True)
        ring = self.groups[sat.group]
        dt = self.isl_model_s[sat.group]
        for target in protocol.distribution_targets(ring, sid, source):
            self._send("isl", dt, self._sat_recv_model, target, epoch, tree, source, params)
        self.schedule(self.t + self.compute_s[sid], self._compute_done, sid, params)

    def _compute_done(self, sid: int, params: np.ndarray):
        sat = self.sats[sid]
        sat.trained_params = learning.local_gd(params, self.data[sid], self.lcfg)
        self._try_send_partial(sid)

    # -- ring aggregation -----------------------------------------------------------

    def _try_send_partial(self, sid: int):
        sat = self.sats[sid]
        if sat.trained_params is None:
            return
        kids = sat.tree.children[sid]
        if any(k not in sat.cached_partials for k in kids):
            return
        weighted = learning.partial_aggregate(
            sat.trained_params,
            self.data[sid].num_samples,
            [sat.cached_partials[k] for k in kids],  # kids are already ascending
        )
        sat.partial_folded()
        if sid == sat.tree.sink:
            self._hold(sid, None, sat.epoch, weighted)
            return
        parent = sat.tree.parent[sid]
        dt = self.isl_model_s[sat.group]
        self._send("isl", dt, self._sat_recv_partial, parent, sid, sat.epoch, weighted)
        self._advance_sat(sid)

    def _sat_recv_partial(self, sid, child, epoch, weighted):
        sat = self.sats[sid]
        if sat.epoch != epoch or sat.partial_sent:
            raise protocol.ProtocolError(
                f"satellite {sid} got a partial for epoch {epoch} in epoch {sat.epoch}"
            )
        sat.cached_partials[child] = weighted
        self._try_send_partial(sid)

    def _advance_sat(self, sid: int):
        self.sats[sid].reset_for_next_epoch()
        self._schedule_poll(sid, self.t)

    # -- delivery to the server --------------------------------------------------------

    def _try_deliver(self, sid: int):
        """A satellite holding a group aggregate pushes it to the server as
        soon as geometry allows; with the server out of reach for too long, it
        passes the aggregate along the ring."""
        sat, t = self.sats[sid], self.t
        w = self.plan.window(sid, t)
        dt = self._model_fit_s(sid, w)
        if dt is not None:
            self._send("ps_up", dt, self._ps_recv_update, sid, sat.holding_epoch, sat.holding)
            return
        if w is not None and w.start_s <= t:  # open now, but it closes too soon
            w = self.plan.window(sid, math.nextafter(w.end_s, math.inf))
        next_start = math.inf if w is None else w.start_s
        # a group of one has no relays to lean on: it waits out the gap however long
        ring, isl_s = self.groups[sat.group], self.isl_model_s[sat.group]
        if len(ring) == 1 or next_start - t <= self.cfg.grace_factor * isl_s:
            self.schedule(next_start, self._try_deliver, sid)
            return
        # no ring runs on two, so a next hop exists
        target = protocol.fallback_next_hop(self.con, ring, sid, sat.holding_from, t)
        self.counters["fallback_hops"] += 1
        self._send("isl", isl_s, self._hold, target, sid, sat.holding_epoch, sat.holding)
        self._release(sid, sat.holding_epoch)

    def _hold(self, sid, sender, epoch, weighted):
        """Take the group's aggregate for ``epoch``, relayed by ``sender`` or folded
        here (sender None), and deliver it: the one place a satellite holds one."""
        sat = self.sats[sid]
        if sat.holding is not None:
            raise protocol.ProtocolError(f"satellite {sid} already holds an undelivered aggregate")
        sat.holding, sat.holding_epoch, sat.holding_from = weighted, epoch, sender
        self._try_deliver(sid)

    def _release(self, sid, epoch):
        """The aggregate for ``epoch`` went on: the one place a satellite lets one
        go. The sink moves on to the next epoch; a relay had moved on already."""
        sat = self.sats[sid]
        sat.holding, sat.holding_from = None, None
        if sat.epoch == epoch:
            self._advance_sat(sid)

    def _ps_recv_update(self, sid, epoch, weighted):
        before = self.ps.epoch
        self.ps.handle_partial(self.sats[sid].group, weighted)
        if self.ps.epoch != before:
            self._replay_parked(self.t)
            self._epoch_completed(before)
        self._release(sid, epoch)

    # -- bookkeeping ---------------------------------------------------------------

    def _record(self, epoch: int, duration: float):
        acc, loss = learning.evaluate(self.ps.global_params, self.test_set)
        traffic = {name: self.counters[name] for name in _TRAFFIC}
        self.records.append(
            MetricsRecord(
                sim_time_s=self.t,
                epoch=epoch,
                test_accuracy=acc,
                test_loss=loss,
                epoch_duration_s=duration,
                **traffic,
            )
        )

    def _epoch_completed(self, finished_epoch: int):
        self.epoch_params[finished_epoch] = self.ps.global_params
        self._record(finished_epoch, self.t - self.epoch_started)
        self.epoch_started = self.t
        rec = self.records[-1]
        if (
            self.cfg.target_accuracy is not None
            and rec.test_accuracy >= self.cfg.target_accuracy
        ):
            self.stop_reason = "accuracy"
        elif finished_epoch >= self.cfg.until_epochs:
            self.stop_reason = "epochs"

    def _diagnose(self) -> str:
        phases = {}
        for sat in self.sats.values():
            if sat.tree is None:
                phase = protocol.DISTRIBUTION
            elif sat.partial_sent or sat.trained_params is not None:
                phase = protocol.AGGREGATION
            else:
                phase = protocol.COMPUTATION
            phases[phase] = phases.get(phase, 0) + 1
        summary = ", ".join(f"{n} {phase}" for phase, n in sorted(phases.items()))
        pending = [g for g in range(len(self.groups)) if g not in self.ps.received]
        return (
            f"no further progress at t={self.t:.1f}s: server in epoch {self.ps.epoch}, "
            f"groups with no aggregate yet: {pending}; satellites: {summary}"
        )

    # -- main loop ---------------------------------------------------------------------

    def run(self) -> RunResult:
        limit, end = self.cfg.time_limit_s, _end_s(self.cfg)
        self._record(0, 0.0)
        for sid in self.con.satellite_ids():
            self._schedule_poll(sid, 0.0)
        truncated = False
        while self.queue and not self.stop_reason:
            t, _, fn, args = heapq.heappop(self.queue)
            if t > end:
                truncated = True
                break
            self.t = t
            fn(*args)
        if not self.stop_reason:
            # a parked chain polls forever, so the run did not run dry
            truncated = truncated or bool(self._parked)
            if truncated and limit is not None:
                self.stop_reason = "time_limit"
            elif truncated and self.ps.epoch > 1:  # an epoch done before the cap
                self.stop_reason = "time_cap"
            else:
                raise DeadlockError(self._diagnose())
            self._replay_parked(end)
        return RunResult(
            protocol=self.protocol,
            records=self.records,
            final_params=self.ps.global_params,
            epoch_params=self.epoch_params,
            counters=dict(self.counters),
            stop_reason=self.stop_reason,
        )


def run_scenario(cfg: ScenarioConfig, protocol_name: str = "fedisl") -> RunResult:
    """Simulate one protocol over the scenario and return its full trace."""
    return _Simulation(_build(cfg), protocol_name).run()


# -- protocol comparison -----------------------------------------------------------------


@dataclass(frozen=True)
class CompareResult:
    speedup: float
    traffic_ratio: float
    epoch_time_ratio: float
    baseline: RunResult
    treatment: RunResult


def compare(cfg: ScenarioConfig) -> CompareResult:
    """Run the direct protocol and the ring protocol on identical inputs.

    ``speedup`` is wall-clock time to the common goal (target accuracy when the
    scenario sets one, otherwise the last common epoch) for the direct protocol
    divided by the ring protocol's. ``traffic_ratio`` compares model-bearing
    messages over the server links at equal epochs, and ``epoch_time_ratio``
    compares mean epoch duration over the first five common epochs. Both
    protocols run on one build of the scenario, and both engines are set up
    before either runs, so a scenario one protocol cannot carry runs neither.
    """
    build = _build(cfg)
    engines = [_Simulation(build, name) for name in ("fednonisl", "fedisl")]
    baseline, treatment = (engine.run() for engine in engines)

    def finished(run: RunResult):
        return [r for r in run.records if r.epoch > 0]

    base_recs, treat_recs = finished(baseline), finished(treatment)
    if not base_recs or not treat_recs:
        raise DeadlockError("comparison needs at least one completed epoch per protocol")
    common = min(len(base_recs), len(treat_recs))

    if cfg.target_accuracy is not None:
        t_base = baseline.time_to_accuracy(cfg.target_accuracy)
        t_treat = treatment.time_to_accuracy(cfg.target_accuracy)
        if t_base is None or t_treat is None:
            raise DeadlockError(
                f"target accuracy {cfg.target_accuracy} not reached "
                f"(baseline {'yes' if t_base else 'no'}, ring {'yes' if t_treat else 'no'})"
            )
        speedup = t_base / t_treat
    else:
        speedup = base_recs[common - 1].sim_time_s / treat_recs[common - 1].sim_time_s

    def model_msgs(rec: MetricsRecord) -> int:
        return rec.ps_down_msgs + rec.ps_up_msgs

    traffic_ratio = model_msgs(base_recs[common - 1]) / model_msgs(treat_recs[common - 1])
    span = min(5, common)
    mean_base = sum(r.epoch_duration_s for r in base_recs[:span]) / span
    mean_treat = sum(r.epoch_duration_s for r in treat_recs[:span]) / span
    epoch_time_ratio = mean_base / mean_treat
    return CompareResult(
        speedup=speedup,
        traffic_ratio=traffic_ratio,
        epoch_time_ratio=epoch_time_ratio,
        baseline=baseline,
        treatment=treatment,
    )
