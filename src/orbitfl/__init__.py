"""Federated learning over satellite constellations, simulated event by event.

The package splits into five layers, each usable on its own:

* :mod:`orbitfl.orbital` for circular-orbit geometry, visibility, the contact plan
* :mod:`orbitfl.link` for link budgets and transfer times
* :mod:`orbitfl.learning` for the model, local training, and aggregation math
* :mod:`orbitfl.protocol` for node state machines and routing decisions
* :mod:`orbitfl.sim` for the event engine tying the layers together

Typical use::

    from orbitfl import desk_scenario, run_scenario

    result = run_scenario(desk_scenario(seed=7, until_epochs=3), "fedisl")
    for rec in result.records:
        print(rec.epoch, rec.test_accuracy)
"""

from .learning import (
    LearnerConfig,
    LocalDataset,
    evaluate,
    global_aggregate,
    init_params,
    load_idx,
    local_gd,
    model_dimension,
    partial_aggregate,
    partition_dataset,
    synthetic_pool,
)
from .link import LinkParams, model_size_bits
from .orbital import (
    Constellation,
    ContactPlan,
    ContactWindow,
    GroundStationSpec,
    OrbitSpec,
    PS_NODE,
    walker_planes,
)
from .protocol import (
    RoutingTree,
    build_routing_tree,
    distribution_targets,
    estimate_aggregation_time,
    select_sink,
)
from .sim import (
    CompareResult,
    ConfigError,
    DeadlockError,
    MetricsRecord,
    RunResult,
    ScenarioConfig,
    build_constellation,
    build_datasets,
    compare,
    contact_table,
    desk_scenario,
    reference_scenario,
    run_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CompareResult",
    "ConfigError",
    "Constellation",
    "ContactPlan",
    "ContactWindow",
    "DeadlockError",
    "GroundStationSpec",
    "LearnerConfig",
    "LinkParams",
    "LocalDataset",
    "MetricsRecord",
    "OrbitSpec",
    "PS_NODE",
    "RoutingTree",
    "RunResult",
    "ScenarioConfig",
    "build_constellation",
    "build_datasets",
    "build_routing_tree",
    "compare",
    "contact_table",
    "desk_scenario",
    "distribution_targets",
    "estimate_aggregation_time",
    "evaluate",
    "global_aggregate",
    "init_params",
    "load_idx",
    "local_gd",
    "model_dimension",
    "model_size_bits",
    "partial_aggregate",
    "partition_dataset",
    "reference_scenario",
    "run_scenario",
    "select_sink",
    "synthetic_pool",
    "validate_scenario",
    "walker_planes",
]
