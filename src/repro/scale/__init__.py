"""SLO-guarded autoscaling, brownout, and interface-priced capacity planning.

The paper's argument is that a performance interface lets you *predict*
hardware before committing to it.  This package spends that prediction
three ways:

* **Live scaling** — :class:`Autoscaler` grows and shrinks a
  :class:`~repro.runtime.pool.DevicePool` from observed SLO pressure,
  queue depth, breaker state, and drift, pricing every scale-out
  candidate through its Petri-net interface before it joins
  (:mod:`.autoscaler`).
* **Brownout** — :class:`DegradationLadder` trades features for latency
  in explicit rungs (hedging → low-priority shedding → coarse pricing →
  admission rejection) under sustained SLO violation, and climbs back
  down on recovery (:mod:`.brownout`).
* **Capacity planning** — :class:`CapacityPlanner` searches fleet
  compositions offline by batch-pricing a representative workload
  sample, returning the cheapest fleet that provably (per
  :class:`~repro.lint.PerfContract` bounds) meets the SLO
  (:mod:`.planner`); ``python -m repro.scale plan`` is the CLI.

:class:`ScaleController` binds the live pieces to an
:class:`~repro.runtime.serving.OpenLoopServer` via its duck-typed
controller hooks (:mod:`.controller`).  ``docs/robustness.md`` has the
operator chapter, including the rung table.
"""

from repro.hw.stats import quantile

from .autoscaler import Autoscaler, DeviceTemplate, ScaleEvent, ScalePolicy
from .brownout import BrownoutPolicy, DegradationLadder, Rung, RungTransition
from .controller import ScaleController
from .planner import DEFAULT_RHO_MAX, CapacityPlanner, FleetPlan, KindProfile
from .scenario import (
    base_fleet,
    diurnal_arrivals,
    priority_assigner,
    run_scale_scenario,
)
from .slo import SLO, SloMonitor, SloStatus
from .templates import standard_templates

__all__ = [
    "DEFAULT_RHO_MAX",
    "SLO",
    "Autoscaler",
    "BrownoutPolicy",
    "CapacityPlanner",
    "DegradationLadder",
    "DeviceTemplate",
    "FleetPlan",
    "KindProfile",
    "Rung",
    "RungTransition",
    "ScaleController",
    "ScaleEvent",
    "ScalePolicy",
    "SloMonitor",
    "SloStatus",
    "base_fleet",
    "diurnal_arrivals",
    "priority_assigner",
    "quantile",
    "run_scale_scenario",
    "standard_templates",
]
