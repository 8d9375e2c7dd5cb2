"""The standard scale-out catalog: what the autoscaler/planner can buy.

One :class:`~repro.scale.autoscaler.DeviceTemplate` per kind in
:data:`~repro.runtime.pool.RPC_DEVICE_KINDS`, built through the same
:func:`~repro.runtime.pool.rpc_device` factory the base fleet uses —
a scaled-out Protoacc is byte-identical in behaviour (interface,
contract, breaker, retry) to a provisioned one, which is what makes
the planner's predictions transfer to the autoscaler's reality.
"""

from __future__ import annotations

from repro.runtime.pool import RPC_DEVICE_COSTS, RPC_DEVICE_KINDS, rpc_device

from .autoscaler import DeviceTemplate


def standard_templates(
    *,
    kinds=RPC_DEVICE_KINDS,
    costs=None,
    seed: int = 17,
    cache=None,
    obs=None,
) -> list[DeviceTemplate]:
    """Templates for the requested kinds; ``cache`` (optional) is
    shared by every device they build.

    ``costs`` overrides the default relative prices
    (:data:`RPC_DEVICE_COSTS`) — capacity planning answers change with
    the price list, the serving behaviour does not.
    """
    costs = dict(RPC_DEVICE_COSTS if costs is None else costs)

    def make(kind: str) -> DeviceTemplate:
        def build(name: str, _kind=kind):
            return rpc_device(_kind, name=name, seed=seed, cache=cache, obs=obs)

        return DeviceTemplate(kind=kind, cost=costs[kind], build=build)

    return [make(kind) for kind in kinds]
