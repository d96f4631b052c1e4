"""repro — a simulation-based reproduction of Lumina (SIGCOMM 2023).

Lumina tests the correctness and performance of hardware-offloaded
network stacks (RoCEv2 RNICs) by injecting deterministic events from a
programmable switch and mirroring every packet to dumper servers for
offline analysis. This package rebuilds the complete system on a
discrete-event simulator, with behavioural RNIC models that encode the
measured micro-behaviours and vendor-confirmed bugs of the four NICs
the paper studies (NVIDIA CX4 Lx / CX5 / CX6 Dx, Intel E810).

Quick start::

    from repro import quick_config, run_test

    config = quick_config(nic="cx5", verb="write", drop_psn=5)
    result = run_test(config)
    print(result.summary())

The stable programmatic surface lives in :mod:`repro.api`; its
``run_suite``, ``run_fuzz_campaign`` and ``save_result``/``load_result``
are re-exported here. ``run_test`` here is the orchestrator's
:func:`~repro.core.orchestrator.run_test`, which ``repro.api.run_test``
also calls, so both return the same result.
"""

from .api import (
    load_result,
    run_fuzz_campaign,
    run_suite,
    save_result,
)
from .core.config import (
    DataPacketEvent,
    HostConfig,
    RoceParameters,
    TestConfig,
    TrafficConfig,
)
from .core.orchestrator import Orchestrator, run_test
from .core.results import TestResult

__version__ = "1.0.0"

__all__ = [
    "DataPacketEvent",
    "HostConfig",
    "RoceParameters",
    "TestConfig",
    "TrafficConfig",
    "Orchestrator",
    "run_test",
    "run_suite",
    "run_fuzz_campaign",
    "save_result",
    "load_result",
    "TestResult",
    "quick_config",
    "JobSpec",
    "Client",
    "__version__",
]


def __getattr__(name: str):
    # Campaign-service names resolve lazily: most importers (spawn
    # workers, the CLI fast path) never touch the service layer.
    if name in ("JobSpec", "Client"):
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quick_config(nic: str = "cx5", verb: str = "write",
                 num_connections: int = 1, num_msgs: int = 10,
                 message_size: int = 10240, mtu: int = 1024,
                 drop_psn: int = 0, seed: int = 1,
                 nic_responder: str = "", **traffic_kwargs) -> TestConfig:
    """Build a ready-to-run config for the standard two-host testbed.

    ``drop_psn`` > 0 injects a single drop on that packet of the first
    connection; richer event lists go through :class:`TrafficConfig`.
    """
    events = []
    if drop_psn:
        events.append(DataPacketEvent(qpn=1, psn=drop_psn, type="drop"))
    traffic = TrafficConfig(
        num_connections=num_connections,
        rdma_verb=verb,
        num_msgs_per_qp=num_msgs,
        message_size=message_size,
        mtu=mtu,
        data_pkt_events=tuple(events),
        **traffic_kwargs,
    )
    return TestConfig(
        requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=nic_responder or nic, ip_list=("10.0.0.2/24",)),
        traffic=traffic,
        seed=seed,
    )
