"""Message-passing network substrate: links, latency models, nodes."""

from repro.net.latency import (
    ExponentialCappedLatency,
    LatencyModel,
    ScaledWeightLatency,
    UniformLatency,
    UnitLatency,
    WeightLatency,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkStats
from repro.net.node import ProtocolNode

__all__ = [
    "ExponentialCappedLatency",
    "LatencyModel",
    "ScaledWeightLatency",
    "UniformLatency",
    "UnitLatency",
    "WeightLatency",
    "Message",
    "Network",
    "NetworkStats",
    "ProtocolNode",
]
