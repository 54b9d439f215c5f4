"""Distributed directories: the application of §1 and §5.1.

The paper's motivating application is synchronising access to a single
mobile object.  Herlihy & Warres (§5.1) compared two directory designs:

* the **arrow directory**: acquisitions are arrow queuing requests; the
  object travels directly from each holder to its successor once
  released (one routed transfer message per handoff);
* the **home-based directory**: a fixed home node tracks the holder;
  every acquisition goes through the home (request to home, forward to
  the current holder, transfer from holder to requester — three routed
  messages per handoff), so the home serialises all control traffic.

Both are implemented here at full message level on the network substrate,
driven by a closed acquire→use→release loop, and instrumented for the
§5.1 comparison: total completion time, message counts, and a global
mutual-exclusion check (the test-suite asserts the holding intervals
never overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.arrow import ArrowNode
from repro.core.queueing import float_total
from repro.core.requests import ROOT_RID
from repro.errors import NetworkError, ProtocolError, ScheduleError, require_time
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import ProtocolNode
from repro.sim.kernel import Simulator
from repro.spanning.tree import SpanningTree

__all__ = ["DirectoryResult", "arrow_directory", "home_directory"]

#: Slack for float noise when two holding intervals touch.
EXCLUSION_TOL = 1e-9


@dataclass(slots=True)
class DirectoryResult:
    """Outcome of one directory run."""

    protocol: str
    num_procs: int
    acquisitions_per_proc: int
    makespan: float = 0.0
    completions: int = 0
    messages_sent: int = 0
    #: (acquire_time, release_time, node) per acquisition, in handoff order.
    intervals: list[tuple[float, float, int]] = field(default_factory=list)

    @property
    def total_acquisitions(self) -> int:
        """Total acquisitions across all processors."""
        return self.num_procs * self.acquisitions_per_proc

    def exclusion_holds(self) -> bool:
        """True iff no two holding intervals overlap."""
        ordered = sorted(self.intervals)
        return all(
            r1 <= a2 + EXCLUSION_TOL for (a1, r1, _), (a2, r2, _) in zip(ordered, ordered[1:])
        )

    @property
    def mean_wait(self) -> float:
        """Mean time from handoff start to the next acquisition (proxy)."""
        if len(self.intervals) < 2:
            return 0.0
        ordered = sorted(self.intervals)
        gaps = [a2 - r1 for (_, r1, _), (a2, _, _) in zip(ordered, ordered[1:])]
        return float_total(gaps) / len(gaps)

    def row_metrics(self) -> dict[str, object]:
        """Sweep-row view of this run (scale-free).

        The ``exclusion_ok`` column persists the mutual-exclusion
        invariant with every row, so a sweep file is auditable after the
        fact — ``sweep-verify``/``sweep-merge`` consumers can refuse
        files whose rows carry ``false`` without re-running anything.
        """
        return {
            "protocol": self.protocol,
            "requests": self.total_acquisitions,
            "makespan": self.makespan,
            "messages_sent": self.messages_sent,
            "msgs_per_acquisition": (
                self.messages_sent / self.total_acquisitions
                if self.total_acquisitions
                else 0.0
            ),
            "mean_wait": self.mean_wait,
            "exclusion_ok": self.exclusion_holds(),
        }


def _check_directory_args(acquisitions_per_proc: int, cs_time: float) -> None:
    """Reject out-of-range loop knobs; both directory drivers call this.

    A negative budget would otherwise surface late as "completed 0 of -4
    acquisitions", a negative ``cs_time`` as the kernel refusing to
    schedule a release into the past and a NaN one as a NaN event time.
    ``acquisitions_per_proc == 0`` is legal: an empty, complete run.
    """
    if acquisitions_per_proc < 0:
        raise ScheduleError(
            f"acquisitions_per_proc must be >= 0, got {acquisitions_per_proc}"
        )
    require_time("cs_time", cs_time, ScheduleError)


def _run_acquire_loop(sim, net, nodes, result: DirectoryResult, initiate) -> DirectoryResult:
    """The closed acquire loop both directories run, to completion.

    Every processor acquires at t = 0 (kicked off in node order) and
    again each time it releases, until its budget is spent;
    ``initiate(proc)`` sends one acquisition.  The makespan is the last
    release, and a run that leaves an acquisition unserved raises.
    """
    remaining = [result.acquisitions_per_proc] * result.num_procs

    def issue(proc: int) -> None:
        if remaining[proc] <= 0:
            return
        remaining[proc] -= 1
        initiate(proc)

    def driver(proc: int) -> None:
        result.makespan = sim.now
        issue(proc)

    for nd in nodes:
        nd.driver = driver
    for p in range(result.num_procs):
        sim.call_at(0.0, issue, p)

    sim.run()
    result.messages_sent = net.stats.messages_sent
    if result.completions != result.total_acquisitions:
        raise ProtocolError(
            f"{result.protocol.replace('-', ' ')} completed {result.completions} of "
            f"{result.total_acquisitions} acquisitions"
        )
    return result


class _ObjectState:
    """Shared bookkeeping: who holds the object, who comes next."""

    def __init__(self, result: DirectoryResult, cs_time: float) -> None:
        self.result = result
        self.cs_time = cs_time
        # rid -> (successor_rid, successor_origin), learned at completion.
        self.successor: dict[int, tuple[int, int]] = {}
        # rids whose critical section has finished with the object at
        # `released_at[rid]`, waiting for their successor to be known.
        self.released_at: dict[int, int] = {}


class _ArrowDirectoryNode(ArrowNode):
    """Arrow node plus object handling for the directory application."""

    __slots__ = ("shared", "driver")

    def __init__(self, on_complete, shared: _ObjectState) -> None:
        super().__init__(on_complete)
        self.shared = shared
        self.driver = None  # set by the runner
        self.app_handler = self._on_app_message

    def _on_app_message(self, msg: Message) -> None:
        if msg.kind != "object":
            raise ProtocolError(f"directory got unexpected message {msg.kind!r}")
        self._acquire(msg.payload["rid"])

    def _acquire(self, rid: int) -> None:
        assert self.net is not None
        sim = self.net.sim
        acquire = sim.now
        release = acquire + self.shared.cs_time
        self.shared.result.intervals.append((acquire, release, self.node_id))
        self.shared.result.completions += 1
        sim.call_at(release, self._release, rid)

    def _release(self, rid: int) -> None:
        """Critical section over: hand off if the successor is known."""
        assert self.net is not None
        nxt = self.shared.successor.get(rid)
        if nxt is None:
            self.shared.released_at[rid] = self.node_id
        else:
            self._hand_off(rid, *nxt)
        if self.driver is not None:
            self.driver(self.node_id)

    def _hand_off(self, rid: int, succ_rid: int, succ_origin: int) -> None:
        assert self.net is not None
        if succ_origin == self.node_id:
            # Local successor: the object never leaves this node.
            self.net.sim.call_in(0.0, self._acquire, succ_rid)
        else:
            self.send_routed("object", succ_origin, rid=succ_rid)

    def on_successor_known(self, pred: int, rid: int, origin: int) -> None:
        """Completion hook: the successor of ``pred`` is ``rid``@``origin``."""
        self.shared.successor[pred] = (rid, origin)
        holder = self.shared.released_at.pop(pred, None)
        if holder is not None:
            # The object is idle at `holder`; ship it now.
            assert self.net is not None
            node = self.net.node(holder)
            assert isinstance(node, _ArrowDirectoryNode)
            node._hand_off(pred, rid, origin)


def arrow_directory(
    graph: Graph,
    tree: SpanningTree,
    *,
    acquisitions_per_proc: int,
    cs_time: float = 0.5,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> DirectoryResult:
    """Run the arrow-based directory under a closed acquire loop."""
    _check_directory_args(acquisitions_per_proc, cs_time)
    n = graph.num_nodes
    result = DirectoryResult("arrow-directory", n, acquisitions_per_proc)
    shared = _ObjectState(result, cs_time)
    sim = Simulator(max_events=max_events)
    net = Network(
        graph,
        sim,
        latency,
        seed=seed,
        service_time=service_time,
    )

    nodes: list[_ArrowDirectoryNode] = []
    owners: list[int] = []  # rid -> the processor that issued it

    def on_complete(rid: int, pred: int, node_id: int, when: float, hops: int):
        nodes[node_id].on_successor_known(pred, rid, owners[rid])

    nodes.extend(_ArrowDirectoryNode(on_complete, shared) for _ in range(n))
    net.register_all(nodes)
    for nd in nodes:
        nd.init_pointers(tree)

    # The virtual root request holds the object, already released at t=0.
    shared.released_at[ROOT_RID] = tree.root

    def initiate(proc: int) -> None:
        rid = len(owners)
        owners.append(proc)
        nodes[proc].initiate(rid)

    return _run_acquire_loop(sim, net, nodes, result, initiate)


class _HomeDirectoryNode(ProtocolNode):
    """Home-based directory node (fixed home tracks the holder)."""

    __slots__ = ("home", "result", "cs_time", "driver", "holder", "busy", "queue")

    def __init__(self, home: int, result: DirectoryResult, cs_time: float) -> None:
        super().__init__()
        self.home = home
        self.result = result
        self.cs_time = cs_time
        self.driver = None
        # Home state: current holder and whether a transfer is in flight;
        # pending requester queue (FIFO at the home).
        self.holder = home
        self.busy = False
        self.queue: list[int] = []

    def initiate(self) -> None:
        """Request the object: one routed message to the home."""
        self.send_routed("dreq", self.home, origin=self.node_id)

    def on_message(self, msg: Message) -> None:
        assert self.net is not None
        if msg.kind == "dreq":
            # Home: forward to the holder, or queue if a transfer is live.
            if self.node_id != self.home:
                raise ProtocolError("dreq at non-home node")
            self.queue.append(msg.payload["origin"])
            self._pump()
        elif msg.kind == "dfwd":
            # Current holder: ship the object to the requester when free.
            self.send_routed("dobj", msg.payload["to"])
        elif msg.kind == "dobj":
            self._acquire()
        elif msg.kind == "ddone":
            # Home learns the transfer finished; next request may proceed.
            if self.node_id != self.home:
                raise ProtocolError("ddone at non-home node")
            self.holder = msg.payload["holder"]
            self.busy = False
            self._pump()
        else:
            raise ProtocolError(f"unexpected message {msg.kind!r}")

    def _pump(self) -> None:
        assert self.net is not None
        if self.busy or not self.queue:
            return
        requester = self.queue.pop(0)
        self.busy = True
        if self.holder == requester:
            # Object already local to the requester.
            self.net.node(requester)._acquire()  # type: ignore[attr-defined]
        else:
            self.send_routed("dfwd", self.holder, to=requester)

    def _acquire(self) -> None:
        assert self.net is not None
        sim = self.net.sim
        acquire = sim.now
        release = acquire + self.cs_time
        self.result.intervals.append((acquire, release, self.node_id))
        self.result.completions += 1
        sim.call_at(release, self._release)

    def _release(self) -> None:
        assert self.net is not None
        self.send_routed("ddone", self.home, holder=self.node_id)
        if self.driver is not None:
            self.driver(self.node_id)


def home_directory(
    graph: Graph,
    home: int,
    *,
    acquisitions_per_proc: int,
    cs_time: float = 0.5,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
) -> DirectoryResult:
    """Run the home-based directory under the same closed acquire loop."""
    n = graph.num_nodes
    if not 0 <= home < n:
        raise NetworkError(f"home {home} out of range for {n} nodes")
    _check_directory_args(acquisitions_per_proc, cs_time)
    result = DirectoryResult("home-directory", n, acquisitions_per_proc)
    sim = Simulator(max_events=max_events)
    net = Network(
        graph,
        sim,
        latency,
        seed=seed,
        service_time=service_time,
    )
    nodes = [_HomeDirectoryNode(home, result, cs_time) for _ in range(n)]
    net.register_all(nodes)
    return _run_acquire_loop(sim, net, nodes, result, lambda proc: nodes[proc].initiate())
