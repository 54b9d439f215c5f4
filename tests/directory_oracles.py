"""The §5.1 directories at message level: the oracle of the flat loops.

:func:`repro.apps.directory.arrow_directory` runs on
``core.fast_arrow._arrow_loop`` and
:func:`~repro.apps.directory.home_directory` on
``core.fast_closed_loop._central_loop``.  The message versions below are
what they replay: protocol nodes on :class:`~repro.core.message.Network`,
driven by :class:`~repro.core.message.Simulator`, one object per node.
``tests/small_models.py`` runs both engines on every instance of its
``dir-arrow`` and ``dir-home`` axes and asserts equal results.

:func:`arrow_directory_message` and :func:`home_directory_message` take
the flat runners' arguments and return the same
:class:`~repro.apps.directory.DirectoryResult`.
"""

from __future__ import annotations

from repro.apps.directory import DirectoryResult, _check_directory_args
from repro.core.message import ArrowNode, Message, Network, ProtocolNode, Simulator
from repro.core.requests import ROOT_RID
from repro.errors import NetworkError, ProtocolError
from repro.graphs.graph import Graph
from repro.net.latency import LatencyModel
from repro.spanning.tree import SpanningTree


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
        self.nodes: list[_ArrowDirectoryNode] = []  # filled by the runner
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
            self.shared.nodes[holder]._hand_off(pred, rid, origin)


def arrow_directory_message(
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
    """The arrow directory at message level (``arrow_directory``'s oracle)."""
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

    nodes = shared.nodes
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

    __slots__ = ("home", "nodes", "result", "cs_time", "driver", "holder", "busy", "queue")

    def __init__(
        self, home: int, nodes: list["_HomeDirectoryNode"], result: DirectoryResult,
        cs_time: float,
    ) -> None:
        super().__init__()
        self.home = home
        self.nodes = nodes  # every node of the run, by id
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
            self.nodes[requester]._acquire()
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


def home_directory_message(
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
    """The home-based directory at message level (``home_directory``'s oracle)."""
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
    nodes: list[_HomeDirectoryNode] = []
    nodes.extend(_HomeDirectoryNode(home, nodes, result, cs_time) for _ in range(n))
    net.register_all(nodes)
    return _run_acquire_loop(sim, net, nodes, result, lambda proc: nodes[proc].initiate())
