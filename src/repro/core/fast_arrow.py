"""Fast-path arrow engine: ``run_arrow`` semantics without the message layer.

:func:`run_arrow_fast` executes arrow runs on the tree's parent array
with one event queue over ``(time, seq)`` tuples and plain int/float
array node state (``link``, ``last_rid``) — no
:class:`~repro.core.message.Message` objects, no per-event callback, no
:class:`~repro.core.message.Network` dispatch.  The produced
:class:`~repro.core.queueing.RunResult` is bit-identical to
:func:`repro.core.message.run_arrow` (same completions, predecessors, hop
counts, makespan, tie-breaking and event stream), which the small-model
oracle in ``tests/small_models.py`` checks on every small instance it
enumerates.

There is one event loop, the plain function :func:`_arrow_loop`; its
docstring says why bit-identity holds.  Its queue is a flat binary heap,
or a FIFO ``deque`` in the paper's synchronous model (one delay on every
tree link, no service time, no closed loop, no crash events), where
events are scheduled in the order they fire.  With a service time
instead, an open fault-free run over one link delay folds each message's
arrival into its send: the send joins the destination's service queue
and schedules the dispatch, one heap event per message instead of two.
Open-loop runs
(:func:`run_arrow_fast`), the §5 closed loop
(:func:`repro.core.fast_closed_loop.closed_loop_arrow_fast`), faulted
runs (:func:`repro.faults.run_arrow_faulted`) and the §5.1 arrow
directory (:func:`repro.apps.directory.arrow_directory`) are
configurations of it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heappushpop
from itertools import repeat

from repro.core.engines import engine_error_message
from repro.core.event_stream import EVENT_CHUNK, EventSink, EventStream
from repro.core.queueing import RunResult
from repro.core.requests import NO_RID, ROOT_RID, RequestSchedule
from repro.errors import NetworkError, ProtocolError, SimulationError, require_time
from repro.graphs.graph import Graph
from repro.graphs.validation import tree_link_weights
from repro.net.latency import LatencyModel, UnitLatency
from repro.sim.rng import spawn_rng
from repro.spanning.tree import SpanningTree

__all__ = [
    "arrow_runner",
    "run_arrow_fast",
]


def arrow_runner(engine: str):
    """Resolve an engine name to its open-loop runner.

    The open-loop sweep families and :func:`repro.faults.run_arrow_faulted`
    resolve their engine here.  A sweep's name was already checked when
    its :class:`~repro.sweep.spec.SweepSpec` was built; a library caller's
    is checked here against :data:`repro.core.engines.ENGINES`, and an
    unknown name raises :func:`~repro.core.engines.engine_error_message`'s
    text instead of falling back to one of the engines.
    """
    if engine == "fast":
        return run_arrow_fast
    if engine == "message":
        from repro.core.message import run_arrow

        return run_arrow
    raise ValueError(engine_error_message(engine))


def _raise_livelock(max_events: int | None) -> None:
    raise SimulationError(
        f"exceeded max_events={max_events}; possible livelock in protocol code"
    )


def _link_tables(
    graph: Graph, parent: list[int], root: int, latency: LatencyModel, rng
) -> tuple[list[float], list[float] | None, list[float] | None, bool]:
    """Node-indexed tree-link weights and deterministic delays (0.0 at the root).

    The weights are the graph's on the tree links, as the Network sees
    them (``tree.edge_weight`` may legitimately differ), read in one bulk
    call that also checks every link is a graph edge.  Deterministic
    models may legally depend on the (src, dst) direction, so one delay
    per directed link: up[v] = v -> parent[v], down[v] = parent[v] -> v;
    ``(None, None)`` for stochastic models, which must draw per send.
    The last value says whether every directed link has one and the same
    delay — the synchronous model, where ``_arrow_loop`` can use a FIFO.
    """
    # The tree links as columns: every non-root node and its parent.
    links = list(range(len(parent)))
    del links[root]
    ups = parent[:]
    del ups[root]
    weight = tree_link_weights(graph, links, ups)
    det_up = det_down = None
    one_delay = False
    if not latency.stochastic:
        sample = latency.sample
        det_up = list(map(sample, links, ups, weight, repeat(rng)))
        det_down = list(map(sample, ups, links, weight, repeat(rng)))
        one_delay = len({*det_up, *det_down}) <= 1
        det_up.insert(root, 0.0)
        det_down.insert(root, 0.0)
    weight.insert(root, 0.0)
    return weight, det_up, det_down, one_delay


def _fifo_pushpop(queue: deque, event: tuple) -> tuple:
    """``heappushpop`` for a queue whose events arrive in key order."""
    queue.append(event)
    return queue.popleft()


# Event tags of the loops' heap tuples ``(time, seq, tag, node, src, rid,
# hops)``.  ``seq`` is globally unique, so the heap order never compares
# past it.  A message's arrival tag is odd and its dispatch tag is the
# arrival tag + 1: the service stage of both loops turns one into the
# other, and ``tag & 1`` tells an arrival.
_ISSUE = 0  # a closed-loop processor issues its next request
_ARRIVE = 1  # a queue message (or creq) joins a node's service queue (Network._arrive)
_DISPATCH = 2  # its handler runs (ArrowNode.on_message)
_ACK_ARRIVE = 3  # a queue_reply acknowledgement joins its origin's service queue
_ACK_DISPATCH = 4  # its handler runs (the message harness's ack)
_CRASH = 6  # a fault plan's node crash
_OBJECT_ARRIVE = 7  # a directory's object reaches the requester
_ACQUIRE = 8  # which holds it (also a zero-delay local hand-off) ...
_RELEASE = 10  # ... until its release, cs_time later


def _finish_result(result: RunResult, makespan: float, messages: int) -> None:
    """Check and complete the result an open-loop ``_arrow_loop`` filled."""
    m = len(result.schedule)
    done = bytearray(m)  # a flag per rid: a fiftieth of a set of the rids
    for rid in result.rids:
        if not 0 <= rid < m:
            raise ProtocolError(f"request {rid} is not in the schedule")
        if done[rid]:
            raise ProtocolError("a request completed twice")
        done[rid] = 1
    result.makespan = makespan
    result.network_stats = {
        "messages_sent": messages,
        "link_messages": messages,
        "routed_messages": 0,
        "hops_total": messages,
    }


def _arrow_loop(
    graph: Graph,
    tree: SpanningTree,
    latency: LatencyModel,
    service_time: float,
    rng,
    init_times: list[float],
    init_nodes: list[int],
    heap: list[tuple[float, int, int, int, int, int, int]],
    max_events: int | None,
    on_event: EventSink | None,
    *,
    result: RunResult | None = None,
    faults=None,
    driver=None,
) -> tuple[float, int, list[int]]:
    """The one arrow event loop; every fast run is a configuration of it.

    Returns ``(time of the last event, messages sent, final pointers)``.
    ``graph``, ``tree``, ``latency`` (a model, not ``None``),
    ``service_time`` and ``max_events`` are the
    :func:`~repro.core.message.run_arrow` knobs; ``rng`` is the run's
    ``spawn_rng(seed, "network-latency")`` stream, which a closed loop
    shares with the :class:`~repro.net.router.Router` of its
    acknowledgements — the class a :class:`~repro.core.message.Network`
    routes every routed send through.

    * **Delay source** — per-directed-link tables, built before the loop,
      for deterministic latency models (which never draw from ``rng``),
      else one ``sample`` draw from ``rng`` per send.
    * **Request source** — the canonical schedule arrays ``init_times``
      / ``init_nodes`` (rid = index) and/or ``_ISSUE`` events on
      ``heap``, which is all a closed loop's driver is.  Schedule
      initiations stay out of the heap: canonical ``(time, rid)``
      order is exactly the kernel's ``(time, seq)`` order for them,
      and every other event carries a larger sequence number, so on a
      time tie the initiation fires first.
    * **faults** — a :class:`repro.faults._FaultState`: drop checks on
      every send and arrival, repair at quiescent points (checked
      before each initiation, and once when the heap has drained), and
      the plan's ``_CRASH`` events, which the caller seeds on ``heap``.
    * **driver** — the closed loop's ``(remaining, issue_times,
      owners, ack_times, hops, latencies, think_time, reply_delay,
      None)``: per-processor budgets, the rid-indexed result lists,
      and ``Router.delay_hops``, the routed delay and hop count of a
      ``queue_reply``.  Completions are then acknowledged to their
      origin, and an acknowledgement triggers the processor's next
      request.  The §5.1 directory's driver ends in ``(cs_time,
      intervals)`` (its ack fields unused): a completion ships the
      object by one routed send (a zero-delay ``_ACQUIRE`` event when
      local) if the request ahead left it idle, and a release ships it
      if its successor is known, then re-issues.  Without a driver,
      completions are appended to ``result``'s five columns (what
      :meth:`RunResult.record` does, minus its per-call duplicate
      check — the caller checks once, after the loop).
    * **on_event** — the optional sink.  With one, every site appends
      its event tuple to an :class:`~repro.core.event_stream.EventStream`
      (``emit`` is the chunk list's bound ``append``; a fault state
      emits through the same one) and the sink gets the list whenever
      it has reached ``EVENT_CHUNK`` at the start of a transition —
      the ``init`` and ``deliver`` sites, so a chunk holds whole
      transitions and the live buffer stays bounded even when no
      request is issued for a long stretch — and once more in the
      ``finally``, so an aborted run still shows what it emitted.

    Every optional part is a test on a local, so an unused part costs
    no call.

    Why bit-identical is achievable
    -------------------------------
    The message-level kernel (:class:`repro.core.message.Simulator`)
    orders events by ``(time, seq)`` with a single global sequence
    counter — the key of this loop's heap.  This loop schedules the
    *same* events in the *same* order, each consuming the next
    sequence number at the moment the message simulator would have
    scheduled it:

    * the ``m`` schedule initiations own seqs ``0..m-1`` and the
      events the caller seeded on ``heap`` (a plan's crashes, a closed
      loop's n initial issues) own ``m..m+len(heap)-1`` — the order
      the message harness schedules them in;
    * then one event per message delivery (plus one dispatch per
      delivery when ``service_time > 0``) and one per think-time
      re-issue; with ``think_time == 0`` the re-issue runs *inside*
      the acknowledgement dispatch (no event of its own), exactly like
      the message harness's ``ack`` (a directory re-issues inside its
      release);
    * a transition schedules at most one event (a directory's release
      pushes its hand-off first), and the loop holds it in ``nxt``
      instead of pushing it: the next event is
      ``heappushpop(heap, nxt)``, one sift (none when ``nxt`` is the
      earliest).  Its seq is taken when it is scheduled and the keys
      are unique, so the minimum of ``nxt`` and the heap is exactly
      what push-then-pop would give.  An initiation due at or before
      both the heap's top and ``nxt`` fires first — initiation seqs
      are below every heap seq, so it wins a time tie — and only then
      is ``nxt`` pushed;
    * in the synchronous model — every tree link has one delay ``d`` in
      both directions, ``service_time == 0``, nothing seeded on ``heap``
      (so no closed loop, whose driver seeds its ``n >= 1`` issue events
      there) — the queue is a ``deque``: each transition schedules
      at most one event, at ``now + d`` with the next seq, and ``now``
      never decreases, so events are appended in ``(time, seq)`` order
      and the front is always the heap's minimum.  The same event fires
      with the same seq, and ``max_events`` counts the same events.
      The queue is chosen before the loop, so the heap path pays no
      per-event test;
    * with a service time on an open loop (no driver) with no fault plan
      and one delay ``d`` on every link, the arrival stage folds into
      the send.  A message sent at ``(t, s)`` arrives at ``t + d``, and
      sends happen in nondecreasing ``(time, seq)`` order, so every node
      receives its messages in send order.  The send can therefore make
      the arrival's ``busy_until`` update itself: the same updates in
      the same order, with the same float operations.  It schedules the
      dispatch with the next seq.  The kernel orders same-time
      dispatches by the seqs they took at their arrivals, which also
      come in send order, so the dispatches fire in the same order, and
      the schedule initiations keep seqs below all of them.  The elided
      arrival counts towards ``max_events`` at the send, so the run's
      event total is unchanged: it raises if and only if the kernel's
      run does, with the same text.  Only an aborted run's emitted
      prefix can end earlier, since the count runs ahead of the event
      it stands for.  Like the queue, the fold is chosen before the loop;
    * a dropped send consumes no sequence number and no latency draw —
      the message engine never reaches the latency draw for it either —
      while crash events and dropped initiations are fired events and
      count towards ``max_events``;
    * the per-node busy-until service model is replayed
      arithmetically, the acknowledgements' shortest-path routing is
      the network's own :class:`~repro.net.router.Router`, and
      stochastic latency models draw from the same ``spawn_rng(seed,
      "network-latency")`` stream in the same order as
      :class:`~repro.core.message.Network` would — one draw per
      tree-link traversal, one per edge of a routed path;
    * neither engine clamps a link's deliveries to its send order, and
      neither needs to: a tree edge is crossed by at most one arrow — a
      pointer or an in-flight message — a send turns the sender's
      pointer into the message, a delivery turns it back, and a drop or
      a crash only removes arrows.  No edge ever carries two queue
      messages, so none can overtake another.  ``tests/small_models.py``
      asserts this on every instance it enumerates, degraded runs
      included, and :class:`repro.monitors.ArrowMonitor` on every run it
      watches.
    """
    service = require_time("service_time", service_time, NetworkError)
    n = tree.num_nodes
    root = tree.root
    parent = list(tree.parent)
    weight, det_up, det_down, one_delay = _link_tables(
        graph, parent, root, latency, rng
    )
    sample = latency.sample
    if one_delay and service == 0.0 and not heap:
        # The synchronous model: events arrive in (time, seq) order, so a
        # FIFO's front is the heap's minimum (see "Why bit-identical").
        heap = deque()
        push, pop, pushpop = deque.append, deque.popleft, _fifo_pushpop
    else:
        push, pop, pushpop = heappush, heappop, heappushpop
    # With a service time on an open, fault-free run over one link delay,
    # a send joins its destination's queue at once: nodes receive in send
    # order, so the arrival stage folds into the send (see "Why
    # bit-identical").
    fold = driver is None and faults is None and one_delay and service > 0.0
    if fold and n > 1:  # a one-node run sends nothing
        link_delay = det_up[0 if root else 1]

    # Protocol state (ArrowNode.init_pointers, flattened).
    link = parent[:]
    link[root] = root
    last_rid = [NO_RID] * n
    last_rid[root] = ROOT_RID
    busy_until = [0.0] * n  # Network._busy_until

    if driver is not None:
        (remaining, issue_times, owners, ack_times, hops_list, latencies, think,
         reply_delay, directory) = driver
        if directory is not None:
            cs, add_interval = directory[0], directory[1].append
            # rid -> the rid queued behind it, and the request that left
            # the object idle at its origin: first the root's virtual one.
            successor = [NO_RID] * sum(remaining)
            idle = ROOT_RID
    else:
        add_rid = result.rids.append
        add_pred = result.predecessors.append
        add_node = result.informed_nodes.append
        add_time = result.completed_at.append
        add_hops = result.hops.append

    # Without a service time there is no service stage to pass through:
    # a message is scheduled straight as its dispatch.
    arrive, ack_arrive, object_arrive = (
        (_ARRIVE, _ACK_ARRIVE, _OBJECT_ARRIVE)
        if service > 0.0
        else (_DISPATCH, _ACK_DISPATCH, _ACQUIRE)
    )
    if on_event is not None:
        stream = EventStream(on_event)
        events = stream.events
        emit = stream.append
        if faults is not None:
            faults.emit = emit
    else:
        emit = None
    limit = float("inf") if max_events is None else max_events
    m = len(init_times)
    seq = m + len(heap)
    i = 0
    fired = 0
    messages = 0
    now = 0.0

    nxt = None  # the event the last transition scheduled, not yet pushed
    try:
        while True:
            if (
                i < m
                and (not heap or init_times[i] <= heap[0][0])
                and (nxt is None or init_times[i] <= nxt[0])
            ):
                if nxt is not None:
                    push(heap, nxt)
                    nxt = None
                now = init_times[i]
                v = init_nodes[i]
                rid = i
                i += 1
                tag = _ISSUE
            elif nxt is not None:
                now, _, tag, v, src, rid, hops = pushpop(heap, nxt)
                nxt = None
            elif heap:
                now, _, tag, v, src, rid, hops = pop(heap)
            else:
                break
            fired += 1
            if fired > limit:
                _raise_livelock(max_events)

            if tag == _DISPATCH:
                # Path reversal (ArrowNode.on_message).
                if faults is not None:
                    if faults.drops_arrival(src, v, rid, now):
                        # v is down — with a service stage, it crashed
                        # while the message waited for service.
                        continue
                    faults.in_flight -= 1
                if emit is not None:
                    if len(events) >= EVENT_CHUNK:
                        stream.flush()
                    emit(("deliver", rid, v, src, now))
            else:
                if tag != _ISSUE:
                    if tag & 1:
                        # Serialise handling at v (Network._arrive): the
                        # handler runs as its own dispatch event after the
                        # service delay.
                        if (
                            faults is not None
                            and tag == _ARRIVE
                            and faults.drops_arrival(src, v, rid, now)
                        ):
                            # A down node's queue never accepts the message.
                            continue
                        begin = busy_until[v]
                        if now > begin:
                            begin = now
                        finish = begin + service
                        busy_until[v] = finish
                        nxt = (finish, seq, tag + 1, v, src, rid, hops)
                        seq += 1
                        continue
                    if tag == _ACK_DISPATCH:
                        # An acknowledgement is handled at its origin
                        # (the message harness's ack): record, then re-issue after the
                        # think time — or, without one, right here.
                        ack_times[rid] = now
                        if think > 0.0:
                            if remaining[v] > 0:
                                nxt = (now + think, seq, _ISSUE, v, -1, -1, 0)
                                seq += 1
                            continue
                    elif tag == _CRASH:
                        faults.crash(v, now)
                        link[v] = v
                        continue
                    elif tag == _ACQUIRE:
                        release = now + cs
                        add_interval((now, release, v))
                        nxt = (release, seq, _RELEASE, v, -1, rid, 0)
                        seq += 1
                        continue
                    else:
                        # The release: ship the object to rid's successor if
                        # known (never v's own: v has no other request out),
                        # else leave it idle at v; then v re-issues below.
                        succ = successor[rid]
                        if succ == NO_RID:
                            idle = rid
                        else:
                            origin = owners[succ]
                            at = now + reply_delay(v, origin)[0]
                            push(heap, (at, seq, object_arrive, origin, v, succ, 0))
                            seq += 1
                            messages += 1
                # Initiation (the harness's issue + ArrowNode.initiate).
                if driver is not None:
                    if remaining[v] <= 0:
                        continue
                    remaining[v] -= 1
                    rid = len(owners)
                    owners.append(v)
                    issue_times.append(now)
                if faults is not None:
                    # The quiescent-point repair check runs first, so the
                    # request sees a consistent configuration whenever one
                    # is restorable.
                    if faults.repair_due():
                        sink, er = faults.repair(link, now)
                        last_rid[sink] = er
                    if faults.down[v]:
                        faults.drop_initiation(rid, v, now)
                        continue
                if emit is not None:
                    if len(events) >= EVENT_CHUNK:
                        stream.flush()
                    emit(("init", rid, v, now))
                pred = last_rid[v]
                last_rid[v] = rid
                src = v
                hops = 0

            x = link[v]
            link[v] = src
            if x == v:
                # v is the sink: rid is queued behind v's last request —
                # its own previous one when rid never left v (hops == 0).
                if hops:
                    pred = last_rid[v]
                if emit is not None:
                    emit(("complete", rid, pred, v, now, hops))
                if driver is None:
                    add_rid(rid)
                    add_pred(pred)
                    add_node(v)
                    add_time(now)
                    add_hops(hops)
                    continue
                if directory:
                    # rid is queued behind pred: ship the object now if pred
                    # left it idle here (the sink is pred's origin), else at
                    # pred's release.
                    if pred != idle:
                        successor[pred] = rid
                        continue
                    idle = NO_RID
                    origin = owners[rid]
                    if origin == v:
                        nxt = (now, seq, _ACQUIRE, v, -1, rid, 0)
                    else:
                        at = now + reply_delay(v, origin)[0]
                        nxt = (at, seq, object_arrive, origin, v, rid, 0)
                        messages += 1
                    seq += 1
                    continue
                hops_list.append(hops)
                latencies.append(now - issue_times[rid])
                # Acknowledge the requester with one queue_reply routed
                # over G (send_routed); a self-reply delivers after zero
                # delay as its own event, with no latency samples.
                origin = owners[rid]
                at = now if origin == v else now + reply_delay(v, origin)[0]
                nxt = (at, seq, ack_arrive, origin, -1, rid, 0)
                seq += 1
                messages += 1
                continue

            # One link traversal v -> x (send_link / forward), fault
            # checks first: a dropped send never transmits.
            hops += 1
            if emit is not None:
                emit(("send", rid, v, x, now))
            if fold:
                # The message's arrival, counted as the event it would be.
                fired += 1
                if fired > limit:
                    _raise_livelock(max_events)
                begin = now + link_delay  # or later, if x is still busy
                if busy_until[x] > begin:
                    begin = busy_until[x]
                busy_until[x] = finish = begin + service
                nxt = (finish, seq, _DISPATCH, x, v, rid, hops)
                seq += 1
                messages += 1
                continue
            if faults is not None:
                if faults.drops_send(v, x, rid, now):
                    continue
                faults.in_flight += 1
            downward = parent[x] == v
            if det_up is None:
                delay = sample(v, x, weight[x if downward else v], rng)
            else:
                delay = det_down[x] if downward else det_up[v]
            nxt = (now + delay, seq, arrive, x, v, rid, hops)
            seq += 1
            messages += 1

        if faults is not None and faults.degraded:
            # The heap drained, so the run is quiescent; no request follows
            # to see the repaired sink's epoch restamp.
            faults.repair(link, now)
    finally:
        if emit is not None:
            stream.flush()
    return now, messages, link


def _open_loop(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    faults,
    *,
    latency: LatencyModel | None,
    seed: int,
    service_time: float,
    max_events: int | None,
    on_event: EventSink | None,
) -> tuple[RunResult, list[int]]:
    """The open loop, with a fault state or without (``faults=None``).

    Returns the result and the final pointers.  :func:`run_arrow_fast`
    and :func:`repro.faults.run_arrow_faulted` share this prologue and
    epilogue (the message engine's twin is
    :func:`repro.core.message._open_loop`); the callers have checked the
    inputs.  The message harness schedules a plan's crash events right
    after the m initiations, so they own seqs m..m+c-1;
    ``faults.crashes`` is in (time, node) order, which makes the seeded
    list a heap as it stands.
    """
    m = len(schedule)
    heap = [] if faults is None else [
        (t, m + k, _CRASH, v, -1, -1, 0) for k, (v, t) in enumerate(faults.crashes)
    ]
    result = RunResult(schedule)
    makespan, messages, link = _arrow_loop(
        graph,
        tree,
        latency if latency is not None else UnitLatency(),
        service_time,
        spawn_rng(seed, "network-latency"),
        schedule.times,
        schedule.nodes,
        heap,
        max_events,
        on_event,
        result=result,
        faults=faults,
    )
    _finish_result(result, makespan, messages)
    if faults is None and len(result.rids) != m:
        raise ProtocolError(f"arrow run completed {len(result.rids)} of {m} requests")
    return result, link


def run_arrow_fast(
    graph: Graph,
    tree: SpanningTree,
    schedule: RequestSchedule,
    *,
    latency: LatencyModel | None = None,
    seed: int = 0,
    service_time: float = 0.0,
    max_events: int | None = None,
    on_event=None,
) -> RunResult:
    """Drop-in fast replacement for :func:`repro.core.message.run_arrow`.

    Accepts the same knobs; the returned result is bit-identical to the
    message simulator's.  ``on_event``, when set, is called with the
    protocol trace as lists of event tuples, a chunk at a time and in the
    order the message engine emits them (:mod:`repro.core.event_stream`;
    the vocabulary is in :mod:`repro.monitors`); ``None`` (the default)
    keeps the hot loop emission-free.
    """
    schedule.validate_nodes(tree.num_nodes)
    result, _ = _open_loop(
        graph,
        tree,
        schedule,
        None,
        latency=latency,
        seed=seed,
        service_time=service_time,
        max_events=max_events,
        on_event=on_event,
    )
    return result
