"""The mutation matrix: which checks kill which mutants of the two fast loops
and the router they share with the network.

Each mutant in :data:`MUTANTS` is one exact-match text edit of
``core/fast_arrow._arrow_loop``, ``core/fast_closed_loop._central_loop``
(the directory stages of both, and the open-loop baselines' stages of
the second, included) or ``net/router.Router`` — an off-by-one hop, a
swapped tie-break, a wrong dispatch tag, a dropped acknowledgement,
service at the wrong stage, a reordered latency draw, the two
queue-choice edits of ``_arrow_loop``'s FIFO test, the busy-queue fold
ignoring the queue, uncounted, or taken outside its configuration, a
centre route read
in the wrong direction, BFS routes on a weighted graph, a local hand-off
acquired inline, a LIFO home queue, a cinform to the wrong node, path
shorting off, … .  The edit
is applied to a temporary copy of the repository; the working tree never
changes.  Every mutant then runs through each column of :data:`COLUMNS`:

``slice`` / ``slice-props`` / ``slice-eq``
    the small-model slice (``small_models.SLICE``, what
    ``tests/test_small_models.py`` runs) three ways: the full ``check``;
    its properties, the deep ``ArrowMonitor`` and the fault books only
    (the message engine never runs); and fast == message equality only
    (streams and results, no property);
``differential`` / ``closed-parity`` / ``fifo`` / ``properties``
    the sampled suites, each file (directory) alone, every failing test
    id recorded;
``rest``
    tier-1 without those four paths: what would still kill the mutant
    if they went;
``tier-1``
    the whole tier-1 run (it contains ``rest``, so once ``rest`` kills a
    mutant this column takes that mark without running again).

Both tier-1 columns leave out ``tests/test_mutants.py``: it checks that
every edit matches the unmutated source, so in a mutated copy it fails
by construction and would kill every mutant, equivalent ones included.

A column kills a mutant when it fails (``K``) or outlives its time
limit (``T``: a hang fails CI too); ``.`` is a survivor.  Pytest
columns run with ``--hypothesis-seed=0``, so a sampled suite's kills
are reproducible, and without Hypothesis's shrinking, which only costs
time here.  The unmutated copy runs first and must pass every column,
or the matrix is void.  Below the matrix, each mutant that ``rest`` misses lists the
sampled ids that kill it.

A mutant that no execution can tell apart from the loop carries
``equivalent``: the one-line argument why.  The script exits 1 when a
mutant without that mark survives the ``tier-1`` column, a marked one
is killed by any column, or one of :data:`SLICE_PROPS_KILLS` survives
``slice-props``.  Run (about 20 minutes on two cores;
``NAME ...`` runs only those mutants)::

    PYTHONPATH=src python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ARROW = "src/repro/core/fast_arrow.py"
CENTRAL = "src/repro/core/fast_closed_loop.py"
ROUTER = "src/repro/net/router.py"


@dataclass(frozen=True)
class Mutant:
    """Replace the one occurrence of ``old`` in ``path`` by ``new``."""

    path: str
    old: str
    new: str
    equivalent: str = ""


_FIFO_TEST = "if one_delay and service == 0.0 and not heap:"
_FOLD_TEST = "fold = driver is None and faults is None and one_delay and service > 0.0"
_FOLD_COUNT = "                # The message's arrival, counted as the event it would be.\n"
_SEND = """\
            if faults is not None:
                if faults.drops_send(v, x, rid, now):
                    continue
                faults.in_flight += 1
            downward = parent[x] == v
            if det_up is None:
                delay = sample(v, x, weight[x if downward else v], rng)
            else:
                delay = det_down[x] if downward else det_up[v]
"""
_SEND_DRAW_FIRST = """\
            downward = parent[x] == v
            if det_up is None:
                delay = sample(v, x, weight[x if downward else v], rng)
            else:
                delay = det_down[x] if downward else det_up[v]
            if faults is not None:
                if faults.drops_send(v, x, rid, now):
                    continue
                faults.in_flight += 1
"""

# The home directory's release: the notice to the home, then the next
# request -- and the two swapped.
_HOME_RELEASE = """\
                if tag == _RELEASE:  # tell the home, then request again
                    at = now + delay_hops(v, center)[0]
                    heappush(heap, (at, seq, ddone_arrive, center, v, -1, 0))
                    seq += 1
                    messages += 1
                # One routed dreq to the home, the home's own too.
                if remaining[v] <= 0:
                    continue
                remaining[v] -= 1
                nxt = (now + delay_hops(v, center)[0], seq, dreq_arrive, center, v, -1, 0)
"""
_HOME_RELEASE_REISSUE_FIRST = """\
                if remaining[v] > 0:
                    remaining[v] -= 1
                    nxt = (now + delay_hops(v, center)[0], seq, dreq_arrive, center, v, -1, 0)
                    seq += 1
                    messages += 1
                if tag != _RELEASE:
                    continue
                at = now + delay_hops(v, center)[0]
                heappush(heap, (at, seq, ddone_arrive, center, v, -1, 0))
"""

#: Name -> mutant; ``arrow-*`` edit ``_arrow_loop``, ``central-*``
#: ``closed_loop_centralized_fast``'s ``_central_loop``, ``dir-arrow-*``
#: and ``dir-home-*`` the directory stages of those two loops,
#: ``open-central-*`` and ``open-adaptive-*`` the stages of
#: ``run_centralized`` and ``run_adaptive`` in ``_central_loop``,
#: ``router-*`` ``Router``.
MUTANTS = {
    "arrow-init-tie-queue": Mutant(
        ARROW, "(not heap or init_times[i] <= heap[0][0])",
        "(not heap or init_times[i] < heap[0][0])",
    ),
    "arrow-init-tie-held": Mutant(
        ARROW, "(nxt is None or init_times[i] <= nxt[0])",
        "(nxt is None or init_times[i] < nxt[0])",
    ),
    "arrow-fifo-ignores-service": Mutant(
        ARROW, _FIFO_TEST, "if one_delay and not heap:"
    ),
    "arrow-fifo-ignores-delays": Mutant(
        ARROW, _FIFO_TEST, "if service == 0.0 and not heap:"
    ),
    "arrow-fifo-drops-seeded": Mutant(
        ARROW, _FIFO_TEST, "if one_delay and service == 0.0:"
    ),
    "arrow-sink-hop-test": Mutant(
        ARROW, "                if hops:\n", "                if hops > 1:\n"
    ),
    "arrow-hops-off-by-one": Mutant(ARROW, "add_hops(hops)", "add_hops(hops + 1)"),
    "arrow-closed-hops-off-by-one": Mutant(
        ARROW, "hops_list.append(hops)", "hops_list.append(hops + 1)"
    ),
    "arrow-service-tag": Mutant(
        ARROW, "nxt = (finish, seq, tag + 1, v, src, rid, hops)",
        "nxt = (finish, seq, _ACK_DISPATCH, v, src, rid, hops)",
    ),
    "arrow-zero-service-stage": Mutant(
        ARROW, "        if service > 0.0\n        else (_DISPATCH, _ACK_DISPATCH, _ACQUIRE)",
        "        if service >= 0.0\n        else (_DISPATCH, _ACK_DISPATCH, _ACQUIRE)",
    ),
    "arrow-ack-skips-service": Mutant(
        ARROW, "(_ARRIVE, _ACK_ARRIVE, _OBJECT_ARRIVE)",
        "(_ARRIVE, _ACK_DISPATCH, _OBJECT_ARRIVE)",
    ),
    "arrow-service-ignores-queue": Mutant(
        ARROW, "finish = begin + service\n                        busy_until[v] = finish",
        "finish = now + service\n                        busy_until[v] = finish",
    ),
    "arrow-send-seq-kept": Mutant(
        ARROW, "nxt = (now + delay, seq, arrive, x, v, rid, hops)\n            seq += 1\n",
        "nxt = (now + delay, seq, arrive, x, v, rid, hops)\n",
    ),
    "arrow-ack-uncounted": Mutant(
        ARROW, "nxt = (at, seq, ack_arrive, origin, -1, rid, 0)\n"
        "                seq += 1\n                messages += 1\n",
        "nxt = (at, seq, ack_arrive, origin, -1, rid, 0)\n                seq += 1\n",
    ),
    "arrow-self-ack-routed": Mutant(
        ARROW, "at = now if origin == v else now + reply_delay(v, origin)[0]",
        "at = now + reply_delay(v, origin)[0]",
        equivalent="a route from a node to itself has no edge: delay_hops "
        "draws nothing and returns 0.0, and now + 0.0 == now",
    ),
    "arrow-draw-before-drop": Mutant(ARROW, _SEND, _SEND_DRAW_FIRST),
    "arrow-directions-swapped": Mutant(
        ARROW, "delay = det_down[x] if downward else det_up[v]",
        "delay = det_up[x] if downward else det_down[v]",
    ),
    "arrow-reissue-past-budget": Mutant(
        ARROW, "                        if remaining[v] > 0:\n",
        "                        if remaining[v] >= 0:\n",
    ),
    "arrow-crash-keeps-pointer": Mutant(
        ARROW, "faults.crash(v, now)\n                        link[v] = v\n",
        "faults.crash(v, now)\n",
    ),
    "arrow-livelock-early": Mutant(
        ARROW, "            fired += 1\n            if fired > limit:",
        "            fired += 1\n            if fired >= limit:",
    ),
    "arrow-fold-ignores-queue": Mutant(
        ARROW, "                if busy_until[x] > begin:\n                    begin = busy_until[x]\n",
        "",
    ),
    "arrow-fold-arrival-uncounted": Mutant(
        ARROW, _FOLD_COUNT + "                fired += 1\n", _FOLD_COUNT
    ),
    "arrow-fold-two-delays": Mutant(
        ARROW, _FOLD_TEST, "fold = driver is None and faults is None and service > 0.0"
    ),
    "arrow-fold-under-faults": Mutant(
        ARROW, _FOLD_TEST, "fold = driver is None and one_delay and service > 0.0"
    ),
    "arrow-fold-closed-loop": Mutant(
        ARROW, _FOLD_TEST, "fold = faults is None and one_delay and service > 0.0"
    ),
    "central-service-ignores-queue": Mutant(
        CENTRAL, "finish = begin + service", "finish = now + service"
    ),
    "central-local-hop": Mutant(
        CENTRAL, "            src = v\n            hops = 0\n",
        "            src = v\n            hops = 1\n",
    ),
    "central-self-ack-routed": Mutant(
        CENTRAL, "at = now if src == center else now + back[0]",
        "at = now + back[0]",
        equivalent="a route from the centre to itself has no edge: its table "
        "entry is (0.0, 0), what delay_hops returns for it without a draw, "
        "and now + 0.0 == now",
    ),
    "central-table-direction": Mutant(
        CENTRAL, "back = from_center[src]", "back = to_center[src]"
    ),
    "central-zero-think-event": Mutant(CENTRAL, "if think > 0.0:", "if think >= 0.0:"),
    "central-creq-uncounted": Mutant(
        CENTRAL, "nxt = (now + delay, seq, arrive, center, v, rid, hops)\n"
        "                seq += 1\n                messages += 1\n",
        "nxt = (now + delay, seq, arrive, center, v, rid, hops)\n                seq += 1\n",
    ),
    "central-livelock-early": Mutant(CENTRAL, "if fired > limit:", "if fired >= limit:"),
    "dir-arrow-local-inline": Mutant(
        ARROW, "                        nxt = (now, seq, _ACQUIRE, v, -1, rid, 0)\n",
        "                        release = now + cs\n"
        "                        add_interval((now, release, v))\n"
        "                        nxt = (release, seq, _RELEASE, v, -1, rid, 0)\n",
    ),
    "dir-arrow-object-skips-service": Mutant(
        ARROW, "(_ARRIVE, _ACK_ARRIVE, _OBJECT_ARRIVE)", "(_ARRIVE, _ACK_ARRIVE, _ACQUIRE)"
    ),
    "dir-arrow-release-route-reversed": Mutant(
        ARROW, "at = now + reply_delay(v, origin)[0]\n                            push(",
        "at = now + reply_delay(origin, v)[0]\n                            push(",
    ),
    "dir-arrow-handoff-seq-kept": Mutant(
        ARROW, "push(heap, (at, seq, object_arrive, origin, v, succ, 0))\n"
        "                            seq += 1\n",
        "push(heap, (at, seq, object_arrive, origin, v, succ, 0))\n",
    ),
    "dir-arrow-handoff-uncounted": Mutant(
        ARROW, "nxt = (at, seq, object_arrive, origin, v, rid, 0)\n"
        "                        messages += 1\n",
        "nxt = (at, seq, object_arrive, origin, v, rid, 0)\n",
    ),
    "dir-home-queue-lifo": Mutant(CENTRAL, "v = queue.popleft()", "v = queue.pop()"),
    "dir-home-done-skips-service": Mutant(
        CENTRAL, "_DFWD_ARRIVE + stage, _DDONE_ARRIVE + stage", "_DFWD_ARRIVE + stage, _DDONE"
    ),
    "dir-home-transfers-overlap": Mutant(CENTRAL, "if busy or not queue:", "if not queue:"),
    "dir-home-object-route-reversed": Mutant(
        CENTRAL, "delay_hops(v, rid)[0], seq, object_arrive", "delay_hops(rid, v)[0], seq, object_arrive"
    ),
    "dir-home-reissue-first": Mutant(CENTRAL, _HOME_RELEASE, _HOME_RELEASE_REISSUE_FIRST),
    "open-central-inform-requester": Mutant(
        CENTRAL, "delay, more = delay_hops(center, pred_node)\n"
        "                    nxt = (now + delay, seq, cinform_arrive, pred_node, pred,",
        "delay, more = delay_hops(center, src)\n"
        "                    nxt = (now + delay, seq, cinform_arrive, src, pred,",
    ),
    "open-central-own-creq-routed": Mutant(
        CENTRAL, "elif tag == _CINIT and v != center:", "elif tag == _CINIT:"
    ),
    "open-central-tail-node-kept": Mutant(
        CENTRAL, "tail_rid, tail_node = rid, src", "tail_rid = rid"
    ),
    "open-central-inform-hops-dropped": Mutant(
        CENTRAL, "cinform_arrive, pred_node, pred, rid, hops + more)",
        "cinform_arrive, pred_node, pred, rid, more)",
    ),
    "open-central-creq-skips-service": Mutant(
        CENTRAL, "creq_arrive, cinform_arrive = _CREQ_ARRIVE + stage,",
        "creq_arrive, cinform_arrive = _CREQ,",
    ),
    "open-adaptive-no-path-shorting": Mutant(
        CENTRAL, "old, last[v] = last[v], src", "old = last[v]\n"
        "                    if tag == _AINIT:\n                        last[v] = src",
    ),
    "open-adaptive-local-rid-stale": Mutant(
        CENTRAL, "if tag == _AINIT:\n                        last_rid[v] = rid",
        "if tag == _AINIT and old != v:\n                        last_rid[v] = rid",
    ),
    "open-adaptive-skips-service": Mutant(
        CENTRAL, "nta_arrive = _NTA_ARRIVE + stage", "nta_arrive = _NTA"
    ),
    "router-bfs-on-weighted": Mutant(
        ROUTER, "bfs_predecessors if self.graph.is_unit_weighted() else dijkstra",
        "bfs_predecessors",
    ),
}

#: The mutants the ``slice-props`` column must kill: the slice's properties,
#: monitor and fault books alone, without fast == message equality.  It only
#: grows; the non-equivalent mutants outside it are the ones parity alone
#: still kills (ROADMAP item 15).
SLICE_PROPS_KILLS = frozenset({
    "arrow-init-tie-queue", "arrow-init-tie-held", "arrow-fifo-ignores-delays",
    "arrow-fifo-drops-seeded", "arrow-sink-hop-test", "arrow-hops-off-by-one",
    "arrow-closed-hops-off-by-one", "arrow-service-tag", "arrow-zero-service-stage",
    "arrow-ack-skips-service", "arrow-service-ignores-queue", "arrow-send-seq-kept",
    "arrow-ack-uncounted", "arrow-directions-swapped", "arrow-reissue-past-budget",
    "arrow-crash-keeps-pointer", "arrow-livelock-early", "arrow-fold-ignores-queue",
    "arrow-fold-arrival-uncounted", "arrow-fold-two-delays", "arrow-fold-under-faults",
    "central-service-ignores-queue", "central-local-hop", "central-table-direction",
    "central-zero-think-event", "central-creq-uncounted", "central-livelock-early",
    "dir-arrow-local-inline", "dir-arrow-object-skips-service", "dir-arrow-handoff-uncounted",
    "dir-home-done-skips-service", "dir-home-transfers-overlap",
    "open-central-inform-requester", "open-central-own-creq-routed",
    "open-central-tail-node-kept", "open-central-inform-hops-dropped",
    "open-central-creq-skips-service", "open-adaptive-no-path-shorting",
    "open-adaptive-local-rid-stale", "open-adaptive-skips-service",
})

#: The sampled parity and property suites, by column.
SAMPLED = {
    "differential": "tests/core/test_fast_arrow_differential.py",
    "closed-parity": "tests/core/test_fast_closed_loop_parity.py",
    "fifo": "tests/core/test_fifo_queue.py",
    "properties": "tests/properties",
}

#: The edit-text guard, which no mutated copy passes (see above).
_NO_GUARD = "--ignore=tests/test_mutants.py"

#: Column -> ``("check", variant)`` or ``("pytest", paths, pytest flags)``.
COLUMNS = {
    "slice": ("check", "full"),
    "slice-props": ("check", "properties"),
    "slice-eq": ("check", "equality"),
    **{name: ("pytest", (path,), ()) for name, path in SAMPLED.items()},
    "rest": ("pytest", (), ("-x", _NO_GUARD, *(f"--ignore={p}" for p in SAMPLED.values()))),
    "tier-1": ("pytest", (), ("-x", _NO_GUARD)),
}

#: Seconds before a column counts as hung (several times its unmutated
#: time on two busy cores).
TIME_LIMIT = {"rest": 450, "tier-1": 450}
DEFAULT_TIME_LIMIT = 150


# ----------------------------------------------------------------------
# the three ways to run the slice (in a child, inside the mutated copy)
# ----------------------------------------------------------------------
def _properties_only(sm):
    """``check`` without the message engine: the fast run, watched by a deep
    monitor, equal to an unmonitored one, one message per edge."""

    def fast_only(run, tree, expected):
        bare = run("fast", None)
        fast, events, monitor = sm._watched(run, "fast", tree, expected)
        assert fast == bare, "a monitored run differs from an unmonitored one"
        sm._one_message_per_edge(tree.parent, events)
        return fast, monitor, events

    sm._both_engines = fast_only
    sm._same_results = lambda run: run("fast")


def _equality_only(sm):
    """``check`` as fast == message alone: raw streams and results."""

    def equal_only(run, tree, expected):
        outs, streams = [], []
        for engine in ("fast", "message"):
            events = []
            outs.append(run(engine, events.extend))
            streams.append(events)
        sm._same_stream(*streams)
        assert outs[0] == outs[1], "results differ across engines"
        return outs[0], None, streams[0]

    sm._both_engines = equal_only
    for name in ("_open_properties", "_fault_properties", "_closed_properties",
                 "_directory_properties", "_baseline_properties"):
        setattr(sm, name, lambda *args: None)


_VARIANTS = {"full": lambda sm: None, "properties": _properties_only,
             "equality": _equality_only}


def run_variant(variant: str) -> int:
    """Run the slice under one variant of ``check``; 1 at the first failure."""
    import small_models as sm

    _VARIANTS[variant](sm)
    for name, axis in sm.SLICE.items():
        for inst in sm.AXES[name](axis):
            try:
                sm.check(inst)
            except sm.SmallModelFailure as exc:
                print(f"{name}: {exc}")
                return 1
    return 0


_CHILD = (
    "import sys; sys.path.insert(0, 'tests'); import mutants; "
    "sys.exit(mutants.run_variant(sys.argv[1]))"
)
# Pytest with Hypothesis's shrink phases off: a failing example fails the
# test whether or not it is then minimised, so the verdict is the same.
_PYTEST = (
    "import sys, hypothesis, pytest; hypothesis.settings.register_profile("
    "'mutants', phases=[hypothesis.Phase.explicit, hypothesis.Phase.reuse, "
    "hypothesis.Phase.generate]); sys.exit(pytest.main(sys.argv[1:]))"
)


# ----------------------------------------------------------------------
# one mutant, every column
# ----------------------------------------------------------------------
def _copy(mutant: Mutant | None) -> Path:
    root = Path(tempfile.mkdtemp(prefix="mutant-"))
    shutil.copytree(
        REPO, root / "repo",
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"
        ),
    )
    if mutant is not None:
        path = root / "repo" / mutant.path
        text = path.read_text()
        path.write_text(text.replace(mutant.old, mutant.new))
    return root


def _failed_ids(output: str) -> list[str]:
    return [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]


def _run_column(copy: Path, name: str) -> tuple[str, list[str]]:
    """``(mark, failing test ids)`` of one column in one copy."""
    kind, *spec = COLUMNS[name]
    if kind == "check":
        cmd = [sys.executable, "-c", _CHILD, spec[0]]
    else:
        paths, flags = spec
        cmd = [sys.executable, "-c", _PYTEST, "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants", "--hypothesis-seed=0", *flags, *paths]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIME_LIMIT.get(name, DEFAULT_TIME_LIMIT),
        )
    except subprocess.TimeoutExpired:
        return "T", []
    if proc.returncode == 0:
        return ".", []
    return "K", _failed_ids(proc.stdout)


def run_mutant(mutant: Mutant | None) -> dict[str, tuple[str, list[str]]]:
    """Every column's outcome for one mutant (``None``: the unmutated copy).

    Tier-1 contains ``rest``: once ``rest`` kills the mutant, the
    ``tier-1`` column takes its mark instead of running again.
    """
    root = _copy(mutant)
    try:
        row = {}
        for name in COLUMNS:
            if name == "tier-1" and row["rest"][0] in "KT":
                row[name] = row["rest"]
            else:
                row[name] = _run_column(root / "repo", name)
        return row
    finally:
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _check_edits(names):
    for name in names:
        m = MUTANTS[name]
        found = (REPO / m.path).read_text().count(m.old)
        if found != 1:
            raise SystemExit(f"{name}: the edit matches {found} times in {m.path}")


def _killed(row) -> bool:
    return any(mark in "KT" for mark, _ in row.values())


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    _check_edits(names)
    start = time.perf_counter()
    baseline = run_mutant(None)
    if _killed(baseline):
        print("the unmutated copy fails:", {c: m for c, (m, _) in baseline.items()})
        return 2
    rows = {}
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        jobs = {name: pool.submit(run_mutant, MUTANTS[name]) for name in names}
        for name, job in jobs.items():
            rows[name] = job.result()
            print(f"  {name} done at {time.perf_counter() - start:.0f} s", file=sys.stderr)

    width = max(map(len, names)) + 2
    print("mutant".ljust(width) + " ".join(COLUMNS))
    bad = []
    for name in names:
        row, mark = rows[name], MUTANTS[name].equivalent
        cells = " ".join(row[c][0].center(len(c)) for c in COLUMNS)
        print(f"{name:<{width}}{cells}{'  (equivalent)' if mark else ''}")
        if mark and _killed(row):
            bad.append(f"{name} is marked equivalent but a column kills it")
        elif not mark and row["tier-1"][0] not in "KT":
            bad.append(f"{name} survives tier-1")
        if name in SLICE_PROPS_KILLS and row["slice-props"][0] not in "KT":
            bad.append(f"{name} survives slice-props")
    print()
    for name in names:
        row = rows[name]
        ids = [i for c in SAMPLED for i in row[c][1]]
        if row["rest"][0] not in "KT" and ids:
            print(f"{name}: only sampled ids kill it ({len(ids)}):")
            for test_id in ids:
                print(f"    {test_id}")
    for line in bad:
        print(line)
    print(f"{len(names)} mutants, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
