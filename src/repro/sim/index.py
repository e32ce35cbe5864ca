"""Incremental cluster-state indexes for the scaled simulation core.

The driver reads the cluster through one interface, chosen once per
run.  :class:`NaiveClusterView` does O(n_servers) work at every call:
a full snapshot rebuild per placement attempt, full scans for the
powered-server gauge and the idle-cluster check.  At paper scale
(tens of servers) that is invisible; at 100x-1000x it dominates the
run.  :class:`IndexedClusterView` keeps three structures instead:

* :class:`ClusterIndex` -- O(1) counters (powered-on servers, active
  VMs, failed servers) plus a dirty set of server slots whose snapshot
  changed since the last ``views()`` call.  Every mutation is funneled
  through :class:`repro.sim.server.ServerRuntime` host/unhost/power/
  fail/recover helpers, so the counters cannot drift from the ground
  truth; :meth:`ClusterIndex.audit` re-derives them for the property
  suite.
* :class:`ServerViews` -- the cached snapshot list handed to
  strategies.  Between events only the dirty slots are re-snapshotted
  in place; membership (which servers appear at all) is rebuilt only
  when a failure or recovery flips ``members_stale``.
* :class:`_FreeLevel` -- a per-multiplex free-capacity index over the
  visible views: an array of free-slot counts plus a 64-view block
  occupancy summary, so strategies can iterate feasible candidates in
  list order in O(n/64 + candidates) instead of scanning every view.
  Strategies reach it through the duck-typed
  :meth:`ServerViews.free_candidates` hook (no import edge from
  ``strategies`` back into ``sim``).

Index invariants (checked by ``tests/sim/test_index.py`` and the
bit-identity property suite):

* ``powered == sum(1 for s in servers if s.powered_on)``
* ``active_vms == sum(s.n_vms for s in servers)``
* ``failed == sum(1 for s in servers if s.failed)``
* after ``views()``: ``visible[i]`` equals the freshly built snapshot
  of the i-th non-failed server, and every ``_FreeLevel.free[i]``
  equals ``visible[i].free_slots(multiplex)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.strategies.base import ServerView
from repro.testbed.spec import Subsystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.server import ServerRuntime

#: Views per occupancy block: one int summarizes 64 snapshots, so the
#: candidate iterator skips fully-packed regions 64 servers at a time.
_BLOCK = 64
_BLOCK_SHIFT = 6


class ClusterIndex:
    """O(1) cluster-wide counters plus snapshot-invalidation state.

    Owned by an :class:`IndexedClusterView`; written only by the
    :class:`~repro.sim.server.ServerRuntime` mutation helpers of bound
    servers.  ``dirty`` holds server slots whose *snapshot content*
    changed (mix, power state); ``members_stale`` is raised when the
    set of visible servers itself changed (fail/recover) and the view
    list must be rebuilt rather than patched.
    """

    __slots__ = ("n_servers", "powered", "active_vms", "failed", "dirty", "members_stale")

    def __init__(self, n_servers: int):
        self.n_servers = n_servers
        self.powered = 0
        self.active_vms = 0
        self.failed = 0
        self.dirty: set[int] = set()
        #: True until the first views() call builds the initial list.
        self.members_stale = True

    # -- mutation hooks (called by ServerRuntime only) -----------------

    def adopt(self, slot: int, *, powered: bool, n_vms: int, failed: bool) -> None:
        """Fold an existing server's state in at bind time, so binding
        is correct even for a server that already lived a little."""
        if powered:
            self.powered += 1
        self.active_vms += n_vms
        if failed:
            self.failed += 1
        self.members_stale = True

    def on_power(self, slot: int, on: bool) -> None:
        self.powered += 1 if on else -1
        self.dirty.add(slot)

    def on_host(self, slot: int) -> None:
        self.active_vms += 1
        self.dirty.add(slot)

    def on_unhost(self, slot: int) -> None:
        self.active_vms -= 1
        self.dirty.add(slot)

    def on_failure(self, slot: int, failed: bool) -> None:
        self.failed += 1 if failed else -1
        self.members_stale = True

    # -- drift audit ---------------------------------------------------

    def audit(self, servers) -> list[str]:
        """Re-derive every counter from the servers and report drift.

        Returns human-readable mismatch descriptions (empty = sane).
        The property suite calls this after randomized event storms.
        """
        problems: list[str] = []
        powered = sum(1 for s in servers if s.powered_on)
        active = sum(s.n_vms for s in servers)
        failed = sum(1 for s in servers if s.failed)
        if powered != self.powered:
            problems.append(f"powered: index {self.powered} != actual {powered}")
        if active != self.active_vms:
            problems.append(f"active_vms: index {self.active_vms} != actual {active}")
        if failed != self.failed:
            problems.append(f"failed: index {self.failed} != actual {failed}")
        return problems


class _FreeLevel:
    """Free-slot counts for one multiplexing level over the visible views."""

    __slots__ = ("multiplex", "free", "block_nonzero")

    def __init__(self, multiplex: int, views: list["ServerView"]):
        self.multiplex = multiplex
        free = [view.free_slots(multiplex) for view in views]
        self.free = free
        self.block_nonzero = [0] * ((len(free) + _BLOCK - 1) >> _BLOCK_SHIFT)
        for pos, slots in enumerate(free):
            if slots > 0:
                self.block_nonzero[pos >> _BLOCK_SHIFT] += 1

    def refresh(self, pos: int, view: "ServerView") -> None:
        new = view.free_slots(self.multiplex)
        old = self.free[pos]
        if new == old:
            return
        self.free[pos] = new
        if (old > 0) != (new > 0):
            self.block_nonzero[pos >> _BLOCK_SHIFT] += 1 if new > 0 else -1

    def iter_free(self, views: list["ServerView"]) -> Iterator[tuple["ServerView", int]]:
        free = self.free
        n = len(free)
        for block, occupied in enumerate(self.block_nonzero):
            if not occupied:
                continue
            start = block << _BLOCK_SHIFT
            for pos in range(start, min(start + _BLOCK, n)):
                slots = free[pos]
                if slots > 0:
                    yield views[pos], slots


class ServerViews(list):
    """The cached snapshot list handed to strategies.

    A plain ``list[ServerView]`` to every existing consumer; on top of
    that it carries per-multiplex free-capacity levels and exposes
    :meth:`free_candidates`, which capacity-driven strategies discover
    via ``getattr`` (duck typing keeps ``strategies`` from importing
    ``sim``).  :class:`IndexedClusterView` patches entries in place via
    :meth:`refresh` and wipes everything on membership changes via
    :meth:`reset`.

    The candidate iterator is snapshot-consistent only within a single
    placement call: the simulator never mutates servers while a
    strategy runs, and strategies must not hold the iterator across
    calls (the same rule as for the view snapshots themselves).
    """

    __slots__ = ("_levels",)

    def __init__(self) -> None:
        super().__init__()
        self._levels: dict[int, _FreeLevel] = {}

    def reset(self) -> None:
        """Forget everything (membership changed; the owner re-appends)."""
        del self[:]
        self._levels.clear()

    def refresh(self, pos: int) -> None:
        """Propagate an in-place snapshot replacement at ``pos``."""
        view = self[pos]
        for level in self._levels.values():
            level.refresh(pos, view)

    def free_candidates(self, multiplex: int) -> Iterator[tuple["ServerView", int]]:
        """Yield ``(view, free_slots)`` for every view with headroom,
        in list order -- the duck-typed strategy fast path."""
        level = self._levels.get(multiplex)
        if level is None:
            level = _FreeLevel(multiplex, self)
            self._levels[multiplex] = level
        return level.iter_free(self)


class NaiveClusterView:
    """The reference cluster view: rebuilt and rescanned at every call.

    ``views()`` is the snapshot list handed to strategies (server
    order, failed servers skipped), ``powered_count()`` feeds the
    ``sim.powered_servers`` gauge, ``idle()`` the deadlock check.
    """

    def __init__(self, servers: "list[ServerRuntime]"):
        self._servers = servers
        self._max_vms = [server.spec.max_vms for server in servers]
        self._cpu_slots = [int(server.spec.capacity(Subsystem.CPU)) for server in servers]

    def snapshot(self, slot: int) -> ServerView:
        server = self._servers[slot]
        return ServerView(
            server_id=server.server_id,
            mix=server.mix_key(),
            max_vms=self._max_vms[slot],
            cpu_slots=self._cpu_slots[slot],
            powered_on=server.powered_on,
        )

    def views(self) -> list[ServerView]:
        return [
            self.snapshot(slot) for slot, server in enumerate(self._servers) if not server.failed
        ]

    def powered_count(self) -> int:
        return sum(1 for server in self._servers if server.powered_on)

    def idle(self) -> bool:
        servers = self._servers
        return all(server.n_vms == 0 for server in servers) and not any(
            server.failed for server in servers
        )


class IndexedClusterView(NaiveClusterView):
    """The same reads, served from a bound :class:`ClusterIndex` and a
    persistent :class:`ServerViews` list."""

    def __init__(self, servers: "list[ServerRuntime]"):
        super().__init__(servers)
        self.index = ClusterIndex(len(servers))
        for slot, server in enumerate(servers):
            server.bind_index(self.index, slot)
        self._visible = ServerViews()
        self._positions = [-1] * len(servers)

    def views(self) -> list[ServerView]:
        index = self.index
        visible = self._visible
        positions = self._positions
        if index.members_stale:
            index.members_stale = False
            index.dirty.clear()
            visible.reset()
            for slot, server in enumerate(self._servers):
                if server.failed:
                    positions[slot] = -1
                else:
                    positions[slot] = len(visible)
                    visible.append(self.snapshot(slot))
        elif index.dirty:
            for slot in sorted(index.dirty):
                pos = positions[slot]
                if pos >= 0:
                    visible[pos] = self.snapshot(slot)
                    visible.refresh(pos)
            index.dirty.clear()
        return visible

    def powered_count(self) -> int:
        return self.index.powered

    def idle(self) -> bool:
        return self.index.active_vms == 0 and self.index.failed == 0
