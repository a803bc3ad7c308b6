"""Sink-rooted routing tree (TAG-style collection tree).

TinyDB/TAG route data over a spanning tree built during query
dissemination: each node picks the neighbour on the shortest path to
the sink as its parent. :class:`RoutingTree` captures that structure,
serves the traversal orders the aggregation algorithms need
(leaves-first converge-cast, root-first dissemination), and supports
repair after node failures.

A tree never mutates. A join (:meth:`RoutingTree.attach`) and a repair
(:meth:`RoutingTree.repaired`) derive the next tree from this one
through one edit primitive, which copies the child and depth maps and
rebuilds only the child tuples of the parents the edit touched, so
every untouched node keeps its very child tuple (the network's plan
rows key on that identity). A repair walks only the dead nodes'
subtrees to find the orphans and re-derives depths only inside each
re-homed component, so its cost follows the damage, not the fleet.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..errors import TopologyError
from .topology import Topology


@dataclass(frozen=True)
class RepairReport:
    """What an incremental repair actually did.

    Attributes:
        dead: Nodes removed from the tree.
        orphaned: Survivors that lost their upstream path and had to be
            re-homed (the dead nodes' descendants, transitively).
        reattached: ``(child, new_parent)`` edges the repair created —
            each one is a real attach handshake on the air, so this
            tuple is the repair's message bill.
    """

    dead: tuple[int, ...]
    orphaned: tuple[int, ...]
    reattached: tuple[tuple[int, int], ...]
    #: Survivors with no radio path back to the sink (only populated
    #: when the repair was asked to detach them instead of raising).
    detached: tuple[int, ...] = ()


class RoutingTree:
    """Parent/children structure rooted at the sink."""

    def __init__(self, root: int, parents: Mapping[int, int]):
        """Build from an explicit child → parent map.

        Args:
            root: The sink node id.
            parents: parent of every non-root node. Every chain must
                terminate at ``root``; cycles raise TopologyError.
        """
        parents = dict(parents)
        if root in parents:
            raise TopologyError("the root cannot have a parent")
        grow: dict[int, list[int]] = {root: []}
        for child in parents:
            grow.setdefault(child, [])
        for child, parent in sorted(parents.items()):
            if parent not in grow:
                raise TopologyError(
                    f"node {child} has parent {parent} which is not in the tree"
                )
            grow[parent].append(child)
        # The tree is immutable after construction (attach/repaired
        # build new trees), so child lists freeze into tuples here and
        # children() becomes a plain dict lookup — the converge-cast
        # loop asks for them once per node per epoch.
        children = {node: tuple(kids) for node, kids in grow.items()}
        self._assemble(root, parents, children,
                       self._bfs_depths(root, children))

    def _assemble(self, root: int, parents: dict[int, int],
                  children: dict[int, tuple[int, ...]],
                  depths: dict[int, int]) -> None:
        """Adopt the three maps (the tree owns them from here on)."""
        self._root = root
        self._parents = parents
        self._children = children
        self._depths = depths
        # Traversal orders are pure functions of the frozen structure;
        # memoized lazily (see node_ids / post_order / pre_order /
        # path_to_root).
        self._node_ids: tuple[int, ...] | None = None
        self._post_order: tuple[int, ...] | None = None
        self._pre_order: tuple[int, ...] | None = None
        self._path_memo: dict[int, tuple[int, ...]] = {}

    @classmethod
    def from_topology(cls, topology: Topology) -> "RoutingTree":
        """Breadth-first tree over the connectivity graph (min-hop paths).

        Ties between candidate parents break toward the smallest node
        id, which makes tree construction deterministic.
        """
        root = topology.sink_id
        parents: dict[int, int] = {}
        seen = {root}
        frontier = deque([root])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(topology.neighbors(current)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    parents[neighbor] = current
                    frontier.append(neighbor)
        missing = set(topology.node_ids) - seen
        if missing:
            raise TopologyError(
                f"nodes unreachable from the sink: {sorted(missing)}"
            )
        return cls(root, parents)

    @staticmethod
    def _bfs_depths(root: int,
                    children: Mapping[int, tuple[int, ...]]) -> dict[int, int]:
        depths = {root: 0}
        frontier = deque([root])
        visited = 1
        while frontier:
            current = frontier.popleft()
            for child in children[current]:
                depths[child] = depths[current] + 1
                frontier.append(child)
                visited += 1
        if visited != len(children):
            raise TopologyError("parent map contains a cycle or unreachable node")
        return depths

    def __contains__(self, node_id: object) -> bool:
        """Whether ``node_id`` is a node of this tree (root included)."""
        return node_id in self._children

    @property
    def root(self) -> int:
        """The sink node id."""
        return self._root

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All tree nodes including the root, sorted; memoized."""
        if self._node_ids is None:
            self._node_ids = tuple(sorted(self._children))
        return self._node_ids

    @property
    def sensor_ids(self) -> tuple[int, ...]:
        """All tree nodes except the root, sorted."""
        ids = self.node_ids
        at = bisect_left(ids, self._root)
        return ids[:at] + ids[at + 1:]

    def parent(self, node_id: int) -> int:
        """The parent of a non-root node."""
        try:
            return self._parents[node_id]
        except KeyError:
            if node_id == self._root:
                raise TopologyError("the root has no parent") from None
            raise TopologyError(f"unknown node {node_id}") from None

    def children(self, node_id: int) -> tuple[int, ...]:
        """Direct children of a node."""
        try:
            return self._children[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    def depth(self, node_id: int) -> int:
        """Hops from the root (root itself has depth 0)."""
        try:
            return self._depths[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id}") from None

    @property
    def height(self) -> int:
        """Depth of the deepest node."""
        return max(self._depths.values())

    def is_leaf(self, node_id: int) -> bool:
        """True when the node has no children."""
        return not self.children(node_id)

    def post_order(self) -> tuple[int, ...]:
        """Leaves-first order over ALL nodes (root last).

        This is the converge-cast schedule: by the time a node is
        visited, every descendant has already produced its message.
        Computed once and memoized (the tree never mutates).
        """
        if self._post_order is None:
            # Reversed, a root-first walk that takes the children last
            # to first is leaves-first with the children first to last.
            children = self._children
            order: list[int] = []
            stack = [self._root]
            while stack:
                node = stack.pop()
                order.append(node)
                stack.extend(children[node])
            order.reverse()
            self._post_order = tuple(order)
        return self._post_order

    def pre_order(self) -> tuple[int, ...]:
        """Root-first order (the dissemination schedule); memoized."""
        if self._pre_order is None:
            order: list[int] = []
            stack = [self._root]
            while stack:
                node = stack.pop()
                order.append(node)
                for child in reversed(self._children[node]):
                    stack.append(child)
            self._pre_order = tuple(order)
        return self._pre_order

    def subtree(self, node_id: int) -> tuple[int, ...]:
        """All nodes in the subtree rooted at ``node_id`` (inclusive)."""
        nodes: list[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            nodes.append(current)
            stack.extend(self._children[current])
        return tuple(sorted(nodes))

    def path_to_root(self, node_id: int) -> tuple[int, ...]:
        """Nodes from ``node_id`` up to and including the root.

        Memoized per tree (flat protocols relay every report along
        this path, so the walk is on the per-message hot path); the
        tree never mutates, so ancestor paths can be shared suffixes.
        """
        cached = self._path_memo.get(node_id)
        if cached is not None:
            return cached
        path = [node_id]
        while path[-1] != self._root:
            path.append(self.parent(path[-1]))
        result = self._path_memo[node_id] = tuple(path)
        return result

    def attach(self, node_id: int, parent_id: int) -> "RoutingTree":
        """A new tree with ``node_id`` attached as a leaf of ``parent_id``.

        The incremental join primitive: one new edge, every existing
        parent/child relation untouched.
        """
        if node_id in self._children:
            raise TopologyError(f"node {node_id} is already in the tree")
        if parent_id not in self._children:
            raise TopologyError(f"unknown parent {parent_id}")
        return self._edited(
            {**self._parents, node_id: parent_id},
            {**self._depths, node_id: self._depths[parent_id] + 1},
            moved=(node_id,), removed=())

    def _edited(self, parents: dict[int, int], depths: dict[int, int],
                moved: Iterable[int], removed: Iterable[int],
                ) -> "RoutingTree":
        """The tree this one becomes after an edit.

        ``parents`` and ``depths`` are the edited tree's whole maps,
        which it adopts; ``moved`` names the nodes whose parent is new
        (a joiner, a re-homed node) and ``removed`` the nodes that left.
        The child map is copied and only the child tuples of the
        parents those nodes left or joined are rebuilt, in ascending id
        order as the constructor builds them, so every other node keeps
        its very tuple. The constructor's invariant stays a check: the
        callers derive each new depth by walking down from a node the
        root reaches, so a node on a cycle or apart from the root has
        no depth, and a node without one raises.
        """
        old_children = self._children
        old_parents = self._parents
        children = dict(old_children)
        stale: set[int] = set()
        for node in removed:
            del children[node]
            stale.add(old_parents[node])
        gained: dict[int, set[int]] = {}
        for node in moved:
            if node in old_parents:
                stale.add(old_parents[node])
            children.setdefault(node, ())
            gained.setdefault(parents[node], set()).add(node)
        stale.update(gained)
        for parent in stale:
            if parent not in children:
                continue  # it left the tree too
            kids = {child for child in old_children.get(parent, ())
                    if parents.get(child) == parent}
            kids.update(gained.get(parent, ()))
            children[parent] = tuple(sorted(kids))
        if depths.keys() != children.keys():
            raise TopologyError("parent map contains a cycle or unreachable node")
        tree = RoutingTree.__new__(RoutingTree)
        tree._assemble(self._root, parents, children, depths)
        return tree

    def repaired(self, dead: Iterable[int], topology: Topology,
                 energy_of: Callable[[int], float] | None = None,
                 detach_unreachable: bool = False,
                 ) -> "tuple[RoutingTree, RepairReport]":
        """Incremental repair: re-home orphaned subtrees, keep the rest.

        Unlike a full BFS rebuild, which may reshuffle every parent
        pointer in the network, this touches only the subtrees the
        deaths actually orphaned: each orphaned component is re-rooted
        at the node with a radio link into the surviving tree and
        re-attached there, so the repair's message bill is
        proportional to the damage, not to the network size. So is its
        host cost: the orphans are found by walking the dead nodes'
        subtrees, every other survivor keeps its depth, and depths are
        re-derived only inside each re-homed component.

        New parents are chosen *residual-energy-aware*: among the
        attached in-range candidates the one that has spent the fewest
        joules (``energy_of``) wins, ties breaking toward the shallower
        and then the smaller-id node — dying deployments should not
        pile orphans onto their most drained relays.

        Returns the repaired tree plus a :class:`RepairReport`.
        Survivors with no radio path back to the sink raise
        :class:`TopologyError` — unless ``detach_unreachable`` is set,
        in which case they are dropped from the tree and reported in
        ``RepairReport.detached`` (a partitioned mote keeps sensing,
        but the deployment can no longer hear it).
        """
        dead_set = {d for d in dead if d in self._children}
        if self._root in dead_set:
            raise TopologyError("the sink cannot die")
        spent = energy_of or (lambda _node: 0.0)
        children = self._children
        parents = dict(self._parents)
        # Attached survivors are exactly the nodes with a depth: the
        # dead and the orphans lose theirs here.
        depths = dict(self._depths)
        # The orphans are the survivors below a dead node, each with
        # its surviving children (the depth walks follow these lists).
        orphaned: set[int] = set()
        below: dict[int, list[int]] = {}
        for victim in dead_set:
            del parents[victim]
            del depths[victim]
            stack = list(children[victim])
            while stack:
                node = stack.pop()
                if node in dead_set:
                    continue  # walked from that victim
                orphaned.add(node)
                del depths[node]
                kids = below[node] = [child for child in children[node]
                                      if child not in dead_set]
                stack.extend(kids)
        orphaned_initially = tuple(sorted(orphaned))
        reattached: list[tuple[int, int]] = []
        detached: list[int] = []
        while orphaned:
            best: tuple[tuple[float, int, int, int], int, int] | None = None
            for node in sorted(orphaned):
                for neighbor in topology.neighbors(node):
                    depth = depths.get(neighbor)
                    if depth is None:
                        continue  # not attached
                    key = (spent(neighbor), depth, neighbor, node)
                    if best is None or key < best[0]:
                        best = (key, node, neighbor)
            if best is None:
                if not detach_unreachable:
                    raise TopologyError(
                        f"nodes unreachable from the sink after failures: "
                        f"{sorted(orphaned)}"
                    )
                detached.extend(sorted(orphaned))
                for node in orphaned:
                    parents.pop(node, None)
                break
            _, node, new_parent = best
            # Re-root the orphaned component at ``node``: the chain from
            # ``node`` up to its old component root reverses direction,
            # then ``node`` hangs off the surviving tree.
            chain = [node]
            while (chain[-1] in parents and parents[chain[-1]] in orphaned
                   and parents[chain[-1]] not in chain):
                chain.append(parents[chain[-1]])
            for upper, lower in zip(chain[1:], chain):
                parents[upper] = lower
                reattached.append((upper, lower))
                below[upper].remove(lower)
                below[lower].append(upper)
            parents[node] = new_parent
            reattached.append((node, new_parent))
            # The whole component now hangs below ``node``: only its
            # depths are new.
            depths[node] = depths[new_parent] + 1
            frontier = [node]
            for current in frontier:
                orphaned.discard(current)
                depth = depths[current] + 1
                for child in below[current]:
                    depths[child] = depth
                    frontier.append(child)
        tree = self._edited(parents, depths,
                            moved=[child for child, _ in reattached],
                            removed=dead_set.union(detached))
        report = RepairReport(dead=tuple(sorted(dead_set)),
                              orphaned=orphaned_initially,
                              reattached=tuple(reattached),
                              detached=tuple(detached))
        return tree, report
