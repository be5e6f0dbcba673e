"""Category hierarchy parsing and leaf-to-basic label derivation.

The hierarchy is a DAG (a leaf may have several parents, e.g. a minivan that
is both a car and a van). Basic-level categories are a user-supplied antichain
of nodes; every leaf is assigned to its nearest basic-marked ancestor-or-self,
the first-listed parent's on a tie, in one pass over a topological order.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

from . import files
from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

LABELMAP_COLUMNS = ("leaf_id", "sub_index", "basic_index", "basic_id")


@dataclass(frozen=True)
class SynsetGraph:
    """Directed acyclic category hierarchy with optional basic-level marks.

    ``edges`` keeps exactly the order read from file; that order defines the
    tie-break when a leaf reaches two basic ancestors at the same distance.
    """

    nodes: frozenset[str]
    edges: tuple[tuple[str, str], ...]    # (parent_id, child_id), file order
    basic_marks: frozenset[str] = frozenset()
    _parents: dict[str, list[str]] = field(repr=False, default_factory=dict)
    _children: dict[str, list[str]] = field(repr=False, default_factory=dict)
    _order: tuple[str, ...] = field(repr=False, default=())  # children first

    @functools.cached_property
    def leaf_set(self) -> frozenset[str]:
        """The childless nodes, computed once per graph."""
        return frozenset(n for n in self._order if n not in self._children)

    @functools.cached_property
    def roots(self) -> frozenset[str]:
        """The parentless nodes, computed once per graph."""
        return frozenset(n for n in self._order if n not in self._parents)

    def parents_of(self, node_id: str) -> list[str]:
        return self._parents.get(node_id, [])

    def children_of(self, node_id: str) -> list[str]:
        return self._children.get(node_id, [])


@dataclass(frozen=True)
class LabelMap:
    """Per-leaf assignment of subordinate and basic class indices."""

    entries: dict[str, tuple[int, int]]   # leaf_id -> (sub_index, basic_index)
    basic_names: tuple[str, ...]          # basic_index -> basic node_id
    sub_names: tuple[str, ...]            # sub_index -> leaf node_id

    @property
    def n_sub(self) -> int:
        return len(self.sub_names)

    @property
    def n_basic(self) -> int:
        return len(self.basic_names)

    def indices(self, leaf_ids, level: str) -> list[int]:
        """The ``"sub"`` or ``"basic"`` index of each leaf, in order."""
        column = 0 if level == "sub" else 1
        try:
            return [self.entries[leaf][column] for leaf in leaf_ids]
        except KeyError as exc:
            raise ValidationError(
                f"manifest leaf {exc.args[0]!r} not in label map") from None

    def basic_index(self, leaf_id: str) -> int:
        return self.entries[leaf_id][1]


def build_graph(edges) -> SynsetGraph:
    """Construct a validated graph from (parent, child) pairs in order."""
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {}
    seen = set()
    for parent, child in edges:
        if (parent, child) in seen:
            raise ValidationError(f"duplicate edge {parent}>{child}")
        seen.add((parent, child))
        parents.setdefault(child, []).append(parent)
        children.setdefault(parent, []).append(child)

    # Kahn's pass, children first: a node follows once all its children have
    pending = {node: len(kids) for node, kids in children.items()}
    order = [node for node in parents if node not in children]
    n_nodes = len(order) + len(children)
    for node in order:  # grows as parents come free
        for parent in parents.get(node, ()):
            pending[parent] -= 1
            if not pending[parent]:
                order.append(parent)
    if len(order) < n_nodes:
        raise ValidationError(
            f"cycle detected through node {_on_cycle(children, pending)!r}")
    return SynsetGraph(nodes=frozenset(order), edges=tuple(edges),
                       _parents=parents, _children=children, _order=tuple(order))


def _on_cycle(children, pending) -> str:
    """A node on a cycle, given Kahn's leftover child counts: every node
    left over has a child left over, so following those must come back."""
    node = next(node for node, left in pending.items() if left)
    seen = set()
    while node not in seen:
        seen.add(node)
        node = next(child for child in children[node] if pending.get(child))
    return node


def parse_synset_file(path) -> SynsetGraph:
    """Read a ``parent_id>child_id`` edge list into a SynsetGraph.

    Lines starting with ``#`` and blank lines are ignored. Edge order is
    preserved exactly; it is significant for multi-parent tie-breaking.
    """
    edges = []
    for lineno, raw in enumerate(files.read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(">")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError(f"expected 'parent_id>child_id', got {raw!r}", line=lineno)
        edges.append((parts[0].strip(), parts[1].strip()))
    if not edges:
        raise ParseError("no edges found")
    return build_graph(edges)


def parse_marks_file(path) -> set[str]:
    """Read one node_id per line; ``#`` comments and blanks ignored."""
    marks = set()
    for raw in files.read_text(path).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            marks.add(line)
    return marks


def _marks_above(graph: SynsetGraph, marks) -> dict[str, str | None]:
    """Each node's nearest marked strict ancestor, or None: one pass over the
    topological order, parents first, in which a node takes the nearest mark
    its parents offer (a marked parent offers itself), the first-listed
    parent's on a tie. That is the mark an upward breadth-first search that
    expands parents in edge order meets first: paths through different
    parents differ in their first step, so each parent's answer decides."""
    parents = graph._parents
    dist, above = {}, {}  # node -> distance to, and name of, its nearest mark
    for node in reversed(graph._order):
        best, nearest = math.inf, None
        for parent in parents.get(node, ()):
            d, hit = (0, parent) if parent in marks else (dist[parent], above[parent])
            if d < best:
                best, nearest = d, hit
        dist[node], above[node] = best + 1, nearest
    return above


def first_marks(graph: SynsetGraph, marks, nodes) -> dict[str, str | None]:
    """Each of ``nodes``' first marked ancestor-or-self: itself if marked,
    else its nearest marked ancestor (see :func:`_marks_above`); None for a
    node with neither, or not in the graph."""
    marks = frozenset(marks)
    above = _marks_above(graph, marks)
    return {n: n if n in marks else above.get(n) for n in nodes}


def first_marked_ancestor(graph: SynsetGraph, node: str, marks) -> str | None:
    """One node's first marked ancestor-or-self (see :func:`first_marks`)."""
    return first_marks(graph, marks, [node])[node]


def validate_basic_marks(graph: SynsetGraph, marks) -> SynsetGraph:
    """Attach basic-level marks after checking coverage and non-nesting.

    Fails closed: unknown ids, a mark that is an ancestor of another mark,
    or any leaf without a marked ancestor-or-self all raise ValidationError
    (the last one lists every uncovered leaf).
    """
    marks = set(marks)
    if not marks:
        raise ValidationError("basic marks set is empty")
    unknown = sorted(m for m in marks if m not in graph.nodes)
    if unknown:
        raise ValidationError(f"unknown node ids in marks: {', '.join(unknown)}")

    above = _marks_above(graph, marks)
    for m in sorted(marks):
        other = above[m]
        if other is not None:
            raise ValidationError(
                f"nested basic marks: {other!r} is an ancestor of {m!r}")

    uncovered = sorted(leaf for leaf in graph.leaf_set
                       if leaf not in marks and above[leaf] is None)
    if uncovered:
        raise ValidationError(
            "leaves with no basic ancestor-or-self: " + ", ".join(uncovered))

    return replace(graph, basic_marks=frozenset(marks))


def allocate_descendants(graph: SynsetGraph) -> LabelMap:
    """Assign every leaf to its first basic ancestor and number both levels.

    Indices are assigned by sorted node id (not file order) so the map is
    stable under edge reorderings that do not change any tie-break.
    """
    if not graph.basic_marks:
        raise ValidationError("graph has no validated basic marks")

    sub_names = tuple(sorted(graph.leaf_set))
    # every leaf has a mark: validate_basic_marks checked coverage
    assignment = first_marks(graph, graph.basic_marks, sub_names)
    used_basics = sorted(set(assignment.values()))
    empty = sorted(graph.basic_marks - set(used_basics))
    if empty:
        # Possible in DAGs when nearer marks capture every leaf of a mark.
        log.warning("basic marks with no assigned leaves dropped from the "
                    "label map: %s", ", ".join(empty))

    basic_names = tuple(used_basics)
    basic_pos = {b: i for i, b in enumerate(basic_names)}
    entries = {leaf: (i, basic_pos[assignment[leaf]])
               for i, leaf in enumerate(sub_names)}
    return LabelMap(entries=entries, basic_names=basic_names, sub_names=sub_names)


def category_height_histogram(graph: SynsetGraph, mode: str = "longest") -> dict[int, int]:
    """Count basic marks per height above their deepest (or nearest) leaf.

    ``mode`` selects the height measure: ``longest`` downward path to a leaf
    (default) or ``shortest``. Leaves have height 0 either way.
    """
    if mode not in ("longest", "shortest"):
        raise ValidationError(f"unknown height mode {mode!r}")
    if not graph.basic_marks:
        raise ValidationError("graph has no validated basic marks")
    pick = max if mode == "longest" else min
    children = graph._children
    height: dict[str, int] = {}
    for node in graph._order:  # children first
        kids = children.get(node)
        height[node] = 1 + pick([height[k] for k in kids]) if kids else 0

    hist: dict[int, int] = {}
    for mark in sorted(graph.basic_marks):
        hist[height[mark]] = hist.get(height[mark], 0) + 1
    return hist


def labelmap_to_csv(labelmap: LabelMap, path) -> None:
    """Write ``leaf_id,sub_index,basic_index,basic_id`` rows sorted by leaf."""
    files.write_csv(path, LABELMAP_COLUMNS, [
        (leaf, sub_i, basic_i, labelmap.basic_names[basic_i])
        for leaf, (sub_i, basic_i) in sorted(labelmap.entries.items())])


def labelmap_from_csv(path) -> LabelMap:
    """Inverse of :func:`labelmap_to_csv`. Rejects missing columns or fields,
    non-integer indices, a repeated leaf, sub_index values that are not a
    permutation of 0..n-1 and basic_index values with gaps or two names."""
    entries: dict[str, tuple[int, int]] = {}
    basic_by_index: dict[int, str] = {}
    for line, row in files.read_csv(path, LABELMAP_COLUMNS):
        try:
            sub_i, basic_i = int(row["sub_index"]), int(row["basic_index"])
        except ValueError:
            raise ParseError("sub_index and basic_index must be integers, got "
                             f"{row['sub_index']!r}, {row['basic_index']!r}",
                             line) from None
        if row["leaf_id"] in entries:
            raise ParseError(f"leaf {row['leaf_id']!r} listed twice", line)
        entries[row["leaf_id"]] = (sub_i, basic_i)
        prev = basic_by_index.setdefault(basic_i, row["basic_id"])
        if prev != row["basic_id"]:
            raise ValidationError(
                f"basic_index {basic_i} maps to both {prev!r} and {row['basic_id']!r}")
    if not entries:
        raise ValidationError(f"empty label map file {path}")
    if sorted(sub_i for sub_i, _ in entries.values()) != list(range(len(entries))):
        raise ValidationError(
            f"sub_index values must be a permutation of 0..{len(entries) - 1}")
    sub_names = tuple(sorted(entries, key=lambda leaf: entries[leaf][0]))
    n_basic = max(basic_by_index) + 1
    if sorted(basic_by_index) != list(range(n_basic)):
        raise ValidationError("basic_index values have gaps")
    basic_names = tuple(basic_by_index[i] for i in range(n_basic))
    return LabelMap(entries=entries, basic_names=basic_names, sub_names=sub_names)
