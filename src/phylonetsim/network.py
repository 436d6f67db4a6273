"""Color networks, conditioned color genealogies, and the glued network.

The genealogy of colors is a Galton-Watson tree with offspring M;
conditioned on n colors it equals the critically tilted tree conditioned on
n vertices, sampled here by the cycle-lemma rotation.  Each color is
decorated with a network drawn from the trajectory law given M = its
outdegree, by the exact h-transform sampler of `model.conditioned_paths`.
Gluing identifies each child color's root with the corresponding mutation
point and yields a metric measure space supporting distance, sampling and
contour queries.

A color's lineages are realized from its jump chain: births split a
uniformly chosen alive lineage, deaths and mutations stop one, coalescences
end a uniform lineage into another.  `realize` does this for every path of
a `model.PathBatch` in lockstep, into one flat store, `Decorations`: every
color's per-lineage columns concatenated, with lineage offsets, which is
also the schema-5 JSON form.  Lengths, glue points and the length measure
are array operations on the store; queries that walk one color read its
columns as Python lists, and ``decorations[v]`` is color v as a
`ColorNetwork`, the per-color form of the local limit.

Every glue point is a cut vertex, and every edge is as long as the time it
spans.  So a shortest path leaves a color only through its root or one of
its mutation points, and climbing from a point to an ancestor color costs
exactly the time between them.  `GluedNetwork.distance` therefore walks the
color tree to the two colors' lowest common ancestor and runs Dijkstra in
that one decoration's graph; the whole glued graph is built only for the
edge-list export.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import sub
from typing import NamedTuple

import numpy as np

from . import analytics
from .errors import GlueError, RetryBudgetError
from .model import (
    BIRTH,
    COALESCENCE,
    MUTATION,
    MarkedTrajectory,
    PathBatch,
    conditioned_paths,
)
from .params import ModelParams
from .rng import BufferedRng, RngStream, buffered


@dataclass
class Lineage:
    """One lineage of a decoration, as derived by `ColorNetwork.lineages`."""

    id: int
    birth_time: float
    end_time: float = math.nan
    parent: tuple | None = None  # (parent lineage id, attach time); None for the root
    end_kind: str | None = None  # MUTATION | DEATH | COALESCENCE
    end_target: int | None = None  # continuing lineage for a coalescence end
    mutation_index: int | None = None

    @property
    def length(self) -> float:
        return self.end_time - self.birth_time


# the per-lineage columns of a decoration
_COLUMNS = ("parent", "birth_time", "end_time", "end_kind", "end_target")


class Columns(NamedTuple):
    """One color's lineage columns as Python lists, indexed by lineage id
    (the fields of `ColorNetwork` that the graph readers use)."""

    parent: list
    birth_time: list
    end_time: list
    end_kind: str
    end_target: list


@dataclass(slots=True)
class ColorNetwork:
    """One color's lineage network, as columns indexed by lineage id.

    - ``parent``: the parent lineage id, -1 for the root (lineage 0);
    - ``birth_time`` and ``end_time``;
    - ``end_kind``: one string, a letter of "MDC" per lineage;
    - ``end_target``: the continuing lineage of a coalescence, else -1;
    - ``mutation_points``: (lineage id, time) of the lineages ending in "M",
      in time order; a lineage's mutation index is its place in this list;
    - ``focal_point``: (lineage id, time) or None.

    A lineage is attached to its parent at its own birth time, and the color
    starts at ``birth_time[0]``.  ``trajectory`` and ``lineages`` are
    derived from the columns anew on every read, and nothing derived is
    kept.  The trajectory starts in state 1, and its events are the births
    of lineages 1, 2, ... and every end, in time order, with the state
    counted along the way.  ``lineages`` lists `Lineage` records, for
    readers outside the package.
    """

    parent: list
    birth_time: list
    end_time: list
    end_kind: str
    end_target: list
    mutation_points: list
    focal_point: tuple | None = None

    @property
    def trajectory(self) -> MarkedTrajectory:
        birth = self.birth_time
        marks = sorted([(t, BIRTH) for t in birth[1:]] + list(zip(self.end_time, self.end_kind)))
        events, s = [], 1
        for t, kind in marks:
            s += 1 if kind == BIRTH else -1
            events.append((t, kind, s))
        return MarkedTrajectory(1, events, birth[0])

    @property
    def lineages(self) -> list:
        index = {lid: j for j, (lid, _) in enumerate(self.mutation_points)}
        return [
            Lineage(i, b, e, None if p < 0 else (p, b), k, None if g < 0 else g, index.get(i))
            for i, (p, b, e, k, g) in enumerate(
                zip(self.parent, self.birth_time, self.end_time, self.end_kind, self.end_target)
            )
        ]

    @property
    def total_length(self) -> float:
        return math.fsum(map(sub, self.end_time, self.birth_time))

    def alive_at(self, t: float) -> list:
        return [i for i, (b, e) in enumerate(zip(self.birth_time, self.end_time)) if b <= t < e]

    def to_json_dict(self) -> dict:
        """The schema-2 columns and the focal point, the per-decoration form of a local ball.

        The column lists are the network's own, not copies: a caller that
        edits them edits the network.  The mutation points and the
        trajectory are not written: they follow exactly from the columns.
        """
        return {
            "parent": self.parent,
            "birth_time": self.birth_time,
            "end_time": self.end_time,
            "end_kind": self.end_kind,
            "end_target": self.end_target,
            "focal_point": list(self.focal_point) if self.focal_point else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ColorNetwork":
        """Validate and store the schema-2 columns of `to_json_dict`.

        The network keeps the document's column lists, not copies: a caller
        that edits them afterwards edits the network.

        A document that is not schema 2 (such as a schema-1 decoration with
        ``lineages`` and ``trajectory`` keys), columns of unequal length and
        an end kind outside "MDC" raise ValueError.
        """
        missing = [k for k in (*_COLUMNS, "focal_point") if k not in d]
        if missing:
            raise ValueError(
                f"not a schema-2 decoration: missing {', '.join(missing)} "
                f"(schema 2 writes the columns {', '.join(_COLUMNS)} and focal_point)"
            )
        store = Decorations([0, len(d["birth_time"])], *(d[k] for k in _COLUMNS), "schema-2 decoration")
        focal = d["focal_point"]
        return cls(*(d[k] for k in _COLUMNS), store.mutation_points(0), tuple(focal) if focal else None)


class Decorations:
    """Every color's lineage columns in one flat store: the decorations of a network.

    Color v owns the lineages ``offsets[v]:offsets[v+1]``.  The columns are
    those of `ColorNetwork`, concatenated: NumPy arrays with color-local
    lineage ids, and ``end_kind`` one string.  ``mutations`` holds the flat
    ids of the lineages ending in a mutation, color after color and in time
    order within a color, color v's from ``mutation_offsets[v]`` on; the
    k-th is the glue point of the color's k-th child.  ``lists`` holds them
    all as Python lists, built on first use, for readers of single values,
    and ``decorations[v]`` is color v as a `ColorNetwork`.  A color without
    lineages, columns of another length than the offsets count or an end
    kind outside "MDC" raise ValueError naming ``what``.  A caller that has
    the mutation lineages in that order passes them as ``mutations``.
    """

    def __init__(self, offsets, parent, birth_time, end_time, end_kind: str, end_target, what="decoration",
                 mutations=None):
        o = self.offsets = np.asarray(offsets, dtype=np.int64)
        cols = (parent, birth_time, end_time, end_kind, end_target)
        if o.size < 1 or o[0] != 0 or (np.diff(o) < 1).any() or any(len(c) != o[-1] for c in cols):
            raise ValueError(
                f"{what} columns must hold one or more lineages per color, as many as the offsets count, got "
                + ", ".join(f"{k}: {len(c)}" for k, c in zip(("offsets", *_COLUMNS), (o, *cols)))
            )
        if not isinstance(end_kind, str) or end_kind.strip("MDC"):  # a letter outside "MDC" stops the strip
            raise ValueError(f"{what} end_kind letters must be in 'MDC', got {end_kind!r}")
        self.parent, self.end_target = np.asarray(parent, dtype=np.int64), np.asarray(end_target, dtype=np.int64)
        self.birth_time, self.end_time = np.asarray(birth_time, dtype=float), np.asarray(end_time, dtype=float)
        self.end_kind = end_kind
        if mutations is None:
            mut = np.flatnonzero(np.frombuffer(end_kind.encode(), dtype=np.uint8) == ord(MUTATION))
            mutations = mut[np.lexsort((self.end_time[mut], np.searchsorted(o, mut, side="right")))]
        self.mutations = mutations
        color = np.searchsorted(o, mutations, side="right") - 1
        self.mutation_offsets = np.zeros(o.size, dtype=np.int64)
        np.cumsum(np.bincount(color, minlength=o.size - 1), out=self.mutation_offsets[1:])

    @classmethod
    def stack(cls, nets: list) -> "Decorations":
        """The store of a list of color networks, in order."""
        cat = lambda k: list(chain.from_iterable(getattr(d, k) for d in nets))
        offsets = np.cumsum([0] + [len(d.birth_time) for d in nets])
        return cls(offsets, *(cat(k) for k in _COLUMNS[:3]), "".join(d.end_kind for d in nets), cat("end_target"))

    @cached_property
    def lists(self) -> tuple:
        """(offsets, parent, birth_time, end_time, end_kind, end_target, mutations,
        mutation_offsets) as Python lists, ``end_kind`` as its string."""
        arrays = (self.offsets, self.parent, self.birth_time, self.end_time, self.end_target, self.mutations)
        o, parent, birth, end, target, muts = (x.tolist() for x in arrays)
        return o, parent, birth, end, self.end_kind, target, muts, self.mutation_offsets.tolist()

    def __len__(self) -> int:
        return self.offsets.size - 1

    def columns(self, v: int) -> Columns:
        o, parent, birth, end, kinds, target, _, _ = self.lists
        a, b = o[v], o[v + 1]
        return Columns(parent[a:b], birth[a:b], end[a:b], kinds[a:b], target[a:b])

    def mutation_points(self, v: int) -> list:
        """(lineage id, time) of color v's mutation lineages, in time order."""
        o, _, _, end, _, _, muts, mo = self.lists
        return [(g - o[v], end[g]) for g in muts[mo[v] : mo[v + 1]]]

    def __getitem__(self, v: int) -> ColorNetwork:
        if not 0 <= v < len(self):
            raise IndexError(f"color {v} outside the {len(self)} colors")
        return ColorNetwork(*self.columns(v), self.mutation_points(v))

    def lengths(self) -> np.ndarray:
        """Each color's total length, the fsum of its lineage lengths as in
        `ColorNetwork.total_length`."""
        o, seg = self.lists[0], (self.end_time - self.birth_time).tolist()
        return np.array([math.fsum(seg[a:b]) for a, b in zip(o, o[1:])])

    def to_json_dict(self) -> dict:
        """The schema-5 form: the lineage offsets and the five columns, concatenated."""
        return dict(zip(("offsets", *_COLUMNS), self.lists[:6]))

    @classmethod
    def from_json_dict(cls, d) -> "Decorations":
        """The store of schema-5 columns; anything else, such as the schema-4
        list of per-color decorations, raises ValueError naming the schema-5 keys."""
        keys = ("offsets", *_COLUMNS)
        if not isinstance(d, dict) or any(k not in d for k in keys):
            raise ValueError(f"not schema-5 decorations: expected one object with the keys {', '.join(keys)}")
        return cls(*(d[k] for k in keys), "schema-5")


def realize(paths: PathBatch, gen: np.random.Generator, start=0.0) -> Decorations:
    """The lineages of every path of a batch, realized in lockstep: the store of their colors.

    Path i runs from state 1 at time ``start`` (one value, or one per path)
    to state 0; anything else raises ValueError.  Each path's alive lineage
    ids sit in its own slice of one flat array, as long as its largest
    state.  One uniform per event, then one per coalescence, are drawn
    first; then every path advances one event per NumPy step: a birth
    writes its new lineage after the last alive one, and an end moves the
    last alive lineage into the slot it frees.
    """
    o = paths.offsets
    n, size = o.size - 1, int(o[-1])
    code = np.frombuffer(paths.kinds.encode(), dtype=np.uint8)
    length = np.diff(o)
    path = np.repeat(np.arange(n), length)
    born = code == ord(BIRTH)
    alive = paths.states - np.where(born, 1, -1)  # the alive count before each event
    if n and (length.min() < 1 or (alive[o[:-1]] != 1).any() or paths.states[o[1:] - 1].any()):
        raise ValueError("a color's path must run from state 1 to state 0")
    # path i owns the lineages first[i]:first[i+1], its root first, then one per birth
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(path[born], minlength=n) + 1, out=first[1:])
    births = np.cumsum(born)
    new = first[path] + births - (births - born)[o[:-1]][path]
    top = np.maximum.reduceat(alive, o[:-1])
    slice0 = np.cumsum(top) - top
    base = slice0[path]
    # slots: the alive lineage picked (the parent, the one that stops, or the
    # coalescence target), the slot freed, the slot written and the slot read
    # for it; a birth's new id is read from a scratch slot past the slices
    pick = base + (gen.random(size) * alive).astype(np.int64)
    freed = pick.copy()
    coal = np.flatnonzero(code == ord(COALESCENCE))
    other = (gen.random(coal.size) * (alive[coal] - 1)).astype(np.int64)
    freed[coal] = base[coal] + other + (other >= pick[coal] - base[coal])
    last = base + alive - 1
    write = np.where(born, last + 1, freed)
    scratch = int(top.sum())
    read = np.where(born, scratch + np.arange(size), last)
    slots = np.empty(scratch + size, dtype=np.int64)
    slots[scratch:] = new
    slots[slice0] = first[:-1]
    # one step per event index; the paths of a step touch disjoint slots
    step = np.arange(size) - o[path]
    order = np.argsort(step, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(step))]).tolist()
    pick, freed, write, read = pick[order], freed[order], write[order], read[order]
    got, gone = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for a, b in zip(bounds, bounds[1:]):
        got[a:b] = slots[pick[a:b]]
        gone[a:b] = slots[freed[a:b]]
        slots[write[a:b]] = slots[read[a:b]]
    got[order], gone[order] = got.copy(), gone.copy()
    # the columns, in flat lineage ids, made color-local
    lineages = int(first[-1])
    parent, target = np.full(lineages, -1), np.full(lineages, -1)
    birth, end, kind = np.empty(lineages), np.empty(lineages), np.empty(lineages, dtype=np.uint8)
    root = first[path]
    parent[new[born]] = got[born] - root[born]
    birth[first[:-1]] = start
    birth[new[born]] = paths.times[born]
    ends = ~born
    end[gone[ends]], kind[gone[ends]] = paths.times[ends], code[ends]
    target[gone[coal]] = got[coal] - root[coal]
    # the mutation events, path after path, come in time order within a path
    mutations = gone[code == ord(MUTATION)]
    return Decorations(first, parent, birth, end, kind.tobytes().decode("ascii"), target, mutations=mutations)


def decorate_batch(params: ModelParams, ms, rng) -> Decorations:
    """Color networks conditioned on producing exactly ms[i] mutations, one per entry.

    One `model.conditioned_paths` call on the buffer's generator draws every
    jump chain, then `realize` assigns their lineages from the same
    generator.  An m outside the tables' support raises NumericalFailure
    before any draw.
    """
    gen = buffered(rng).generator()
    return realize(conditioned_paths(params, ms, gen), gen)


def decorate(params: ModelParams, m: int, rng) -> ColorNetwork:
    """Color network conditioned on producing exactly m mutations, the batch of one of
    `decorate_batch`."""
    return decorate_batch(params, [m], rng)[0]


@dataclass
class GenealogyTree:
    """Ordered rooted tree; vertex ids are depth-first (preorder), root = 0."""

    children: list
    parent: list

    @property
    def n(self) -> int:
        return len(self.parent)

    def outdegree(self, v: int) -> int:
        return len(self.children[v])

    def depths(self) -> list:
        d = [0] * self.n
        for v in range(1, self.n):
            d[v] = d[self.parent[v]] + 1
        return d

    def height(self) -> int:
        return max(self.depths())

    @classmethod
    def from_preorder_outdegrees(cls, degs) -> "GenealogyTree":
        n = len(degs)
        children = [[] for _ in range(n)]
        parent = [-1] * n
        stack = [(0, degs[0])]
        for v in range(1, n):
            while stack and stack[-1][1] == len(children[stack[-1][0]]):
                stack.pop()
            if not stack:
                raise ValueError("outdegree sequence is not a preorder tree encoding")
            p = stack[-1][0]
            children[p].append(v)
            parent[v] = p
            stack.append((v, degs[v]))
        tree = cls(children, parent)
        for v in range(n):
            if len(children[v]) != degs[v]:
                raise ValueError("outdegree sequence is not a preorder tree encoding")
        return tree

    def to_json_dict(self) -> dict:
        return {"parent": list(self.parent), "children": [list(c) for c in self.children]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GenealogyTree":
        return cls([list(c) for c in d["children"]], list(d["parent"]))


def _rotate_to_valid(degs: np.ndarray) -> np.ndarray:
    """Cyclic shift making all proper prefix sums of (deg - 1) nonnegative."""
    steps = degs - 1
    prefix = np.cumsum(steps)
    r = int(np.argmin(prefix)) + 1  # rotate to start right after the first minimum
    if r == len(degs):
        return degs
    return np.concatenate([degs[r:], degs[:r]])


TREE_RETRIES = 1_000_000  # multinomial draws before sample_genealogy_tree gives up


def sample_genealogy_tree(tilted_probs: np.ndarray, n: int, rng: RngStream) -> GenealogyTree:
    """Galton-Watson tree with the critically tilted offspring law, given n vertices.

    The law of n i.i.d. outdegrees given that they sum to n - 1 depends on
    the sequence only through its counts N_k of each outdegree k, and given
    the counts every order is equally likely.  So the counts are drawn as a
    multinomial until sum k N_k = n - 1, laid out in a uniform order, and
    the sequence is rotated into the unique valid preorder encoding (cycle
    lemma).  After ``TREE_RETRIES`` draws without that sum it raises
    RetryBudgetError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.generator()
    support, retries = np.arange(len(tilted_probs)), TREE_RETRIES
    for attempt in range(1, retries + 1):
        counts = gen.multinomial(n, tilted_probs)
        if int(support @ counts) == n - 1:
            degs = gen.permutation(np.repeat(support, counts))
            return GenealogyTree.from_preorder_outdegrees(_rotate_to_valid(degs).tolist())
    raise RetryBudgetError("cycle sampler exhausted retries", retries, 1.0 / retries)


@dataclass(frozen=True)
class PointRef:
    vertex: int
    lineage: int
    offset: float


def _color_graph(dec) -> tuple:
    """Metric graph of one decoration, given as `Columns` or a `ColorNetwork`.

    Each lineage is cut at its birth, its end, the births it parents and the
    coalescences into it.  Its breakpoints get consecutive node ids in time
    order, lineage after lineage.  An edge joins consecutive breakpoints
    with the time between them; a birth or a coalescence joins the
    breakpoints of its two lineages by an edge of length 0.  Returns the
    sorted breakpoint times of each lineage, the node id of its first
    breakpoint, and the adjacency lists of (node, length).
    """
    parent, birth, end, kinds, target = dec.parent, dec.birth_time, dec.end_time, dec.end_kind, dec.end_target
    breaks = [[b, e] for b, e in zip(birth, end)]
    for i in range(1, len(birth)):
        breaks[parent[i]].append(birth[i])
    for i, k in enumerate(kinds):
        if k == COALESCENCE:
            breaks[target[i]].append(end[i])
    times, first, adj = [], [], []
    for bs in breaks:
        ts = sorted(set(bs))
        k = len(adj)
        times.append(ts)
        first.append(k)
        adj += [[] for _ in ts]
        for j in range(len(ts) - 1):
            w = ts[j + 1] - ts[j]
            adj[k + j].append((k + j + 1, w))
            adj[k + j + 1].append((k + j, w))

    def join(i, ti, j, tj):
        x, y = first[i] + bisect_left(times[i], ti), first[j] + bisect_left(times[j], tj)
        adj[x].append((y, 0.0))
        adj[y].append((x, 0.0))

    for i in range(len(birth)):
        if i:
            join(i, birth[i], parent[i], birth[i])
        if kinds[i] == COALESCENCE:
            join(i, end[i], target[i], end[i])
    return times, first, adj


def _color_distance(dec: Columns, a: tuple, b: tuple) -> float:
    """Shortest path inside one decoration between (lineage id, time) points.

    Dijkstra from the two breakpoints around a, stopped once both
    breakpoints around b are settled; two points on one lineage may also be
    joined along it.
    """
    times, first, adj = _color_graph(dec)

    def bracket(i, t):
        ts = times[i]
        j = max(0, min(bisect_right(ts, t) - 1, len(ts) - 2))
        return (first[i] + j, t - ts[j]), (first[i] + j + 1, ts[j + 1] - t)

    (x1, o1), (x2, o2) = bracket(*b)
    heap = [(d, x) for x, d in bracket(*a)]
    heapq.heapify(heap)
    dist = {}
    while x1 not in dist or x2 not in dist:
        d, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d
        for y, w in adj[x]:
            if y not in dist:
                heapq.heappush(heap, (d + w, y))
    best = min(dist[x1] + o1, dist[x2] + o2)
    return min(best, abs(a[1] - b[1])) if a[0] == b[0] else best


class GluedNetwork:
    """Genealogy tree of colors with decorations glued at mutation points.

    ``decorations`` is the network's `Decorations` store; a list of
    `ColorNetwork` is stacked into one.
    """

    def __init__(self, tree: GenealogyTree, decorations):
        if not isinstance(decorations, Decorations):
            decorations = Decorations.stack(decorations)
        if tree.n != len(decorations):
            raise GlueError("one decoration per tree vertex required")
        points = np.diff(decorations.mutation_offsets)
        outdegree = np.array([len(c) for c in tree.children], dtype=np.int64)
        bad = np.flatnonzero(points != outdegree)
        if bad.size:
            v = int(bad[0])
            raise GlueError(f"vertex {v}: {points[v]} mutation points for outdegree {outdegree[v]}")
        self.tree = tree
        self.decorations = d = decorations
        # the k-th child in the child lists, parent after parent, is glued to
        # the k-th mutation lineage; the flat id of each color's glue lineage
        glued = np.zeros(tree.n, dtype=np.int64)
        glued[list(chain.from_iterable(tree.children))] = d.mutations
        start = d.offsets[np.asarray(tree.parent[1:], dtype=np.int64)]
        t = d.end_time[glued[1:]]
        # time coordinate (height) of each color's root, and the parent's
        # mutation point (lineage id, time) glued to it
        self._glue_point = [None, *zip((glued[1:] - start).tolist(), t.tolist())]
        self.root_height = [0.0, *(t - d.birth_time[start]).tolist()]
        rh, parent = self.root_height, tree.parent
        for v in range(1, tree.n):
            rh[v] += rh[parent[v]]
        self._graph = None
        # the columns of each color that distance has searched: uniform pairs
        # meet in few colors, about half of them in the root color
        self._searched = {}

    @cached_property
    def lengths(self) -> np.ndarray:
        """Each color's total length."""
        return self.decorations.lengths()

    @cached_property
    def _depth(self) -> list:
        return self.tree.depths()

    @cached_property
    def _length_cdf(self) -> np.ndarray:
        d = self.decorations
        return np.cumsum(d.end_time - d.birth_time)

    @property
    def total_length(self) -> float:
        """|G|: sum of the decoration lengths (gluing adds no length)."""
        return math.fsum(self.lengths.tolist())

    @property
    def n_colors(self) -> int:
        return self.tree.n

    @property
    def root_point(self) -> PointRef:
        return PointRef(0, 0, 0.0)

    # -- metric ------------------------------------------------------------

    def _place(self, p: PointRef) -> tuple:
        """(vertex, lineage, time, time coordinate) of a point; a reference
        off the network raises ValueError."""
        v, i, offset = p.vertex, p.lineage, p.offset
        lists = self.decorations.lists
        o, birth = lists[0], lists[2]
        if not 0 <= v < len(o) - 1:
            raise ValueError(f"vertex {v} outside the {len(o) - 1} colors")
        a = o[v]
        n = o[v + 1] - a
        if not 0 <= i < n:
            raise ValueError(f"lineage {i} outside the {n} lineages of vertex {v}")
        b = birth[a + i]
        length = lists[3][a + i] - b
        if not (0.0 <= offset <= length + 1e-12):
            raise ValueError(f"offset {offset} outside lineage of length {length}")
        t = b + offset
        return v, i, t, self.root_height[v] + (t - birth[a])

    def distance(self, a: PointRef, b: PointRef) -> float:
        """Shortest-path distance in the metric graph.

        Every glue point is a cut vertex, so a path leaves a color only
        through its root or a mutation point.  Let w be the lowest common
        ancestor of the two colors.  A point below w reaches w only through
        the mutation point m_c glued to the child c of w on its side, and
        its distance to m_c is a time difference: every edge is as long as
        the time it spans, and the ancestral path up to c's root is
        monotone in time.  So each side climbs to w at the cost of
        time_coordinate(p) - root_height[c], and the rest of the path stays
        inside w, since leaving w and coming back passes one cut vertex
        twice.  Only w's own graph is searched.
        """
        (u, la, ta, ha), (v, lb, tb, hb) = self._place(a), self._place(b)
        climb = 0.0
        depth, parent = self._depth, self.tree.parent
        ca = cb = -1  # the last child passed on each side
        while depth[u] > depth[v]:
            ca, u = u, parent[u]
        while depth[v] > depth[u]:
            cb, v = v, parent[v]
        while u != v:
            ca, u = u, parent[u]
            cb, v = v, parent[v]
        if ca >= 0:
            climb += ha - self.root_height[ca]
            la, ta = self._glue_point[ca]
        if cb >= 0:
            climb += hb - self.root_height[cb]
            lb, tb = self._glue_point[cb]
        cols = self._searched.get(u)
        if cols is None:
            cols = self._searched[u] = self.decorations.columns(u)
        return climb + _color_distance(cols, (la, ta), (lb, tb))

    def height(self, p: PointRef) -> float:
        """Distance to the root; equals the point's time coordinate.

        The root point lies in color 0, the ancestor of every color, so the
        point climbs to color 0 at the cost of a time difference and the
        search inside color 0 follows a path that is monotone in time.
        """
        return self.distance(self.root_point, p)

    def time_coordinate(self, p: PointRef) -> float:
        return self._place(p)[3]

    def max_height(self) -> float:
        """Maximum time coordinate over the network (= max distance to root)."""
        d = self.decorations
        top = np.maximum.reduceat(d.end_time, d.offsets[:-1]) - d.birth_time[d.offsets[:-1]]
        return float((np.asarray(self.root_height) + top).max())

    # -- measure -----------------------------------------------------------

    def uniform_point(self, rng) -> PointRef:
        """Point distributed as the normalized length measure: a lineage
        drawn by its length from one cumulative sum over all lineages, then
        a uniform offset on it."""
        buf = buffered(rng)
        cdf = self._length_cdf
        g = min(int(np.searchsorted(cdf, buf.uniform() * cdf[-1], side="right")), cdf.size - 1)
        lists = self.decorations.lists
        o, birth, end = lists[0], lists[2], lists[3]
        v = bisect_right(o, g) - 1
        return PointRef(v, g - o[v], buf.uniform() * (end[g] - birth[g]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        glue = [[c, v, i] for v, children in enumerate(self.tree.children) for i, c in enumerate(children)]
        return {
            "tree": self.tree.to_json_dict(),
            "decorations": self.decorations.to_json_dict(),
            "glue": glue,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GluedNetwork":
        """The network of a schema-5 document; a schema-4 one raises ValueError."""
        return cls(GenealogyTree.from_json_dict(d["tree"]), Decorations.from_json_dict(d["decorations"]))

    def _build_graph(self):
        """The whole glued graph: each color's graph, then the glue edges.

        Colors are numbered in vertex order; a glue edge of length 0 joins
        each mutation point to the root of the child color glued there.
        """
        graph, heights, colors = [], [], []
        for v in range(self.tree.n):
            dec = self.decorations.columns(v)
            times, first, adj = _color_graph(dec)
            base = len(graph)
            colors.append((base, times, first))
            t0, H = dec.birth_time[0], self.root_height[v]
            heights += [H + (t - t0) for ts in times for t in ts]
            graph += [[(base + y, w) for y, w in nbrs] for nbrs in adj]
        for c in range(1, self.tree.n):
            base, times, first = colors[self.tree.parent[c]]
            mp_ln, mp_t = self._glue_point[c]
            a = base + first[mp_ln] + bisect_left(times[mp_ln], mp_t)
            b = colors[c][0]  # the first breakpoint of the root lineage
            graph[a].append((b, 0.0))
            graph[b].append((a, 0.0))
        self._graph = graph
        self._nodes = heights  # height of each node, by node id

    def _ensure_graph(self):
        if self._graph is None:
            self._build_graph()

    def to_edge_csv(self) -> str:
        self._ensure_graph()
        lines = ["source,target,weight,source_time,target_time"]
        seen = set()
        for u in range(len(self._nodes)):
            for w, wt in self._graph[u]:
                if (w, u) in seen:
                    continue
                seen.add((u, w))
                lines.append(f"{u},{w},{wt!r},{self._nodes[u]!r},{self._nodes[w]!r}")
        return "\n".join(lines) + "\n"

    def to_extended_newick(self) -> str:
        """Extended-Newick text; reticulations appear as repeated #H labels.

        Written depth first from an explicit stack, so a network of any
        height needs no Python recursion.  A stack entry is either text to
        write or a lineage (vertex, lineage id, time entered, index of its
        next event) still to write from that time on.
        """
        store = self.decorations
        decs = [store.columns(v) for v in range(self.tree.n)]
        events = [_lineage_events(dec) for dec in decs]
        hybrid = {}
        out = []
        stack = [(0, 0, decs[0].birth_time[0], 0)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            v, lid, t_from, k = item
            evs = events[v][lid]
            if k < len(evs):
                t, kind, other = evs[k]
                out.append("(")
                if kind == "b":
                    stack += [f"):{t - t_from!r}", (v, other, t, 0), ",", (v, lid, t, k + 1)]
                else:
                    tag = hybrid.setdefault((v, other, t), f"#H{len(hybrid) + 1}")
                    stack += [f"){tag}:{t - t_from!r}", (v, lid, t, k + 1)]
                continue
            t, kind = decs[v].end_time[lid], decs[v].end_kind[lid]
            if kind == MUTATION:
                j = store.mutation_points(v).index((lid, t))
                child = self.tree.children[v][j]
                out.append("(")
                stack += [f")mut_v{v}_m{j}:{t - t_from!r}", (child, 0, decs[child].birth_time[0], 0)]
            elif kind == COALESCENCE:
                tag = hybrid.setdefault((v, lid, t), f"#H{len(hybrid) + 1}")
                out.append(f"{tag}:{t - t_from!r}")
            else:
                out.append(f"v{v}_l{lid}_{kind}:{t - t_from!r}")
        return "".join(out) + ";"


def distance(G: GluedNetwork, a: PointRef, b: PointRef) -> float:
    return G.distance(a, b)


def uniform_point(G: GluedNetwork, rng) -> PointRef:
    return G.uniform_point(rng)


def sample_network(params: ModelParams, n: int, rng: RngStream) -> GluedNetwork:
    """Glued network conditioned on having exactly n colors.

    The color tree is the critically tilted Galton-Watson tree given n
    vertices, and every color's decoration is drawn in one
    :func:`decorate_batch` call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tilt, probs = analytics.tilted_offspring(params)
    tree = sample_genealogy_tree(probs, n, rng.substream(0))
    return GluedNetwork(tree, decorate_batch(params, [tree.outdegree(v) for v in range(n)], rng.substream(1)))


# -- contour ---------------------------------------------------------------


def _lineage_events(dec: Columns) -> list:
    """Per lineage id, the time-ordered (time, "b" | "c", other lineage id) of
    the births off that lineage and the coalescences into it."""
    parent, birth, end, kinds, target = dec.parent, dec.birth_time, dec.end_time, dec.end_kind, dec.end_target
    events = [[] for _ in birth]
    for i in range(len(birth)):
        if i:
            events[parent[i]].append((birth[i], "b", i))
        if kinds[i] == COALESCENCE:
            events[target[i]].append((end[i], "c", i))
    for ls in events:
        ls.sort(key=lambda e: e[0])
    return events


def _decoration_walk(dec: Columns, buf: BufferedRng):
    """Depth-first runs (start_height_rel, length) of the unreticulated tree.

    One incoming lineage at each coalescence is detached by a fair coin;
    at branch points a fair coin orders the two subtrees.  Every segment of
    the decoration is traversed exactly once, top to bottom.
    """
    end, kinds, target = dec.end_time, dec.end_kind, dec.end_target
    t0 = dec.birth_time[0]
    events = _lineage_events(dec)
    # coin per coalescence: True -> detach the ending lineage
    detach_ender = {i: buf.uniform() < 0.5 for i, k in enumerate(kinds) if k == COALESCENCE}
    runs = []
    stack = [(0, t0, 0)]  # (lineage id, current time, next event index)
    while stack:
        lid, t, ei = stack.pop()
        while True:
            evs = events[lid]
            nxt = evs[ei] if ei < len(evs) else None
            if nxt is not None:
                et, kind, other = nxt
                if kind == "b":
                    runs.append((t - t0, et - t))
                    first, second = ((lid, et, ei + 1), (other, et, 0))
                    if buf.uniform() < 0.5:
                        first, second = second, first
                    stack.append(second)
                    lid, t, ei = first
                    continue
                # coalescence arrival on this lineage
                if detach_ender[other]:
                    ei += 1  # pass through; the ender will tip at its end
                    continue
                runs.append((t - t0, et - t))  # this incoming side is detached
                break
            # no further events: walk to this lineage's end
            runs.append((t - t0, end[lid] - t))
            if kinds[lid] == COALESCENCE and not detach_ender[lid]:
                # continue through the coalescence point onto the target
                tgt = target[lid]
                te = end[lid]
                evs2 = events[tgt]
                j = 0
                while j < len(evs2) and evs2[j][0] <= te:
                    j += 1
                lid, t, ei = tgt, te, j
                continue
            break
    return runs


def contour(G: GluedNetwork, rng: RngStream, grid_size: int = 4096):
    """Height process of the randomized depth-first traversal on a uniform grid.

    Colors are visited in depth-first order and each is allotted time 1/n;
    within a color the traversal moves at constant speed n * L_k.  Returns
    (t_grid, heights, color_index_per_grid_point).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    buf = BufferedRng(rng)
    n = G.n_colors
    per_color = []
    for v in range(n):
        runs = _decoration_walk(G.decorations.columns(v), buf)
        cum = np.concatenate([[0.0], np.cumsum([r[1] for r in runs])])
        h0 = np.array([r[0] for r in runs])
        per_color.append((cum, h0))
    ts = np.arange(grid_size) / grid_size
    heights = np.empty(grid_size)
    colors = np.minimum((ts * n).astype(int), n - 1)
    for i, t in enumerate(ts):
        c = colors[i]
        cum, h0 = per_color[c]
        L = G.lengths[c]
        u = (t * n - c) * L
        j = max(0, min(int(np.searchsorted(cum, u, side="right")) - 1, len(h0) - 1))
        heights[i] = G.root_height[c] + h0[j] + (u - cum[j])
    return ts, heights, colors
