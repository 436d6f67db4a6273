"""Color networks, conditioned color genealogies, and the glued network.

A color's time-embedded subnetwork is realized from its marked trajectory:
births split a uniformly chosen alive lineage, deaths and mutations stop a
uniformly chosen one, coalescences merge a uniform unordered pair (one
lineage continues, the other ends into it).  The genealogy of colors is a
Galton-Watson tree with offspring M; conditioned on n colors it equals the
critically tilted tree conditioned on n vertices, sampled here by the
cycle-lemma rotation.  Each color is decorated with a network drawn from
the trajectory law given M = its outdegree, by the exact h-transform
sampler of `model.conditioned_paths`.  Gluing identifies each child
color's root with the corresponding mutation point and yields a metric
measure space supporting distance, sampling and contour queries.

A decoration is stored as per-lineage columns, the in-memory twin of its
schema-2 JSON form (see `ColorNetwork`).  `decorate_batch` fills them
for all colors of a network: one `model.conditioned_paths` call draws
every color's jump chain and event times in lockstep, then `_realize`
assigns each color's lineages, with no per-event or per-lineage objects.
The marked trajectory and `Lineage` records are derived from the columns on
each request and not kept; every reader in this package uses the columns.

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
from operator import sub

import numpy as np

from . import analytics
from .errors import GlueError, RetryBudgetError
from .model import (
    BIRTH,
    COALESCENCE,
    DEATH,
    MUTATION,
    MarkedTrajectory,
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


# the per-lineage columns of a decoration, and its end kinds
_COLUMNS = ("parent", "birth_time", "end_time", "end_kind", "end_target")
_END_KINDS = {MUTATION, DEATH, COALESCENCE}


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
        """The schema-2 columns and the focal point.

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
        parent, birth, end, kinds, target = (d[k] for k in _COLUMNS)
        n = len(birth)
        if n == 0 or any(len(c) != n for c in (parent, end, kinds, target)):
            raise ValueError(
                "schema-2 decoration columns must be nonempty and of equal length, got "
                + ", ".join(f"{k}: {len(d[k])}" for k in _COLUMNS)
            )
        if not set(kinds) <= _END_KINDS:
            raise ValueError(f"schema-2 end_kind letters must be in 'MDC', got {kinds!r}")
        mutation_points = [(i, t) for t, i in sorted((end[i], i) for i in range(n) if kinds[i] == MUTATION)]
        focal = d["focal_point"]
        return cls(parent, birth, end, kinds, target, mutation_points, tuple(focal) if focal else None)


def _realize(kinds: list, times: list, start_time: float, buf: BufferedRng) -> ColorNetwork:
    """The lineage loop: a color's columns from its jump chain, started in state 1.

    A birth splits a uniform alive lineage, a death or a mutation stops
    one, and a coalescence ends a uniform lineage into another uniform one.
    """
    parent, birth, end, kind, target = [-1], [start_time], [math.nan], [""], [-1]
    alive = [0]
    mutation_points = []
    uniform = buf.uniform
    for t, k in zip(times, kinds):
        if k == BIRTH:
            i = 0 if len(alive) == 1 else int(uniform() * len(alive))
            parent.append(alive[i])
            alive.append(len(birth))
            birth.append(t)
            end.append(math.nan)
            kind.append("")
            target.append(-1)
        elif k == COALESCENCE:
            i = int(uniform() * len(alive))
            j = int(uniform() * (len(alive) - 1))
            if j >= i:
                j += 1
            ender = alive[j]
            end[ender], kind[ender], target[ender] = t, COALESCENCE, alive[i]
            alive[j] = alive[-1]
            alive.pop()
        else:  # death or mutation stops a uniform alive lineage
            i = 0 if len(alive) == 1 else int(uniform() * len(alive))
            ender = alive[i]
            end[ender], kind[ender] = t, k
            if k == MUTATION:
                mutation_points.append((ender, t))
            alive[i] = alive[-1]
            alive.pop()
    if alive:
        raise ValueError("trajectory did not absorb all lineages")
    return ColorNetwork(parent, birth, end, "".join(kind), target, mutation_points)


def build_color_network(traj: MarkedTrajectory, rng) -> ColorNetwork:
    """Realize the lineage structure of a color from its marked trajectory."""
    if traj.initial_state != 1:
        raise ValueError("a color starts from a single lineage")
    return _realize([e[1] for e in traj.events], [e[0] for e in traj.events], traj.start_time, buffered(rng))


def decorate_batch(params: ModelParams, ms, rng) -> list:
    """Color networks conditioned on producing exactly ms[i] mutations, one per entry.

    One `model.conditioned_paths` call on the buffer's generator draws every
    jump chain, then `_realize` assigns each one's lineages from the buffer.
    An m outside the tables' support raises NumericalFailure before any draw.
    """
    buf = buffered(rng)
    paths = conditioned_paths(params, ms, buf.generator())
    times, o = paths.times.tolist(), paths.offsets.tolist()
    return [_realize(paths.kinds[a:b], times[a:b], 0.0, buf) for a, b in zip(o, o[1:])]


def decorate(params: ModelParams, m: int, rng) -> ColorNetwork:
    """Color network conditioned on producing exactly m mutations, the batch of one of
    `decorate_batch`: ``build_color_network(sample_conditioned_path(params, m, buf), buf)``.
    """
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


def _color_graph(dec: ColorNetwork) -> tuple:
    """Metric graph of one decoration.

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


def _color_distance(dec: ColorNetwork, a: tuple, b: tuple) -> float:
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
    """Genealogy tree of colors with decorations glued at mutation points."""

    def __init__(self, tree: GenealogyTree, decorations: list):
        if tree.n != len(decorations):
            raise GlueError("one decoration per tree vertex required")
        for v in range(tree.n):
            if len(decorations[v].mutation_points) != tree.outdegree(v):
                raise GlueError(
                    f"vertex {v}: {len(decorations[v].mutation_points)} mutation points "
                    f"for outdegree {tree.outdegree(v)}"
                )
        self.tree = tree
        self.decorations = decorations
        # time coordinate (height) of each color's root, and the parent's
        # mutation point (lineage id, time) glued to it
        self.root_height = [0.0] * tree.n
        self._glue_point = [None] * tree.n
        for v in range(1, tree.n):
            p = tree.parent[v]
            i = tree.children[p].index(v)
            mp = self._glue_point[v] = decorations[p].mutation_points[i]
            t_rel = mp[1] - decorations[p].birth_time[0]
            self.root_height[v] = self.root_height[p] + t_rel
        self._depth = tree.depths()
        self.lengths = np.array([d.total_length for d in decorations])
        self._graph = None
        self._len_cdf = None
        self._seg_cdfs = None

    @property
    def total_length(self) -> float:
        """|G|: sum of the decoration lengths (gluing adds no length)."""
        return math.fsum(float(x) for x in self.lengths)

    @property
    def n_colors(self) -> int:
        return self.tree.n

    @property
    def root_point(self) -> PointRef:
        return PointRef(0, 0, 0.0)

    # -- metric ------------------------------------------------------------

    def _place(self, p: PointRef) -> tuple:
        """(vertex, lineage, time) of a point; a reference off the network raises ValueError."""
        if not 0 <= p.vertex < self.tree.n:
            raise ValueError(f"vertex {p.vertex} outside the {self.tree.n} colors")
        dec = self.decorations[p.vertex]
        n = len(dec.birth_time)
        if not 0 <= p.lineage < n:
            raise ValueError(f"lineage {p.lineage} outside the {n} lineages of vertex {p.vertex}")
        b = dec.birth_time[p.lineage]
        length = dec.end_time[p.lineage] - b
        if not (0.0 <= p.offset <= length + 1e-12):
            raise ValueError(f"offset {p.offset} outside lineage of length {length}")
        return p.vertex, p.lineage, b + p.offset

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
        (u, la, ta), (v, lb, tb) = self._place(a), self._place(b)
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
            climb += self.time_coordinate(a) - self.root_height[ca]
            la, ta = self._glue_point[ca]
        if cb >= 0:
            climb += self.time_coordinate(b) - self.root_height[cb]
            lb, tb = self._glue_point[cb]
        return climb + _color_distance(self.decorations[u], (la, ta), (lb, tb))

    def height(self, p: PointRef) -> float:
        """Distance to the root; equals the point's time coordinate.

        The root point lies in color 0, the ancestor of every color, so the
        point climbs to color 0 at the cost of a time difference and the
        search inside color 0 follows a path that is monotone in time.
        """
        return self.distance(self.root_point, p)

    def time_coordinate(self, p: PointRef) -> float:
        v, _, t = self._place(p)
        return self.root_height[v] + (t - self.decorations[v].birth_time[0])

    def max_height(self) -> float:
        """Maximum time coordinate over the network (= max distance to root)."""
        return max(
            self.root_height[v] + (max(dec.end_time) - dec.birth_time[0])
            for v, dec in enumerate(self.decorations)
        )

    # -- measure -----------------------------------------------------------

    def uniform_point(self, rng) -> PointRef:
        """Point distributed as the normalized length measure."""
        buf = buffered(rng)
        if self._len_cdf is None:
            self._len_cdf = np.cumsum(self.lengths)
            self._seg_cdfs = [
                np.cumsum(np.subtract(dec.end_time, dec.birth_time)) for dec in self.decorations
            ]
        v = int(np.searchsorted(self._len_cdf, buf.uniform() * self._len_cdf[-1], side="right"))
        v = min(v, self.tree.n - 1)
        cdf = self._seg_cdfs[v]
        i = min(int(np.searchsorted(cdf, buf.uniform() * cdf[-1], side="right")), len(cdf) - 1)
        dec = self.decorations[v]
        return PointRef(v, i, buf.uniform() * (dec.end_time[i] - dec.birth_time[i]))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        glue = []
        for v in range(self.tree.n):
            for i, c in enumerate(self.tree.children[v]):
                glue.append([c, v, i])
        return {
            "tree": self.tree.to_json_dict(),
            "decorations": [d.to_json_dict() for d in self.decorations],
            "glue": glue,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GluedNetwork":
        tree = GenealogyTree.from_json_dict(d["tree"])
        decorations = [ColorNetwork.from_json_dict(x) for x in d["decorations"]]
        return cls(tree, decorations)

    def _build_graph(self):
        """The whole glued graph: each color's graph, then the glue edges.

        Colors are numbered in vertex order; a glue edge of length 0 joins
        each mutation point to the root of the child color glued there.
        """
        graph, heights, colors = [], [], []
        for v, dec in enumerate(self.decorations):
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
        decs = self.decorations
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
                j = decs[v].mutation_points.index((lid, t))
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


def _lineage_events(dec: ColorNetwork) -> list:
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


def _decoration_walk(dec: ColorNetwork, buf: BufferedRng):
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
        runs = _decoration_walk(G.decorations[v], buf)
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
