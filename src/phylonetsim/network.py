"""Color networks, conditioned color genealogies, and the glued network.

A color's time-embedded subnetwork is realized from its marked trajectory:
births split a uniformly chosen alive lineage, deaths and mutations stop a
uniformly chosen one, coalescences merge a uniform unordered pair (one
lineage continues, the other ends into it).  The genealogy of colors is a
Galton-Watson tree with offspring M; conditioned on n colors it equals the
critically tilted tree conditioned on n vertices, sampled here by the
cycle-lemma rotation.  Each color is decorated with a network drawn from
the trajectory law given M = its outdegree, by the exact excursion
decomposition sampler.  Gluing identifies each child color's root with the
corresponding mutation point and yields a metric measure space supporting
distance, sampling and contour queries.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import analytics
from .errors import GlueError, RetryBudgetError
from .model import (
    BIRTH,
    COALESCENCE,
    MUTATION,
    MarkedTrajectory,
    sample_conditioned_path,
    simulate_trajectory,
)
from .params import ModelParams
from .rng import BufferedRng, RngStream


@dataclass
class Lineage:
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


@dataclass
class ColorNetwork:
    trajectory: MarkedTrajectory
    lineages: list
    mutation_points: list  # ordered (lineage id, time)
    focal_point: tuple | None = None

    @property
    def total_length(self) -> float:
        return math.fsum(ln.length for ln in self.lineages)

    def alive_at(self, t: float) -> list:
        return [ln.id for ln in self.lineages if ln.birth_time <= t < ln.end_time]

    def to_json_dict(self) -> dict:
        return {
            "trajectory": self.trajectory.to_json_dict(),
            "lineages": [
                {
                    "id": ln.id,
                    "birth_time": ln.birth_time,
                    "end_time": ln.end_time,
                    "parent": list(ln.parent) if ln.parent else None,
                    "end_kind": ln.end_kind,
                    "end_target": ln.end_target,
                    "mutation_index": ln.mutation_index,
                }
                for ln in self.lineages
            ],
            "mutation_points": [list(mp) for mp in self.mutation_points],
            "focal_point": list(self.focal_point) if self.focal_point else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ColorNetwork":
        lineages = [
            Lineage(
                e["id"],
                e["birth_time"],
                e["end_time"],
                tuple(e["parent"]) if e["parent"] else None,
                e["end_kind"],
                e["end_target"],
                e["mutation_index"],
            )
            for e in d["lineages"]
        ]
        return cls(
            MarkedTrajectory.from_json_dict(d["trajectory"]),
            lineages,
            [tuple(mp) for mp in d["mutation_points"]],
            tuple(d["focal_point"]) if d.get("focal_point") else None,
        )


def build_color_network(params: ModelParams, traj: MarkedTrajectory, rng) -> ColorNetwork:
    """Realize the lineage structure of a color from its marked trajectory."""
    if traj.initial_state != 1:
        raise ValueError("a color starts from a single lineage")
    buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
    root = Lineage(0, traj.start_time)
    lineages = [root]
    alive = [0]
    mutation_points = []
    for t, kind, _ in traj.events:
        if kind == BIRTH:
            i = 0 if len(alive) == 1 else int(buf.uniform() * len(alive))
            parent = alive[i]
            child = Lineage(len(lineages), t, parent=(parent, t))
            lineages.append(child)
            alive.append(child.id)
        elif kind == COALESCENCE:
            i = int(buf.uniform() * len(alive))
            j = int(buf.uniform() * (len(alive) - 1))
            if j >= i:
                j += 1
            ender, cont = alive[j], alive[i]
            ln = lineages[ender]
            ln.end_time, ln.end_kind, ln.end_target = t, COALESCENCE, cont
            alive[j] = alive[-1]
            alive.pop()
        else:  # death or mutation stops a uniform alive lineage
            i = 0 if len(alive) == 1 else int(buf.uniform() * len(alive))
            ln = lineages[alive[i]]
            ln.end_time, ln.end_kind = t, kind
            if kind == MUTATION:
                ln.mutation_index = len(mutation_points)
                mutation_points.append((ln.id, t))
            alive[i] = alive[-1]
            alive.pop()
    if alive:
        raise ValueError("trajectory did not absorb all lineages")
    return ColorNetwork(traj, lineages, mutation_points)


def decorate(params: ModelParams, m: int, rng) -> ColorNetwork:
    """Color network conditioned on producing exactly m mutations.

    The trajectory is an exact draw from the law given M = m by the
    excursion decomposition sampler; an m outside the support of its
    offspring tables raises NumericalFailure.
    """
    buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
    return build_color_network(params, sample_conditioned_path(params, m, buf), buf)


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


def sample_genealogy_tree(
    tilted_probs: np.ndarray, n: int, rng: RngStream, max_retries: int = 1_000_000
) -> GenealogyTree:
    """Galton-Watson tree with the critically tilted offspring law, given n vertices.

    Draws n i.i.d. outdegrees until they sum to n - 1, then rotates the
    sequence into the unique valid preorder encoding (cycle lemma).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    support = np.arange(len(tilted_probs))
    for attempt in range(1, max_retries + 1):
        degs = gen.choice(support, size=n, p=tilted_probs)
        if int(degs.sum()) == n - 1:
            return GenealogyTree.from_preorder_outdegrees(_rotate_to_valid(degs))
    raise RetryBudgetError("cycle sampler exhausted retries", max_retries, 1.0 / max_retries)


@dataclass(frozen=True)
class PointRef:
    vertex: int
    lineage: int
    offset: float


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
        # time coordinate (height) of each color's root
        self.root_height = [0.0] * tree.n
        for v in range(1, tree.n):
            p = tree.parent[v]
            i = tree.children[p].index(v)
            mp = decorations[p].mutation_points[i]
            t_rel = mp[1] - decorations[p].trajectory.start_time
            self.root_height[v] = self.root_height[p] + t_rel
        self.lengths = np.array([d.total_length for d in decorations])
        self._graph = None
        self._root_dist = None
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

    # -- metric graph ------------------------------------------------------

    def _build_graph(self):
        nodes = []  # (vertex, lineage, time, height)
        index = {}
        seg_nodes = {}  # (v, lineage id) -> sorted [(time, node)]

        def node(v, ln, t, h):
            key = (v, ln, t)
            nid = index.get(key)
            if nid is None:
                nid = len(nodes)
                index[key] = nid
                nodes.append((v, ln, t, h))
            return nid

        adj = []

        def edge(a, b, w):
            adj.append((a, b, w))

        for v, dec in enumerate(self.decorations):
            t0 = dec.trajectory.start_time
            H = self.root_height[v]
            breaks = {ln.id: [ln.birth_time, ln.end_time] for ln in dec.lineages}
            for ln in dec.lineages:
                if ln.parent is not None:
                    breaks[ln.parent[0]].append(ln.parent[1])
                if ln.end_kind == COALESCENCE:
                    breaks[ln.end_target].append(ln.end_time)
            for ln in dec.lineages:
                ts = sorted(set(breaks[ln.id]))
                ids = [node(v, ln.id, t, H + (t - t0)) for t in ts]
                seg_nodes[(v, ln.id)] = list(zip(ts, ids))
                for a, b, ta, tb in zip(ids, ids[1:], ts, ts[1:]):
                    edge(a, b, tb - ta)
            for ln in dec.lineages:
                if ln.parent is not None:
                    pid, pt = ln.parent
                    edge(node(v, ln.id, ln.birth_time, H + (pt - t0)), node(v, pid, pt, H + (pt - t0)), 0.0)
                if ln.end_kind == COALESCENCE:
                    edge(
                        node(v, ln.id, ln.end_time, H + (ln.end_time - t0)),
                        node(v, ln.end_target, ln.end_time, H + (ln.end_time - t0)),
                        0.0,
                    )
        for v in range(self.tree.n):
            for i, c in enumerate(self.tree.children[v]):
                mp_ln, mp_t = self.decorations[v].mutation_points[i]
                child_dec = self.decorations[c]
                child_root = child_dec.lineages[0]
                a = index[(v, mp_ln, mp_t)]
                b = index[(c, child_root.id, child_root.birth_time)]
                edge(a, b, 0.0)
        graph = [[] for _ in range(len(nodes))]
        for a, b, w in adj:
            graph[a].append((b, w))
            graph[b].append((a, w))
        self._graph = graph
        self._nodes = nodes
        self._node_index = index
        self._segments = seg_nodes

    def _ensure_graph(self):
        if self._graph is None:
            self._build_graph()

    def _locate(self, p: PointRef):
        """Bracketing (node, forward_offset, backward_offset) for a point."""
        self._ensure_graph()
        dec = self.decorations[p.vertex]
        ln = dec.lineages[p.lineage]
        if not (0.0 <= p.offset <= ln.length + 1e-12):
            raise ValueError(f"offset {p.offset} outside lineage of length {ln.length}")
        t = ln.birth_time + p.offset
        seg = self._segments[(p.vertex, p.lineage)]
        times = [s[0] for s in seg]
        i = max(0, min(bisect_right(times, t) - 1, len(seg) - 2))
        (tl, nl), (tr, nr) = seg[i], seg[i + 1]
        return (nl, t - tl), (nr, tr - t)

    def _dijkstra(self, seeds) -> dict:
        self._ensure_graph()
        dist = {}
        heap = [(d, n) for n, d in seeds]
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = d
            for w, wt in self._graph[u]:
                if w not in dist:
                    heapq.heappush(heap, (d + wt, w))
        return dist

    def distance(self, a: PointRef, b: PointRef) -> float:
        """Shortest-path distance in the metric graph."""
        (al, da), (ar, db_) = self._locate(a)
        (bl, fa), (br, fb) = self._locate(b)
        best = math.inf
        if a.vertex == b.vertex and a.lineage == b.lineage:
            best = abs(a.offset - b.offset)
        dist = self._dijkstra([(al, da), (ar, db_)])
        for nd, off in ((bl, fa), (br, fb)):
            if nd in dist:
                best = min(best, dist[nd] + off)
        return best

    def _root_distances(self) -> dict:
        if self._root_dist is None:
            self._ensure_graph()
            rn = self._node_index[(0, 0, self.decorations[0].trajectory.start_time)]
            self._root_dist = self._dijkstra([(rn, 0.0)])
        return self._root_dist

    def height(self, p: PointRef) -> float:
        """Distance to the root; equals the point's time coordinate.

        Shortest paths to the root are ancestral, so this is the elapsed
        time since the first lineage (exactly the cached root distance).
        """
        (nl, fo), (nr, bo) = self._locate(p)
        dist = self._root_distances()
        best = min(dist[nl] + fo, dist[nr] + bo)
        if p.vertex == 0 and p.lineage == self.decorations[0].lineages[0].id:
            best = min(best, abs(p.offset))  # direct path along the root segment
        return best

    def time_coordinate(self, p: PointRef) -> float:
        dec = self.decorations[p.vertex]
        ln = dec.lineages[p.lineage]
        return self.root_height[p.vertex] + (ln.birth_time + p.offset - dec.trajectory.start_time)

    def max_height(self) -> float:
        """Maximum time coordinate over the network (= max distance to root)."""
        best = 0.0
        for v, dec in enumerate(self.decorations):
            t0 = dec.trajectory.start_time
            h = self.root_height[v] + (dec.trajectory.end_time - t0)
            best = max(best, h)
        return best

    # -- measure -----------------------------------------------------------

    def uniform_point(self, rng) -> PointRef:
        """Point distributed as the normalized length measure."""
        buf = rng if isinstance(rng, BufferedRng) else BufferedRng(rng)
        if self._len_cdf is None:
            self._len_cdf = np.cumsum(self.lengths)
            self._seg_cdfs = [
                np.cumsum([ln.length for ln in dec.lineages]) for dec in self.decorations
            ]
        v = int(np.searchsorted(self._len_cdf, buf.uniform() * self._len_cdf[-1], side="right"))
        v = min(v, self.tree.n - 1)
        cdf = self._seg_cdfs[v]
        i = min(int(np.searchsorted(cdf, buf.uniform() * cdf[-1], side="right")), len(cdf) - 1)
        ln = self.decorations[v].lineages[i]
        return PointRef(v, ln.id, buf.uniform() * ln.length)

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

    def to_edge_csv(self) -> str:
        self._ensure_graph()
        lines = ["source,target,weight,source_time,target_time"]
        seen = set()
        for u in range(len(self._nodes)):
            for w, wt in self._graph[u]:
                if (w, u) in seen:
                    continue
                seen.add((u, w))
                lines.append(
                    f"{u},{w},{wt!r},{self._nodes[u][3]!r},{self._nodes[w][3]!r}"
                )
        return "\n".join(lines) + "\n"

    def to_extended_newick(self) -> str:
        """Extended-Newick text; reticulations appear as repeated #H labels."""
        self._ensure_graph()
        hybrid = {}

        def subtree(v: int, dec: ColorNetwork, ln: Lineage, t_from: float) -> str:
            events = []
            for other in dec.lineages:
                if other.parent is not None and other.parent[0] == ln.id and other.parent[1] > t_from:
                    events.append((other.parent[1], "b", other))
                if other.end_kind == COALESCENCE and other.end_target == ln.id and other.end_time > t_from:
                    events.append((other.end_time, "c", other))
            events.sort(key=lambda e: e[0])
            if events:
                t, kind, other = events[0]
                if kind == "b":
                    left = subtree(v, dec, ln, t)
                    right = subtree(v, dec, other, t)
                    return f"({left},{right}):{t - t_from!r}"
                tag = hybrid.setdefault((v, other.id, other.end_time), f"#H{len(hybrid) + 1}")
                rest = subtree(v, dec, ln, t)
                return f"({rest}){tag}:{t - t_from!r}"
            t = ln.end_time
            if ln.end_kind == MUTATION:
                child = self.tree.children[v][ln.mutation_index]
                cdec = self.decorations[child]
                inner = subtree(child, cdec, cdec.lineages[0], cdec.trajectory.start_time)
                return f"({inner})mut_v{v}_m{ln.mutation_index}:{t - t_from!r}"
            if ln.end_kind == COALESCENCE:
                tag = hybrid.setdefault((v, ln.id, ln.end_time), f"#H{len(hybrid) + 1}")
                return f"{tag}:{t - t_from!r}"
            return f"v{v}_l{ln.id}_{ln.end_kind}:{t - t_from!r}"

        dec = self.decorations[0]
        return subtree(0, dec, dec.lineages[0], dec.trajectory.start_time) + ";"


def glue(tree: GenealogyTree, decorations: list) -> GluedNetwork:
    """Assemble the glued network (child roots identified with mutation points)."""
    return GluedNetwork(tree, decorations)


def distance(G: GluedNetwork, a: PointRef, b: PointRef) -> float:
    return G.distance(a, b)


def uniform_point(G: GluedNetwork, rng) -> PointRef:
    return G.uniform_point(rng)


_tilt_cache: dict = {}


def tilted_offspring_cached(params: ModelParams):
    entry = _tilt_cache.get(params)
    if entry is None:
        entry = _tilt_cache[params] = analytics.tilted_offspring(params)
    return entry


def sample_network(
    params: ModelParams, n: int, rng: RngStream, method: str = "tilted",
    max_retries: int = 200_000,
) -> GluedNetwork:
    """Glued network conditioned on having exactly n colors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method == "tilted":
        tilt, probs = tilted_offspring_cached(params)
        tree = sample_genealogy_tree(probs, n, rng.substream(0))
        buf = BufferedRng(rng.substream(1))
        decorations = [decorate(params, tree.outdegree(v), buf) for v in range(n)]
        return GluedNetwork(tree, decorations)
    if method == "direct":
        buf = BufferedRng(rng)
        for attempt in range(1, max_retries + 1):
            # grow the color tree depth-first from the root color
            trajs = []
            children = []
            stack = [-1]
            ok = True
            while stack:
                parent = stack.pop()
                if len(trajs) >= n:
                    ok = False
                    break
                traj = simulate_trajectory(params, 1, buf)
                vid = len(trajs)
                trajs.append(traj)
                children.append([])
                if parent >= 0:
                    children[parent].append(vid)
                # push one marker per mutation; LIFO makes ids preorder
                stack.extend([vid] * traj.M)
            if not ok or len(trajs) != n:
                continue
            degs = [len(c) for c in children]
            tree = GenealogyTree.from_preorder_outdegrees(degs)
            decorations = [build_color_network(params, t, buf) for t in trajs]
            return GluedNetwork(tree, decorations)
        raise RetryBudgetError(
            f"direct sampler missed n={n} colors (exponentially slow off-criticality; "
            "use method='tilted')",
            max_retries,
            1.0 / max_retries,
        )
    raise ValueError(f"unknown method {method!r}")


# -- contour ---------------------------------------------------------------


def _decoration_walk(dec: ColorNetwork, buf: BufferedRng):
    """Depth-first runs (start_height_rel, length) of the unreticulated tree.

    One incoming lineage at each coalescence is detached by a fair coin;
    at branch points a fair coin orders the two subtrees.  Every segment of
    the decoration is traversed exactly once, top to bottom.
    """
    t0 = dec.trajectory.start_time
    events = {ln.id: [] for ln in dec.lineages}
    for ln in dec.lineages:
        if ln.parent is not None:
            events[ln.parent[0]].append((ln.parent[1], "b", ln.id))
        if ln.end_kind == COALESCENCE:
            events[ln.end_target].append((ln.end_time, "c", ln.id))
    for ls in events.values():
        ls.sort(key=lambda e: e[0])
    # coin per coalescence: True -> detach the ending lineage
    detach_ender = {
        ln.id: buf.uniform() < 0.5 for ln in dec.lineages if ln.end_kind == COALESCENCE
    }
    runs = []
    stack = [(0, t0, 0)]  # (lineage id, current time, next event index)
    while stack:
        lid, t, ei = stack.pop()
        while True:
            ln = dec.lineages[lid]
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
            runs.append((t - t0, ln.end_time - t))
            if ln.end_kind == COALESCENCE and not detach_ender[lid]:
                # continue through the coalescence point onto the target
                tgt = ln.end_target
                te = ln.end_time
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
