import json
import math

import numpy as np
import pytest

from phylonetsim import ModelParams, RngStream, analytics, limits
from phylonetsim.cli import NUMERIC_ERRORS
from phylonetsim.errors import GlueError, NumericalFailure, RetryBudgetError
from phylonetsim.model import BIRTH, COALESCENCE, DEATH, MUTATION, MarkedTrajectory, conditioned_paths
from phylonetsim.network import (
    ColorNetwork,
    GenealogyTree,
    GluedNetwork,
    PointRef,
    contour,
    decorate,
    realize,
    sample_genealogy_tree,
    sample_network,
)
from phylonetsim.rng import BufferedRng
import phylonetsim.network as network_mod
import phylonetsim.verify as V

P111 = ModelParams(1.0, 1.0, 1.0)


class TestDecorate:
    def test_m0_has_no_mutation_points(self):
        buf = BufferedRng(RngStream(400))
        for _ in range(100):
            dec = decorate(P111, 0, buf)
            assert dec.mutation_points == []
            assert all(ln.end_kind in (DEATH, COALESCENCE) for ln in dec.lineages)

    def test_alive_count_matches_trajectory(self):
        c = V.check_decoration_consistency(P111, seed=401, n_samples=200)
        assert c.passed, c.detail

    def test_stratified_length_oracle(self):
        c = V.check_decorate_stratum_mean(P111, seed=402, n=10_000, m=1)
        assert c.passed, c.detail

    def test_mutation_points_ordered(self):
        buf = BufferedRng(RngStream(403))
        dec = decorate(P111, 3, buf)
        times = [t for _, t in dec.mutation_points]
        assert times == sorted(times)
        for i, (lid, t) in enumerate(dec.mutation_points):
            assert dec.lineages[lid].mutation_index == i
            assert dec.lineages[lid].end_time == t

    def test_outdegree_beyond_support_is_typed(self):
        # the tilted law can put mass on outdegrees past the sampler's m_max = 256;
        # simulate must then exit with the numeric-failure code
        assert NumericalFailure in NUMERIC_ERRORS
        with pytest.raises(NumericalFailure):
            decorate(P111, 300, BufferedRng(RngStream(424)))

    @pytest.mark.parametrize(
        "params", [P111, ModelParams(0.5, 2.0, 0.5), ModelParams(2.0, 0.5, 0.1), ModelParams(0.3, 0.3, 1.0)]
    )
    def test_one_pass_equals_path_then_lineages(self, params):
        # decorate draws exactly what the path sampler and the lockstep realizer draw on one stream
        one, two = BufferedRng(RngStream(441)), BufferedRng(RngStream(441))
        for m in range(9):
            for _ in range(4):
                dec = decorate(params, m, one)
                paths = conditioned_paths(params, [m], two.generator())
                ref = realize(paths, two.generator())[0]
                for col in ("parent", "birth_time", "end_time", "end_kind", "end_target", "mutation_points"):
                    assert getattr(dec, col) == getattr(ref, col)
                assert dec.trajectory.events == ref.trajectory.events == paths.trajectory(0).events
                assert dec.trajectory.start_time == 0.0
                assert dec.lineages == ref.lineages and dec.lineages is not dec.lineages
        assert one.uniform() == two.uniform()

    def test_lockstep_realizer_law(self):
        # 20 000 colors at m = 3 against the per-color lineage loop of verify
        for c in V.check_realizer_law(P111, seed=442, n=20_000, m=3):
            assert c.passed, (c.name, c.statistic, c.detail)

    def test_realize_rejects_paths_not_from_state_one(self):
        paths = conditioned_paths(P111, [2, 1], BufferedRng(RngStream(443)).generator())
        two = paths._replace(states=paths.states + 1)
        with pytest.raises(ValueError, match="state 1"):
            realize(two, BufferedRng(RngStream(444)).generator())

    def test_coalescence_needs_two(self):
        # a trajectory sitting at state 1 can only end by death or mutation
        buf = BufferedRng(RngStream(404))
        for _ in range(200):
            dec = decorate(P111, 0, buf)
            for ln in dec.lineages:
                if ln.end_kind == COALESCENCE:
                    assert ln.end_target != ln.id


class TestGenealogyTree:
    def test_preorder_roundtrip(self):
        degs = [2, 1, 0, 3, 0, 0, 0]
        t = GenealogyTree.from_preorder_outdegrees(degs)
        assert [t.outdegree(v) for v in range(len(degs))] == degs
        assert t.parent[1] == 0 and t.parent[3] == 0 and t.parent[4] == 3
        assert t.children[0] == [1, 3]
        assert t.depths()[6] == 2 and t.height() == 2

    def test_invalid_sequence_raises(self):
        with pytest.raises(ValueError):
            GenealogyTree.from_preorder_outdegrees([2, 0, 0, 0])

    def test_n1_forced(self):
        _, probs = analytics.tilted_offspring(P111)
        t = sample_genealogy_tree(probs, 1, RngStream(405))
        assert t.n == 1 and t.outdegree(0) == 0

    def test_n2_forced_chain(self):
        _, probs = analytics.tilted_offspring(P111)
        for i in range(20):
            t = sample_genealogy_tree(probs, 2, RngStream(406, i))
            assert t.parent == [-1, 0]
            assert [t.outdegree(v) for v in (0, 1)] == [1, 0]

    def test_retry_budget_error_carries_rate(self, monkeypatch):
        # every outdegree is 2, so four of them never sum to 3
        monkeypatch.setattr(network_mod, "TREE_RETRIES", 50)
        with pytest.raises(RetryBudgetError) as err:
            sample_genealogy_tree(np.array([0.0, 0.0, 1.0]), 4, RngStream(108))
        assert err.value.attempts == 50
        assert err.value.acceptance_rate <= 1.0 / 50

    def test_methods_agree(self):
        for c in V.check_genealogy_methods(P111, seed=407, n=6, n_samples=6000):
            assert c.passed, c.detail


class TestGlue:
    def test_mutation_count_mismatch_raises(self):
        buf = BufferedRng(RngStream(408))
        tree = GenealogyTree.from_preorder_outdegrees([1, 0])
        bad = [decorate(P111, 0, buf), decorate(P111, 0, buf)]
        with pytest.raises(GlueError):
            GluedNetwork(tree, bad)

    def test_length_and_recounts(self):
        for c in V.check_glue_recount(P111, seed=409, n=20):
            assert c.passed, (c.name, c.statistic, c.threshold)

    def test_root_mutation_distance(self):
        G = sample_network(P111, 12, RngStream(410))
        dec = G.decorations[0]
        for i, (lid, t) in enumerate(dec.mutation_points):
            p = PointRef(0, lid, t - dec.lineages[lid].birth_time)
            assert G.distance(G.root_point, p) == pytest.approx(t, abs=1e-9)

    def test_json_roundtrip(self):
        G = sample_network(P111, 8, RngStream(411))
        d = G.to_json_dict()
        back = GluedNetwork.from_json_dict(d)
        assert back.total_length == pytest.approx(G.total_length, rel=1e-15)
        assert back.tree.parent == G.tree.parent
        assert back.root_height == G.root_height

    def test_edge_csv_header(self):
        G = sample_network(P111, 4, RngStream(412))
        text = G.to_edge_csv()
        assert text.splitlines()[0] == "source,target,weight,source_time,target_time"

    def test_extended_newick_shape(self):
        G = sample_network(P111, 6, RngStream(413))
        s = G.to_extended_newick()
        assert s.endswith(";")
        assert s.count("(") == s.count(")")
        n_coal = sum(
            1 for d in G.decorations for ln in d.lineages if ln.end_kind == COALESCENCE
        )
        assert s.count("#H") == 2 * n_coal

    def test_extended_newick_deep_chain(self):
        # 1 500 nested colors: deeper than Python's default recursion limit
        G = _chain_network(1500, BufferedRng(RngStream(433)))
        s = G.to_extended_newick()
        assert s.endswith(";") and s.count("(") == s.count(")")
        assert s.count(")mut_v") == 1499
        assert G._graph is None


def _through_json(doc):
    return json.loads(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _assert_same_decoration(back, dec):
    assert back.lineages == dec.lineages
    assert back.mutation_points == dec.mutation_points
    assert back.trajectory.initial_state == dec.trajectory.initial_state == 1
    assert back.trajectory.events == dec.trajectory.events
    assert back.trajectory.start_time == dec.trajectory.start_time
    assert back.focal_point == dec.focal_point


def _assert_network_round_trip(G):
    back = GluedNetwork.from_json_dict(_through_json(G.to_json_dict()))
    assert back.tree.parent == G.tree.parent and back.tree.children == G.tree.children
    for col in ("offsets", "parent", "birth_time", "end_time", "end_target", "mutations"):
        assert np.array_equal(getattr(back.decorations, col), getattr(G.decorations, col))
    assert back.decorations.end_kind == G.decorations.end_kind
    for b, d in zip(back.decorations, G.decorations, strict=True):
        _assert_same_decoration(b, d)
    assert back.to_edge_csv() == G.to_edge_csv()
    assert back.to_extended_newick() == G.to_extended_newick()


class TestSchema2:
    """The columnar forms read back exactly what was drawn: schema 5 for a
    network, schema 2 for one decoration."""

    @pytest.mark.parametrize(
        "params", [P111, ModelParams(0.5, 2.0, 0.5), ModelParams(2.0, 0.5, 0.1), ModelParams(0.3, 0.3, 1.0)]
    )
    def test_network_round_trip_exact(self, params):
        for i in range(3):
            _assert_network_round_trip(sample_network(params, 300, RngStream(434, i)))

    def test_chain_round_trip_exact(self):
        _assert_network_round_trip(_chain_network(400, BufferedRng(RngStream(435))))

    def test_local_ball_round_trip_exact(self, monkeypatch):
        # pasted decorations: negative start times and an event at time 0
        pasted = []

        def recording(paths, gen, start):
            pasted.append(MarkedTrajectory(1, paths.trajectory(0).events, float(start[0])))
            return realize(paths, gen, start)

        monkeypatch.setattr(limits, "realize", recording)
        zeta = analytics.zeta_tilt(P111).zeta
        buf = BufferedRng(RngStream(436))
        decs, focal = [], []
        for _ in range(20):
            decs += [limits.sample_focal_network(P111, zeta, buf), limits.sample_spinal_network(P111, zeta, buf)]
        for i in range(5):
            ball = limits.sample_local_ball(P111, zeta, 2, RngStream(437, i))
            decs += [v.decoration for v in ball.vertices]
            focal.append(ball.focal)
        assert all(d.focal_point is not None for d in decs[:40])
        assert any(traj.start_time < 0 for traj in pasted)
        for dec in decs:
            back = ColorNetwork.from_json_dict(_through_json(dec.to_json_dict()))
            _assert_same_decoration(back, dec)
        for dec, traj in zip(decs[:40] + focal, pasted, strict=True):
            back = ColorNetwork.from_json_dict(_through_json(dec.to_json_dict()))
            assert back.trajectory.events == traj.events  # the trajectory read back is the one pasted
            assert back.trajectory.start_time == traj.start_time

    def test_columns_only(self):
        dec = decorate(P111, 3, BufferedRng(RngStream(438)))
        d = dec.to_json_dict()
        assert set(d) == {"parent", "birth_time", "end_time", "end_kind", "end_target", "focal_point"}
        assert d["end_kind"].count("M") == 3 and d["parent"][0] == -1

    def test_bad_documents_raise_value_error(self):
        dec = decorate(P111, 2, BufferedRng(RngStream(439)))
        schema1 = {
            "trajectory": dec.trajectory.to_json_dict(),
            "lineages": [{"id": ln.id, "birth_time": ln.birth_time} for ln in dec.lineages],
            "mutation_points": [list(mp) for mp in dec.mutation_points],
            "focal_point": None,
        }
        short = dec.to_json_dict()
        short["end_time"] = short["end_time"][:-1]
        bad_kind = dec.to_json_dict()
        bad_kind["end_kind"] = "X" + bad_kind["end_kind"][1:]
        for doc in (schema1, short, bad_kind):
            with pytest.raises(ValueError, match="schema-2"):
                ColorNetwork.from_json_dict(doc)
        G = sample_network(P111, 4, RngStream(440))
        schema4 = G.to_json_dict()
        schema4["decorations"] = [dec.to_json_dict() for dec in G.decorations]
        short = G.to_json_dict()
        short["decorations"] = dict(short["decorations"], end_time=short["decorations"]["end_time"][:-1])
        for doc in (schema4, short):
            with pytest.raises(ValueError, match="schema-5"):
                GluedNetwork.from_json_dict(doc)
        with pytest.raises(ValueError, match="offsets, parent, birth_time, end_time, end_kind, end_target"):
            GluedNetwork.from_json_dict(schema4)


class TestSamplers:
    def test_color_count_always_n(self):
        for i, n in enumerate((1, 2, 5, 17)):
            G = sample_network(P111, n, RngStream(414, i))
            assert G.n_colors == n == len(G.decorations)

    def test_tilted_vs_direct(self):
        for c in V.check_tilted_vs_direct(P111, seed=415, n=4, n_samples=2000):
            assert c.passed, (c.name, c.statistic)


def _chain_network(n_colors, buf):
    tree = GenealogyTree.from_preorder_outdegrees([1] * (n_colors - 1) + [0])
    return GluedNetwork(tree, [decorate(P111, tree.outdegree(v), buf) for v in range(n_colors)])


def _probe_points(G, rng, k):
    """The root and k uniform points, each with a point further along its
    lineage, the start of another lineage of its color, the root of its
    color and, in the parent color, the glue point and a point before it."""
    pts = [G.root_point]
    for i in range(k):
        p = G.uniform_point(rng.substream(i))
        n_lin = len(G.decorations[p.vertex].lineages)
        pts += [
            p,
            PointRef(p.vertex, p.lineage, 0.5 * p.offset),
            PointRef(p.vertex, (p.lineage + 1) % n_lin, 0.0),
            PointRef(p.vertex, 0, 0.0),
        ]
        if p.vertex:
            parent = G.tree.parent[p.vertex]
            lid, _ = G.decorations[parent].mutation_points[G.tree.children[parent].index(p.vertex)]
            ln = G.decorations[parent].lineages[lid]
            pts += [PointRef(parent, lid, ln.length), PointRef(parent, lid, 0.25 * ln.length)]
    return pts


class TestMetric:
    def test_distance_height_exact(self):
        for c in V.check_distance_height(P111, seed=418, n=25, n_points=60):
            assert c.passed, (c.name, c.statistic)

    @pytest.mark.parametrize(
        "params", [P111, ModelParams(0.5, 2.0, 0.5), ModelParams(2.0, 0.5, 0.1), ModelParams(0.3, 0.3, 1.0)]
    )
    def test_distance_matches_graph_oracle(self, params):
        for i in range(4):
            G = sample_network(params, 50, RngStream(425, i))
            pts = _probe_points(G, RngStream(426, i), 8)
            assert V.distance_oracle_error(G, pts) <= 1e-12
            for p in pts:
                assert G.height(p) == pytest.approx(G.time_coordinate(p), rel=1e-12, abs=1e-12)

    def test_chain_distance_matches_graph_oracle(self):
        G = _chain_network(400, BufferedRng(RngStream(427)))
        pts = _probe_points(G, RngStream(428), 10)
        pts += [PointRef(399, 0, 0.0), PointRef(200, 0, 0.0)]
        assert V.distance_oracle_error(G, pts) <= 1e-12

    def test_queries_leave_global_graph_unbuilt(self):
        G = sample_network(P111, 30, RngStream(429))
        a, b = G.uniform_point(RngStream(430)), G.uniform_point(RngStream(431))
        G.distance(a, b)
        G.height(a)
        assert G._graph is None

    def test_bad_point_refs_raise_value_error(self):
        G = sample_network(P111, 6, RngStream(432))
        length = G.decorations[0].lineages[0].length
        for p, word in [
            (PointRef(-1, 0, 0.0), "vertex"),
            (PointRef(0, -1, 0.0), "lineage"),
            (PointRef(G.n_colors, 0, 0.0), "vertex"),
            (PointRef(0, 0, 2.0 * length + 1.0), "offset"),
        ]:
            with pytest.raises(ValueError, match=word):
                G.distance(G.root_point, p)
            with pytest.raises(ValueError, match=word):
                G.height(p)

    def test_uniform_point(self):
        for c in V.check_uniform_point(P111, seed=419, n=20, n_points=20_000):
            assert c.passed, (c.name, c.statistic)


class TestContour:
    def test_contour_checks(self):
        for c in V.check_contour(P111, seed=420, n=10):
            assert c.passed, (c.name, c.statistic, c.threshold)

    def test_grid_size_validation(self):
        G = sample_network(P111, 3, RngStream(421))
        with pytest.raises(ValueError):
            contour(G, RngStream(0), 1)

    def test_walk_covers_total_length(self):
        from phylonetsim.network import _decoration_walk

        buf = BufferedRng(RngStream(422))
        dec = decorate(P111, 2, buf)
        runs = _decoration_walk(dec, buf)
        assert math.fsum(r[1] for r in runs) == pytest.approx(dec.total_length, rel=1e-12)
        assert all(r[1] > -1e-15 for r in runs)


class TestDwass:
    def test_small_n_frequencies(self):
        c = V.check_dwass_small_n(P111, seed=423, n_samples=40_000)
        assert c.passed, c.detail
