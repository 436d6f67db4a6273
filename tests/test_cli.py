import json

import pytest

from phylonetsim import ModelParams, RngStream
from phylonetsim.cli import SCHEMA_VERSION, build_parser, main
from phylonetsim.model import sample_conditioned_path
from phylonetsim.network import ColorNetwork, GluedNetwork, build_color_network, contour, sample_network
from phylonetsim.rng import BufferedRng


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestAnalyze:
    def test_json_structure(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "a.json",
            ["analyze", "--alpha", "1", "--beta", "1", "--mu", "1", "--samples", "2000", "--seed", "7"],
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["schema_version"] == SCHEMA_VERSION
        a = doc["analysis"]
        assert a["expected_M"]["value"] == pytest.approx(0.7182818284590452, abs=1e-9)
        assert a["extinction_probability"]["value"] == 1.0
        assert a["malthusian_rate"]["value"] < 0
        assert a["tilt"]["zeta"] > 1.0
        for key in ("method", "error"):
            assert key in a["expected_M"] or key in ("method",)
        assert "EUstar" in a["crt_constants"]

    def test_supercritical_summary(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "b.json",
            ["analyze", "--alpha", "0.2", "--beta", "0.2", "--mu", "0.2", "--samples", "2000", "--seed", "7"],
        )
        doc = json.loads(raw)
        a = doc["analysis"]
        assert a["expected_M"]["value"] == pytest.approx(5.696526364103064, abs=1e-8)
        assert 0.23851 <= a["extinction_probability"]["value"] <= 0.34
        assert a["malthusian_rate"]["value"] > 0

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["analyze", "--alpha", "1", "--beta", "1", "--mu", "1", "--samples", "1500", "--seed", "11"]
        _, raw1 = run_to_file(tmp_path, "r1.json", argv)
        _, raw2 = run_to_file(tmp_path, "r2.json", argv)
        assert raw1 == raw2


class TestGfunTable:
    def test_csv_monotone_gap(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "g.csv",
            [
                "gfun-table", "--alpha", "1", "--beta", "1", "--mu", "1",
                "--depths", "4,8,16", "--z-steps", "6", "--format", "csv",
            ],
        )
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "depth,z,lower,upper,gap,sup_gap,gap_majorant"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3 * 6
        sup_by_depth = {int(r[0]): float(r[5]) for r in rows}
        assert sup_by_depth[4] > sup_by_depth[8] > sup_by_depth[16]
        for r in rows:
            assert float(r[2]) <= float(r[3])  # lower <= upper
            assert float(r[5]) <= float(r[6]) + 1e-15  # sup gap below majorant

    def test_bounds_meet_at_one(self, tmp_path):
        _, raw = run_to_file(
            tmp_path,
            "g2.json",
            ["gfun-table", "--alpha", "0.2", "--beta", "0.2", "--mu", "0.2", "--depths", "30"],
        )
        doc = json.loads(raw)
        rows = doc["gfun_table"][0]["rows"]
        assert all(0.0 <= r["lower"] <= r["upper"] <= 1.0 for r in rows)
        last = rows[-1]
        assert last["z"] == 1.0
        assert last["upper"] - last["lower"] <= 1e-9


class TestSimulate:
    def test_network_json(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "n.json",
            ["simulate", "--alpha", "1", "--beta", "1", "--mu", "1", "--n", "6", "--seed", "5", "--count", "2"],
        )
        assert code == 0
        doc = json.loads(raw)
        assert len(doc["networks"]) == 2
        net = doc["networks"][0]
        assert set(net) == {"tree", "decorations", "glue"}
        assert len(net["decorations"]) == 6

    def test_network_reads_back_as_sampled(self, tmp_path):
        code, raw = run_to_file(tmp_path, "n.json", ["simulate", "--n", "200", "--seed", "21"])
        assert code == 0
        doc = json.loads(raw)
        # compact, key-sorted, one line
        assert raw.decode() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        back = GluedNetwork.from_json_dict(doc["networks"][0])
        params = ModelParams(1.0, 1.0, 1.0)
        G = sample_network(params, 200, RngStream(21, 0))
        assert back.tree.parent == G.tree.parent and back.tree.children == G.tree.children
        # the decorations' stream, replayed through the path sampler and the lineage loop
        twin = BufferedRng(RngStream(21, 0).substream(1))
        for v, (b, d) in enumerate(zip(back.decorations, G.decorations, strict=True)):
            path = sample_conditioned_path(params, G.tree.outdegree(v), twin)
            build_color_network(params, path, twin)
            assert b.lineages == d.lineages
            assert b.mutation_points == d.mutation_points
            assert b.trajectory.events == path.events
            assert b.trajectory.start_time == path.start_time

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["simulate", "--n", "50", "--seed", "22", "--count", "2"]
        _, raw1 = run_to_file(tmp_path, "s1.json", argv)
        _, raw2 = run_to_file(tmp_path, "s2.json", argv)
        assert raw1 == raw2

    def test_parser_built_once_keeps_no_state(self, tmp_path):
        # the cached parser must leave no default or namespace state behind:
        # each output equals the one from a fresh parser
        runs = [["simulate", "--n", "30", "--seed", "4", "--count", "3"], ["simulate", "--n", "30", "--seed", "4"]]
        cached = [run_to_file(tmp_path, f"c{i}.json", argv) for i, argv in enumerate(runs)]
        assert build_parser() is build_parser()
        fresh = []
        for i, argv in enumerate(runs):
            build_parser.cache_clear()
            fresh.append(run_to_file(tmp_path, f"f{i}.json", argv))
        assert cached == fresh
        assert len(json.loads(cached[0][1])["networks"]) == 3
        assert len(json.loads(cached[1][1])["networks"]) == 1

    def test_trajectory_kind(self, tmp_path):
        _, raw = run_to_file(
            tmp_path,
            "t.json",
            ["simulate", "--kind", "trajectory", "--alpha", "1", "--beta", "1", "--mu", "1", "--n", "1", "--seed", "5", "--count", "3"],
        )
        doc = json.loads(raw)
        assert len(doc["trajectories"]) == 3
        tr = doc["trajectories"][0]
        assert set(tr) == {"initial_state", "start_time", "events"}
        assert all(kind in "BDCM" for _, kind in tr["events"])

    def test_newick_output(self, tmp_path):
        _, raw = run_to_file(
            tmp_path,
            "n.nwk",
            ["simulate", "--alpha", "1", "--beta", "1", "--mu", "1", "--n", "4", "--seed", "5", "--format", "newick"],
        )
        text = raw.decode().strip()
        assert text.endswith(";") and text.count("(") == text.count(")")

    def test_edge_csv_output(self, tmp_path):
        _, raw = run_to_file(
            tmp_path,
            "n.csv",
            ["simulate", "--alpha", "1", "--beta", "1", "--mu", "1", "--n", "4", "--seed", "5", "--format", "csv"],
        )
        assert raw.decode().splitlines()[0] == "source,target,weight,source_time,target_time"


class TestColumnsOnly:
    def test_package_never_reads_lineages(self, tmp_path, monkeypatch):
        # every reader in the package uses the columns; lineages is for outside readers
        def forbidden(self):
            raise AssertionError("ColorNetwork.lineages read inside the package")

        monkeypatch.setattr(ColorNetwork, "lineages", property(forbidden))
        G = sample_network(ModelParams(1.0, 1.0, 1.0), 60, RngStream(23))
        out = {}
        for fmt in ("json", "csv", "newick"):
            code, out[fmt] = run_to_file(tmp_path, f"g.{fmt}", ["simulate", "--n", "60", "--seed", "23", "--format", fmt])
            assert code == 0 and out[fmt]
        back = GluedNetwork.from_json_dict(json.loads(out["json"])["networks"][0])
        assert back.total_length == G.total_length
        a, b = G.uniform_point(RngStream(24)), G.uniform_point(RngStream(25))
        assert G.distance(a, b) == G.distance(b, a)
        assert G.height(a) == pytest.approx(G.time_coordinate(a), rel=1e-12)
        assert G.max_height() >= G.height(b)
        _, heights, _ = contour(G, RngStream(26), 256)
        assert heights.max() <= G.max_height() + 1e-12


class TestContour:
    def test_csv_grid(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "c.csv",
            ["contour", "--alpha", "1", "--beta", "1", "--mu", "1", "--n", "20", "--seed", "9", "--grid", "128", "--format", "csv"],
        )
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "t,h"
        assert len(lines) == 129
        t0, h0 = lines[1].split(",")
        assert float(t0) == 0.0 and float(h0) == 0.0


class TestLocalBall:
    def test_json_shape(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "lb.json",
            ["local-ball", "--alpha", "1", "--beta", "1", "--mu", "1", "--seed", "13", "--r", "2"],
        )
        assert code == 0
        doc = json.loads(raw)["local_ball"]
        assert doc["r"] == 2
        assert len(doc["spine_ids"]) == 2
        focal = doc["vertices"][doc["focal_id"]]
        assert focal["role"] == "focal"
        assert focal["decoration"]["end_kind"].count("M") == focal["outdegree"]


class TestVerifyCommand:
    def test_model_suite_passes(self, tmp_path):
        code, raw = run_to_file(
            tmp_path,
            "v.json",
            ["verify", "--suite", "model", "--alpha", "1", "--beta", "1", "--mu", "1", "--seed", "42", "--scale", "0.05"],
        )
        assert code == 0
        doc = json.loads(raw)
        assert doc["passed"] is True
        assert all(set(c) >= {"name", "passed", "statistic", "threshold"} for c in doc["checks"])

    def test_worker_count_invariance(self, tmp_path):
        base = [
            "verify", "--suite", "crt", "--alpha", "1", "--beta", "1", "--mu", "1",
            "--seed", "4", "--n", "60", "--replicates", "24", "--samples", "4000",
        ]
        _, raw1 = run_to_file(tmp_path, "w1.json", base + ["--workers", "1"])
        _, raw2 = run_to_file(tmp_path, "w2.json", base + ["--workers", "3"])
        assert raw1 == raw2

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nonsense"])
        assert err.value.code == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.2\nbeta=0.2\nmu=0.2\nseed=3\n")
        _, raw = run_to_file(
            tmp_path, "cfg.json", ["analyze", "--config", str(cfg), "--mu", "1.0", "--samples", "1000"]
        )
        doc = json.loads(raw)
        assert doc["config"]["alpha"] == 0.2
        assert doc["config"]["mu"] == 1.0  # flag wins

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.2\n")
        code = main(["analyze", "--config", str(cfg)])
        assert code == 2


class TestExitCodes:
    def test_numeric_failure_maps_to_3(self, monkeypatch, tmp_path):
        from phylonetsim import cli
        from phylonetsim.errors import NumericalFailure

        def boom(*a, **k):
            raise NumericalFailure("synthetic")

        monkeypatch.setattr(cli.analytics, "expected_M", boom)
        code = main(["analyze", "--alpha", "1", "--beta", "1", "--mu", "1"])
        assert code == 3
