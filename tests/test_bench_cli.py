import json
import math
import time

import pytest

from rigsep import bench
from rigsep.bench import (
    ExperimentRecord,
    fmt_exponent,
    scaling_study,
    separate,
    worker_count,
)
from rigsep.cli import main
from rigsep.flows import cspread_lp
from rigsep.generators import GENERATOR_KINDS, Instance, generate, instance_regions
from rigsep.graph import complete_graph, connected_components, path_graph
from rigsep.oracles import min_balanced_separator_exact
from rigsep.spectral import DENSE_LIMIT


class TestGenerators:
    def test_kinds_and_bounds(self):
        assert set(GENERATOR_KINDS) == {
            "grid", "random-segments", "planar-triangulation",
            "clique-rig", "gnp",
        }
        with pytest.raises(ValueError):
            generate("moebius", 4)
        with pytest.raises(ValueError):
            generate("grid", 0)
        with pytest.raises(ValueError):
            generate("clique-rig", 500)

    def test_grid_counts(self):
        inst = generate("grid", 4)
        assert (inst.graph.n, inst.graph.m) == (25, 40)
        assert inst.polylines is None

    def test_clique_rig_star(self):
        inst = generate("clique-rig", 6)
        assert inst.graph == complete_graph(6)
        assert inst.polylines is not None
        assert instance_regions(inst).base.n >= 6

    def test_connected_families(self):
        for kind, size in (("random-segments", 6),
                           ("planar-triangulation", 12), ("gnp", 12)):
            inst = generate(kind, size, seed=3)
            assert inst.graph.n >= 1
            # gnp retries until connected; the others are connected by
            # construction only when geometry allows, so just sanity-check
            assert inst.graph.m >= 0

    def test_deterministic_in_seed(self):
        a = generate("random-segments", 5, seed=9)
        b = generate("random-segments", 5, seed=9)
        c = generate("random-segments", 5, seed=10)
        assert a.graph == b.graph and a.polylines.strings == b.polylines.strings
        assert a.graph != c.graph or a.polylines.strings != c.polylines.strings

    def test_instance_json_round_trip(self):
        inst = generate("random-segments", 4, seed=1)
        back = Instance.from_json_dict(inst.to_json_dict())
        assert back.graph == inst.graph
        assert back.polylines.strings == inst.polylines.strings
        assert (back.kind, back.size, back.seed) == ("random-segments", 4, 1)
        grid = generate("grid", 3)
        back = Instance.from_json_dict(grid.to_json_dict())
        assert back.polylines is None and back.graph == grid.graph


class TestSeparate:
    def test_path_midpoint_record(self):
        inst = Instance("path", 100, 0, path_graph(100))
        sep, comps, rec = separate(inst)
        assert sep == (50,)
        assert len(comps) == 2
        assert rec == ExperimentRecord(
            kind="path", size=100, seed=0, n=100, m=99, method="spectral",
            separator_size=1, balance=0.5, wall_time=rec.wall_time,
            lp_value=None, params={"h": 2},
        )
        assert rec.wall_time is not None
        assert rec.to_json_dict()["wall_time"] is None

    def test_grid_spectral_stays_small(self):
        sep, comps, rec = separate(generate("grid", 14), method="spectral")
        assert rec.separator_size <= 31
        assert rec.balance <= 2 / 3

    def test_clique_needs_three_vertices(self):
        inst = generate("clique-rig", 8)
        oracle_size, _ = min_balanced_separator_exact(complete_graph(8))
        assert oracle_size == 3
        for method in ("spectral", "lp-round"):
            _, _, rec = separate(inst, method=method)
            assert rec.separator_size >= oracle_size, method

    def test_lp_round_records_lp_value(self):
        _, _, rec = separate(generate("grid", 3), method="lp-round")
        assert rec.lp_value is not None and rec.lp_value > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            separate(generate("grid", 2), method="fiat")

    def test_components_respect_balance(self):
        inst = generate("gnp", 40, seed=7)
        sep, comps, rec = separate(inst, method="chop", seed=1)
        covered = set(sep)
        for c in comps:
            assert 3 * len(c) <= 2 * inst.graph.n
            covered |= set(c)
        assert covered == set(range(inst.graph.n))


class TestScalingStudy:
    def test_degenerate_exponent(self):
        study = scaling_study(kind="grid", sizes=[4], trials=2, seed=0)
        assert study.exponent is None
        assert fmt_exponent(study.exponent) == "undefined"
        assert fmt_exponent(0.51239) == "0.5124"

    def test_csv_shape_and_determinism(self):
        study = scaling_study(kind="gnp", sizes=[8, 16], trials=3, seed=5)
        again = scaling_study(kind="gnp", sizes=[8, 16], trials=3, seed=5)
        assert study.csv() == again.csv()
        assert study.exponent == again.exponent
        lines = study.csv().splitlines()
        assert lines[0] == \
            "kind,size,trial,seed,n,m,method,separator_size,balance"
        assert len(lines) == 1 + 2 * 3
        keys = [(int(ln.split(",")[1]), int(ln.split(",")[2]))
                for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            scaling_study(sizes=[])
        with pytest.raises(ValueError):
            scaling_study(sizes=[8, 4])

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("RIGSEP_WORKERS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("RIGSEP_WORKERS", "frog")
        assert worker_count() == 1
        monkeypatch.setenv("RIGSEP_WORKERS", "-2")
        assert worker_count() == 1
        monkeypatch.delenv("RIGSEP_WORKERS")
        assert worker_count() == 1


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCLI:
    def test_gen_and_sep(self, workdir, capsys):
        assert main(["gen", "grid", "6", "--out", "g.json"]) == 0
        out = capsys.readouterr().out
        assert "wrote g.json" in out and "n=49" in out
        assert main(["sep", "g.json", "--out", "s.json"]) == 0
        captured = capsys.readouterr()
        assert "separator size=" in captured.out
        assert "wall time" in captured.err
        payload = json.loads((workdir / "s.json").read_text())
        assert payload["record"]["wall_time"] is None
        assert payload["record"]["method"] == "spectral"
        sep = payload["separator"]
        rest = [v for v in range(49) if v not in set(sep)]
        g = generate("grid", 6).graph
        assert all(3 * len(c) <= 2 * 49
                   for c in connected_components(g, subset=rest))

    def test_artifacts_byte_identical(self, workdir, capsys):
        main(["gen", "clique-rig", "5", "--out", "a.json"])
        first = (workdir / "a.json").read_bytes()
        main(["gen", "clique-rig", "5", "--out", "a.json"])
        assert (workdir / "a.json").read_bytes() == first
        main(["sep", "a.json", "--out", "s1.json", "--seed", "3"])
        main(["sep", "a.json", "--out", "s2.json", "--seed", "3"])
        assert (workdir / "s1.json").read_bytes() == \
            (workdir / "s2.json").read_bytes()
        capsys.readouterr()

    def test_default_gen_filename(self, workdir, capsys):
        assert main(["gen", "gnp", "8", "--seed", "2"]) == 0
        assert (workdir / "gnp-8-2.json").exists()
        capsys.readouterr()

    def test_lp_duality_spectrum(self, workdir, capsys):
        main(["gen", "grid", "2", "--out", "g.json"])
        capsys.readouterr()

        assert main(["lp", "g.json"]) == 0
        lp = json.loads(capsys.readouterr().out)
        assert lp["p"] == 1 and lp["value"] > 0 and len(lp["omega"]) == 9

        assert main(["duality", "g.json", "--p", "inf"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is True
        assert rep["p"] == "inf" and rep["q"] == 1.0
        assert rep["corrected_rel_gap"] <= 1e-4

        assert main(["duality", "g.json", "--p", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is True and rep["p"] == 2.0
        assert rep["corrected_rel_gap"] <= 1e-4

        assert main(["lp", "g.json", "--p", "2"]) == 0
        lp = json.loads(capsys.readouterr().out)
        assert lp["p"] == 2 and lp["value"] > 0 and len(lp["omega"]) == 9

        assert main(["spectrum", "g.json", "--k", "3"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert len(spec["eigenvalues"]) == 3
        assert spec["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)

    def test_full_spectrum_above_dense_limit(self, workdir, capsys):
        n = DENSE_LIMIT + 2
        (workdir / "p.json").write_text(json.dumps(
            {"n": n, "edges": [[v, v + 1] for v in range(n - 1)]}))
        assert main(["spectrum", "p.json", "--k", str(n)]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert len(spec["eigenvalues"]) == n
        assert spec["eigenvalues"][-1] == pytest.approx(
            4.0 * math.sin((n - 1) * math.pi / (2.0 * n)) ** 2)

    def test_scale_and_oracle(self, workdir, capsys):
        assert main(["scale", "--kind", "gnp", "--sizes", "8,16",
                     "--trials", "2", "--out", "sc.csv"]) == 0
        out = capsys.readouterr().out
        assert "exponent:" in out
        lines = (workdir / "sc.csv").read_text().splitlines()
        assert lines[0].startswith("kind,size,trial")
        assert len(lines) == 5

        main(["gen", "gnp", "8", "--out", "g.json"])
        capsys.readouterr()
        assert main(["oracle", "g.json", "--which", "expansion"]) == 0
        phi = json.loads(capsys.readouterr().out)
        assert 0 < phi["phi"] <= 8 and phi["witness"]
        assert main(["oracle", "g.json", "--which", "separator"]) == 0
        sep = json.loads(capsys.readouterr().out)
        assert sep["size"] == len(sep["separator"])
        # the grid certification oracle only runs on tiny graphs
        main(["gen", "gnp", "6", "--out", "t.json"])
        capsys.readouterr()
        assert main(["oracle", "t.json", "--which", "cspread"]) == 0
        cs = json.loads(capsys.readouterr().out)
        assert cs["value"] > 0

    def test_p2_size_guard(self, workdir, capsys):
        # 94 vertices is past the p = 2 solvers' bound: refuse, don't solve
        main(["gen", "gnp", "94", "--out", "g.json"])
        capsys.readouterr()
        for cmd in (["duality", "g.json", "--p", "2"],
                    ["lp", "g.json", "--p", "2"]):
            t0 = time.perf_counter()
            assert main(cmd) == 2, cmd
            assert time.perf_counter() - t0 < 5.0, cmd
            assert capsys.readouterr().err.startswith("rigsep:"), cmd

    def test_lp_p2_matches_cspread_lp(self, workdir, capsys):
        main(["gen", "grid", "2", "--out", "g.json"])
        capsys.readouterr()
        assert main(["lp", "g.json", "--p", "2"]) == 0
        lp = json.loads(capsys.readouterr().out)
        res = cspread_lp(generate("grid", 2).graph, 2)
        assert lp["value"] == res.value
        assert lp["omega"] == [float(w) for w in res.omega]

    def test_p1_size_guard(self, workdir, capsys):
        # 55 vertices is past the p = 1 LP's bound: refuse, don't solve
        with open("p.json", "w") as fh:
            json.dump({"n": 55, "edges": [[i, i + 1] for i in range(54)]},
                      fh)
        t0 = time.perf_counter()
        assert main(["lp", "p.json"]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert capsys.readouterr().err.startswith("rigsep:")

    def test_failures_exit_two(self, workdir, capsys):
        assert main(["sep", "missing.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rigsep:")
        main(["gen", "grid", "40", "--out", "big.json"])
        capsys.readouterr()
        assert main(["oracle", "big.json", "--which", "expansion"]) == 2
        assert "rigsep:" in capsys.readouterr().err
        malformed = (
            '{"n": 3, "edges": [[0]]}',
            '{"n": 3, "edges": 5}',
            '{"n": [3], "edges": []}',
            '{"n": 3, "edges": [[0, 1, 2]]}',
        )
        for i, text in enumerate(malformed):
            name = f"bad{i}.json"
            with open(name, "w") as fh:
                fh.write(text)
            assert main(["sep", name]) == 2, text
            assert capsys.readouterr().err.startswith("rigsep:"), text
