import json
from pathlib import Path

import numpy as np
import pytest

from cunsec.cli import main, run_sweep, run_validate
from cunsec.config import config_from_dict, load_config, replace_by_path
from cunsec.errors import ConfigError
from cunsec.figures import FIGURES, figure_config, figure_dict, write_figure_configs
from cunsec.mc import sample_alpha_mu, simulate_metrics
from cunsec.secrecy import sop_lower


@pytest.fixture()
def fig4_path(tmp_path):
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(figure_dict("fig4")))
    return str(path)


@pytest.fixture()
def minimal_path(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(figure_dict("minimal")))
    return str(path)


class TestLoadConfig:
    def test_minimal_defaults(self, minimal_path):
        cfg = load_config(minimal_path)
        assert cfg.fso.s == 1
        assert cfg.fso.blockage_p == 0.0
        assert cfg.pc.scenario == "I"
        assert cfg.target_rate == 0.05

    def test_fractional_mu_rejected(self, tmp_path):
        d = figure_dict("minimal")
        d["rf_sr"]["mu"] = 2.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="mu"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        d = figure_dict("minimal")
        d["fso"]["mystery"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="mystery"):
            load_config(str(path))

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"rf_sr\": [,]\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_section(self, tmp_path):
        d = figure_dict("minimal")
        del d["fso"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="fso"):
            load_config(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["beta_o", "g", "omega_total", "epsilon",
                                     "avg_snr_db", "electrical_snr_db"])
    def test_non_finite_fso_rejected(self, key, value):
        # json.load accepts NaN and Infinity literals
        d = figure_dict("fig4")
        d["fso"][key] = value
        with pytest.raises(ConfigError, match=f"^{key} must"):
            config_from_dict(d)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_mu_rejected(self, value):
        d = figure_dict("fig4")
        d["rf_sr"]["mu"] = value
        with pytest.raises(ConfigError, match="mu must"):
            config_from_dict(d)

    def test_replace_by_path(self):
        cfg = figure_config("fig4")
        cfg2 = replace_by_path(cfg, "power.psi_q_db", 7.5)
        assert cfg2.pc.psi_q_db == 7.5
        cfg3 = replace_by_path(cfg, "target_rate", 0.2)
        assert cfg3.target_rate == 0.2
        with pytest.raises(ConfigError):
            replace_by_path(cfg, "power.nonsense", 1.0)
        with pytest.raises(ConfigError):
            replace_by_path(cfg, "nope", 1.0)


class TestEval:
    def test_est_zero_rate(self, tmp_path, capsys):
        d = figure_dict("fig4")
        d["target_rate"] = 0.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(["eval", "--config", str(path), "--metric", "est"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 0.0
        assert "config_hash" in out["manifest"]

    def test_spsc_definitional_identity(self, tmp_path, capsys):
        d = figure_dict("fig4")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        main(["eval", "--config", str(path), "--metric", "spsc"])
        spsc_out = json.loads(capsys.readouterr().out)
        d["target_rate"] = 0.0
        path.write_text(json.dumps(d))
        main(["eval", "--config", str(path), "--metric", "sop"])
        sop_out = json.loads(capsys.readouterr().out)
        assert spsc_out["value"] + sop_out["value"] == 1.0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        rc = main(["eval", "--config", str(path), "--metric", "sop"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    @pytest.mark.parametrize("value", [5, "abc", [1, 2], None],
                             ids=["number", "string", "array", "null"])
    @pytest.mark.parametrize("section",
                             ["rf_sr", "rf_sp", "rf_se", "fso", "power"])
    def test_non_object_section_is_a_config_error(self, tmp_path, capsys,
                                                  section, value):
        # exit 2 with a JSON error line naming the section, not a
        # TypeError traceback or a string read as its characters
        d = figure_dict("fig4")
        d[section] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(["eval", "--config", str(path), "--metric", "sop"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert repr(section) in err["message"]

    def test_scenario_override(self, fig4_path, capsys):
        rc = main(["eval", "--config", fig4_path, "--metric", "sop",
                   "--scenario", "2"])
        # fig4 has no psi_t -> overriding to scenario II must fail loudly
        assert rc == 2

    @pytest.mark.parametrize("fig, section, key, db", [
        ("fig4", "rf_se", "avg_snr_db", -3100.0),
        ("fig4", "rf_sr", "avg_snr_db", -3300.0),
        ("fig4", "rf_sp", "avg_snr_db", -3300.0),
        ("fig4", "rf_se", "avg_snr_db", -3300.0),
        ("fig4", "fso", "avg_snr_db", -3300.0),
        ("fig2", "fso", "electrical_snr_db", -3300.0),
        ("fig7", "power", "psi_t_db", -3300.0),
        ("fig4", "rf_se", "avg_snr_db", 3100.0),
        ("fig4", "power", "psi_q_db", -3300.0),
    ])
    def test_extreme_db_input_is_a_config_error(self, tmp_path, capsys, fig,
                                                section, key, db):
        # a finite dB value thousands of dB from 0 under- or overflows its
        # linear value, an RF delta or mu_s: exit 2 with a JSON error line,
        # not a traceback or a NaN far downstream
        d = figure_dict(fig)
        d[section][key] = db
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(["eval", "--config", str(path), "--metric", "sop"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "must be positive and finite" in err["message"]

    @pytest.mark.parametrize("command", [
        ["eval", "--metric", "sop"],
        ["eval", "--metric", "est"],
        ["validate", "--samples", "1000", "--seed", "1"],
    ])
    def test_target_rate_past_float_range_is_a_config_error(
            self, tmp_path, capsys, command):
        # sigma = 2^target_rate overflows from 1024 bit/s/Hz on: exit 2
        # with a JSON error line, not an OverflowError traceback
        d = figure_dict("fig4")
        d["target_rate"] = 1100.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(command[:1] + ["--config", str(path)] + command[1:])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "config"
        assert "sigma" in err["message"]
        assert "must be positive and finite" in err["message"]


class TestSweep:
    def test_degenerate_two_point_sweep(self, capsys, tmp_path):
        # sweeping a field that does not affect the metric gives equal rows
        d = figure_dict("fig4")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        rc = main(["sweep", "--config", str(path), "--axis", "fso.g",
                   "--from", "2.0", "--to", "2.0", "--points", "2",
                   "--metrics", "est"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "axis,axis_value,est,route,error"
        assert lines[2].split(",")[2] == lines[3].split(",")[2]

    def test_error_cell_continues(self):
        cfg = figure_config("fig4")
        rows = run_sweep(cfg, "fso.epsilon", -1.0, 1.0, 3, ["sop"])
        assert rows[0][1]["error"].startswith("config")
        assert rows[2][1]["error"] == ""
        assert isinstance(rows[2][1]["sop"], float)

    def test_target_rate_past_float_range_is_an_error_row(self):
        # the sweep goes on past the point where sigma overflows
        cfg = figure_config("fig4")
        rows = run_sweep(cfg, "target_rate", 1000.0, 1100.0, 3, ["sop", "est"])
        assert rows[0][1]["error"] == ""
        assert isinstance(rows[0][1]["sop"], float)
        for _, row in rows[1:]:
            assert row["error"].startswith("parameter: sigma = inf")
            assert row["sop"] == row["est"] == ""

    @pytest.mark.parametrize("axis,metrics,message", [
        ("power.psi_q", "sop", "no field 'psi_q'"),      # a property
        ("fso.mu_s", "sop", "no field 'mu_s'"),          # a cached property
        ("rf_sr.delta", "sop", "no field 'delta'"),
        ("fso.upsilon", "sop", "no field 'upsilon'"),    # a method
        ("power.nope", "sop", "no field 'nope'"),
        ("power.psi_q_db", ",", "no metric"),
        ("power.psi_q_db", "sop,nope", "unknown metric 'nope'"),
    ])
    def test_bad_axis_or_metrics_is_a_config_error(self, axis, metrics,
                                                    message, fig4_path,
                                                    capsys, monkeypatch):
        # rejected before the first point: no metric is evaluated and no
        # CSV is written
        from cunsec import cli

        monkeypatch.setitem(cli.METRICS, "sop", None)
        rc = main(["sweep", "--config", fig4_path, "--axis", axis,
                   "--from", "0", "--to", "10", "--points", "3",
                   "--metrics", metrics])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "config"
        assert message in err["message"]

    def test_csv_reproducible_excluding_timestamp(self, fig4_path, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            rc = main(["sweep", "--config", fig4_path, "--axis",
                       "power.psi_q_db", "--from", "0", "--to", "10",
                       "--points", "3", "--metrics", "est",
                       "--out", str(out)])
            assert rc == 0
            lines = out.read_text().splitlines()
            assert lines[0].startswith("# {")
            outs.append("\n".join(lines[1:]))
        assert outs[0] == outs[1]

    def test_axis_ordering(self, tmp_path):
        cfg = figure_config("fig4")
        rows = run_sweep(cfg, "power.psi_q_db", -10.0, 20.0, 4, ["sop"])
        values = [v for v, _ in rows]
        assert values == sorted(values)

    def test_sweep_monotone_and_mc_spots(self):
        import dataclasses

        cfg = figure_config("fig4")
        rows = run_sweep(cfg, "power.psi_q_db", -10.0, 20.0, 6, ["sop"])
        sops = [r["sop"] for _, r in rows]
        assert np.all(np.diff(sops) <= 1e-7)
        for v, r in (rows[0], rows[2], rows[5]):
            c = dataclasses.replace(
                cfg, pc=dataclasses.replace(cfg.pc, psi_q_db=v))
            mc = simulate_metrics(c, 200_000, seed=31)["SOP_L"]
            se = max(mc.std_error, 1e-5)
            assert abs(r["sop"] - mc.estimate) <= 4 * se


class TestValidate:
    def test_pass_and_determinism(self, minimal_path, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        rc1 = main(["validate", "--config", minimal_path,
                    "--samples", "20000", "--seed", "42",
                    "--out", str(out1)])
        rc2 = main(["validate", "--config", minimal_path,
                    "--samples", "20000", "--seed", "42",
                    "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "overall,PASS" in text

    def test_small_n_refused(self, minimal_path, capsys):
        rc = main(["validate", "--config", minimal_path,
                   "--samples", "1000", "--seed", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parameter"

    def test_injected_fault_fails(self):
        # corrupt the analytic side only: +10 dB on the wiretap average SNR
        import dataclasses

        cfg = figure_config("fig4")
        corrupted = dataclasses.replace(
            cfg, rf_se=dataclasses.replace(cfg.rf_se, avg_snr_db=20.0))
        mc = simulate_metrics(cfg, 100_000, seed=3)
        z = (sop_lower(corrupted).value - mc["SOP_L"].estimate) \
            / mc["SOP_L"].std_error
        assert abs(z) > 3.0

    def test_event_without_samples_passes(self):
        # fig3's SOP_L is ~1e-8: no sample falls in the event, so the
        # Monte-Carlo standard error is 0 and only the null one gives a z
        report, passed = run_validate(figure_config("fig3"), 20_000, seed=9)
        assert report["metrics"][0]["mc"] == 0.0
        assert passed, report

    def test_report_structure(self):
        report, passed = run_validate(figure_config("minimal"), 20_000, seed=9)
        assert passed
        assert {r["metric"] for r in report["metrics"]} == \
            {"SOP_L", "SPSC", "EST"}
        assert {r["channel"] for r in report["ks"]} == \
            {"rf_sr", "rf_sp", "rf_se", "fso_blocked", "rf_scenario"}


class TestSample:
    def test_alpha_mu_csv(self, fig4_path, tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["sample", "--channel", "alpha-mu", "--config", fig4_path,
                   "--n", "500", "--seed", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "snr"
        draws = np.array([float(v) for v in lines[2:]])
        assert len(draws) == 500 and np.all(draws >= 0)

    def test_malaga_csv(self, fig4_path, tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["sample", "--channel", "malaga", "--config", fig4_path,
                   "--n", "500", "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 502

    def test_scenario_flag_is_a_usage_error(self, fig4_path, tmp_path):
        # sample draws from the links alone and has no scenario to override
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--channel", "malaga", "--config", fig4_path,
                  "--scenario", "2", "--n", "10", "--seed", "4",
                  "--out", str(tmp_path / "draws.csv")])
        assert exc.value.code == 2

    def test_link_with_malaga_is_a_usage_error(self, fig4_path, tmp_path):
        # there is one optical link: --link picks among the RF links only
        out = tmp_path / "draws.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--channel", "malaga", "--config", fig4_path,
                  "--link", "se", "--n", "10", "--seed", "4",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_link_picks_the_rf_link(self, fig4_path, tmp_path):
        def draws(*link):
            out = tmp_path / "draws.csv"
            assert main(["sample", "--channel", "alpha-mu", "--config",
                         fig4_path, *link, "--n", "50", "--seed", "4",
                         "--out", str(out)]) == 0
            return [float(v) for v in out.read_text().splitlines()[2:]]

        cfg = figure_config("fig4")
        assert draws() == draws("--link", "sr") \
            == sample_alpha_mu(cfg.rf_sr, 50, 4).tolist()
        assert draws("--link", "se") \
            == sample_alpha_mu(cfg.rf_se, 50, 4).tolist()


@pytest.mark.parametrize("args", [
    ["sweep", "--axis", "power.psi_q_db", "--from", "0", "--to", "10",
     "--points", "2", "--metrics", "est"],
    ["validate", "--samples", "20000", "--seed", "1"],
    ["sample", "--channel", "alpha-mu", "--n", "10", "--seed", "1"],
])
def test_unwritable_out_is_a_config_error(args, minimal_path, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    rc = main(args + ["--config", minimal_path, "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert str(out) in err["message"]


def test_figure_corpus_loads():
    for name in FIGURES:
        cfg = figure_config(name)
        assert cfg.sigma >= 1.0


def test_committed_configs_match_figures():
    # configs/ (read by the console-script CI step and README) holds
    # exactly the FIGURES corpus that the tests read
    configs = Path(__file__).resolve().parent.parent / "configs"
    files = {path.stem: path for path in configs.glob("*.json")}
    assert set(files) == set(FIGURES)
    for name, path in files.items():
        assert json.loads(path.read_text()) == FIGURES[name]["config"], name


def test_write_figure_configs(tmp_path):
    paths = write_figure_configs(str(tmp_path))
    assert len(paths) == len(FIGURES)
    cfg = load_config(paths[0])
    assert cfg.fso.beta_o >= 1
