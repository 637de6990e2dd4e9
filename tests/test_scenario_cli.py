import dataclasses
import math
import os
import re

import pytest

from opposim.cli import main
from opposim.scenario import (
    PRESET_NAMES, ConfigError, ScenarioConfig, load_scenario, parse_override,
    parse_scenario_text, preset_text, rescale_groups, serialize_scenario,
)


class TestPresets:
    def test_all_presets_load_and_validate(self):
        for name in PRESET_NAMES:
            cfg = load_scenario(name)
            cfg.validate()

    def test_scenario4_fixed_parameters(self):
        # traffic varies in this experiment; TTL 24 h and 10 copies are fixed
        cfg = load_scenario("scenario4")
        assert cfg.traffic.ttl == 24 * 3600.0
        assert cfg.traffic.copy_limit == 10
        assert cfg.traffic.interval_range == (75.0, 100.0)

    def test_paper_scale_population(self):
        cfg = load_scenario("scenario1")
        assert cfg.mobility.group_sizes == (325, 275, 300, 50, 50)
        assert cfg.node_count == 1000
        assert (cfg.pois.houses, cfg.pois.offices, cfg.pois.evening_spots) \
            == (203, 50, 10)
        assert cfg.duration == 5 * 86400.0

    def test_presets_round_trip(self, tmp_path):
        for name in PRESET_NAMES:
            cfg = load_scenario(name)
            path = tmp_path / f"{name}.ini"
            path.write_text(serialize_scenario(cfg), encoding="utf-8")
            again = load_scenario(str(path))
            assert again == cfg


class TestLoadScenario:
    def test_overrides_win(self):
        cfg = load_scenario("scenario2", overrides=["traffic.copies=12"])
        assert cfg.traffic.copy_limit == 12

    def test_router_flag(self):
        cfg = load_scenario("desk", router="snw")
        assert cfg.routing.router == "snw"

    # a typo, and `[radio] channels`, a key that no longer exists: all
    # APs share one channel
    @pytest.mark.parametrize("text,key", [
        ("[traffic]\ncopise = 12\n", "copise"),
        ("[radio]\nchannels = 5\n", "channels"),
    ], ids=["copise", "channels"])
    def test_typo_key_rejected_by_name(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_scenario_text(text)

    def test_removed_channels_override_rejected_by_name(self):
        with pytest.raises(ConfigError, match="channels"):
            load_scenario("desk", overrides=["radio.channels=5"])

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="power"):
            parse_scenario_text("[power]\nbudget = 3\n")

    # a stray separator is an error, so -5-10 is not read as 5-10; the
    # sweep's traffic_interval tokens are parsed by the same rule
    @pytest.mark.parametrize("text", ["-5-10", "5,,10", "5-"])
    def test_malformed_pair_rejected(self, text):
        with pytest.raises(ConfigError, match="interval"):
            parse_scenario_text(f"[traffic]\ninterval = {text}\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="copies"):
            parse_scenario_text("[traffic]\ncopies = ten\n")

    def test_constraint_violation_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("desk", overrides=["engine.duration=0"])

    # each would hang a run, crash it or run it silently with a NaN
    @pytest.mark.parametrize("kwargs,named", [
        (dict(duration=math.inf), "[engine] duration"),
        (dict(duration=math.nan), "[engine] duration"),
        (dict(overrides=["engine.tick=nan"]), "[engine] tick"),
        (dict(overrides=["radio.ap_idle_timeout=nan"]),
         "[radio] ap_idle_timeout"),
        (dict(overrides=["traffic.interval=nan,100"]), "[traffic] interval"),
        (dict(overrides=["mobility.walk_speed=1,inf"]),
         "[mobility] walk_speed"),
    ], ids=["duration-inf", "duration-nan", "tick", "ap_idle_timeout",
            "interval", "walk_speed"])
    def test_non_finite_setting_rejected_by_name(self, kwargs, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_scenario("desk", **kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan],
                             ids=["inf", "nan"])
    def test_non_finite_config_serializes(self, tmp_path, value):
        # a config built in code writes out; loading it back names the key
        path = tmp_path / "scenario.ini"
        path.write_text(serialize_scenario(dataclasses.replace(
            ScenarioConfig(), duration=value)), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape("[engine] duration")):
            load_scenario(str(path))

    def test_non_finite_config_fails_validation(self):
        with pytest.raises(ConfigError, match=re.escape("[radio] p_ap")):
            dataclasses.replace(
                ScenarioConfig(), radio=dataclasses.replace(
                    ScenarioConfig().radio, p_ap=math.nan)).validate()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.ini")

    def test_parse_override_forms(self):
        key, val = parse_override("traffic.copies=12")
        assert key == ("traffic", "copies") and val == 12
        with pytest.raises(ConfigError):
            parse_override("copies=12")
        with pytest.raises(ConfigError):
            parse_override("traffic.copise=12")

    def test_nodes_rescale(self):
        cfg = load_scenario("scenario1", nodes=100)
        assert cfg.node_count == 100
        # proportions roughly preserved
        assert cfg.mobility.group_sizes[0] == 33

    def test_rescale_groups_exact_total(self):
        for total in (10, 57, 100, 997):
            out = rescale_groups((325, 275, 300, 50, 50), total)
            assert sum(out) == total


class TestCli:
    def desk_small(self, tmp_path, more=()):
        return ["--scenario", "desk", "--duration", "1800",
                "--set", "traffic.window=0,900", *more]

    def test_validate_exit_zero_and_no_writes(self, tmp_path, capsys):
        cwd_before = sorted(os.listdir(tmp_path))
        rc = main(["validate", "--scenario", "desk"])
        assert rc == 0
        assert "scenario OK" in capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == cwd_before

    def test_validate_bad_scenario_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[traffic]\ncopise = 12\n", encoding="utf-8")
        rc = main(["validate", "--scenario", str(bad)])
        assert rc != 0
        assert "copise" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["run", *self.desk_small(tmp_path),
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "runs.csv").exists()
        assert (out / "aggregate.csv").exists()

    @pytest.mark.parametrize("override", ["radio.scan_time=-1",
                                          "radio.range=-1"])
    def test_bad_radio_setting_is_reported_not_raised(self, override,
                                                      capsys):
        rc = main(["run", "--scenario", "desk", "--set", override])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv,named", [
        # unparsable sweep values and seeds name the bad token
        (["sweep", "--param", "traffic_interval", "--values", "75"],
         "bad traffic_interval value '75'"),
        (["sweep", "--param", "copies", "--values", "4x"],
         "bad copies value '4x'"),
        (["batch", "--seeds", "1,x"], "bad seed 'x'"),
        # settings the map or population cannot be built from name the
        # seed and the swept value
        (["sweep", "--param", "homes", "--values", "0"],
         "seed 1, homes=[(0, 1)]: no office"),
        (["run", "--set", "pois.offices=0"], "seed 1: no office"),
        (["run", "--set", "map.grid_step=400"],
         "seed 1: segment A has no candidate vertices"),
    ])
    def test_bad_input_is_an_error_line(self, argv, named, capsys):
        command, *rest = argv
        rc = main([command, "--scenario", "desk", "--duration", "60",
                   "--workers" if command != "run" else "--seed",
                   "1", *rest])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1"],
        ["batch", "--seeds=-3"],
        ["sweep", "--param", "copies", "--values", "2", "--base-seed", "-2"],
    ], ids=["run", "batch", "sweep"])
    def test_negative_seed_is_an_error_line(self, argv, capsys):
        command, *rest = argv
        rc = main([command, "--scenario", "desk", "--duration", "60", *rest])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-negative" in err
        assert len(err.splitlines()) == 1

    def test_unwritable_report_is_reported_not_raised(self, tmp_path, capsys):
        out = tmp_path / "res"
        (out / "runs.csv").mkdir(parents=True)
        rc = main(["run", "--scenario", "desk", "--duration", "60",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_batch_runs_n_seeds(self, tmp_path):
        out = tmp_path / "res"
        rc = main(["batch", *self.desk_small(tmp_path), "--runs", "3",
                   "--base-seed", "5", "--workers", "1", "--out", str(out)])
        assert rc == 0
        lines = (out / "runs.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["5", "6", "7"]

    def test_batch_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["batch", *self.desk_small(tmp_path), "--runs", "2",
                "--workers", "1"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()

    def test_sweep_writes_table(self, tmp_path):
        out = tmp_path / "res"
        rc = main(["sweep", *self.desk_small(tmp_path), "--param", "copies",
                   "--values", "2,4", "--runs", "1", "--workers", "1",
                   "--out", str(out)])
        assert rc == 0
        table = (out / "sweep_copies.csv").read_text().strip().split("\n")
        assert len(table) == 3
        assert (out / "copies_2_runs.csv").exists()
        assert (out / "copies_4_runs.csv").exists()

    def test_sweep_value_parsing(self):
        from opposim.cli import _parse_sweep_values
        assert _parse_sweep_values("copies", "4,8") == [4, 8]
        assert _parse_sweep_values("ttl", "6,24") == [21600.0, 86400.0]
        assert _parse_sweep_values("traffic_interval", "75-100,10-25") \
            == [(75.0, 100.0), (10.0, 25.0)]
        assert _parse_sweep_values("homes", "50:10,450:90") \
            == [(50, 10), (450, 90)]
        assert _parse_sweep_values("homes", "150") == [(150, 30)]

    def test_bad_arguments_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", "desk", "--param", "bogus",
                  "--values", "1"])
        assert exc.value.code != 0
