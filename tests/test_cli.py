"""Config file handling, subcommand dispatch, exit codes, output layout."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from nomasim import CheckResult, SweepSpec, SystemConfig, cli, make_sweep
from nomasim.cli import ConfigError, main, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_no_file_gives_defaults(self):
        config, sweep, _ = parse_config(None)
        assert config == SystemConfig()
        assert sweep == {}

    def test_flat_file_with_comments(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            # deployment under test
            tx_power_dbm = 41.0
            users_per_cluster = 3   # inline note
            cell_radius_range_km = 0.1, 1.0

            trials = 25
            target_sinr_db_values = 5, 10
            """,
        )
        config, sweep, cell_keys = parse_config(path)
        assert cell_keys == ("tx_power_dbm", "users_per_cluster", "cell_radius_range_km")
        assert config.tx_power_dbm == 41.0
        assert config.users_per_cluster == 3
        assert config.cell_radius_range_km == (0.1, 1.0)
        assert sweep == {"trials": 25, "target_sinr_db_values": (5.0, 10.0)}

    def test_overrides_apply_after_the_file(self, tmp_path):
        path = write_config(tmp_path, "tx_power_dbm = 41.0\n")
        config, _, _ = parse_config(path, overrides=("tx_power_dbm=47",))
        assert config.tx_power_dbm == 47.0

    def test_malformed_line_cites_position(self, tmp_path):
        path = write_config(tmp_path, "tx_power_dbm = 41.0\njust some words\n")
        with pytest.raises(ConfigError, match=r":2"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "transmit_power = 41.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(None, overrides=("tx_power_dbm=soft",))

    def test_pair_key_needs_two_values(self):
        with pytest.raises(ConfigError, match="exactly two"):
            parse_config(None, overrides=("cell_radius_range_km=1.0,2.0,3.0",))

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="no value"):
            parse_config(None, overrides=("tx_power_dbm=",))

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.cfg")

    def test_constraint_violations_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="users_per_cluster"):
            parse_config(None, overrides=("users_per_cluster=1",))

    def test_base_config_is_replaced_not_rebuilt(self):
        base = SystemConfig(cell_radius_range_km=(0.01, 0.15))
        config, _, _ = parse_config(None, overrides=("tx_power_dbm=30",), base=base)
        assert config.cell_radius_range_km == (0.01, 0.15)
        assert config.tx_power_dbm == 30.0

    def test_every_field_is_a_key_and_reaches_the_sidecar(self, tmp_path):
        def text(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        cell = SystemConfig(users_per_cluster=3, tx_power_dbm=40.0, rng_seed=7)
        cell_keys = [f.name for f in fields(SystemConfig)]
        assert parse_config(None, [f"{k}={text(getattr(cell, k))}" for k in cell_keys])[:2] == (cell, {})

        spec = make_sweep("oracle_compare_mixed", cell, requesting_users=6)
        sweep_keys = [f.name for f in fields(SweepSpec) if f.name not in ("kind", "config")]
        config, sweep, _ = parse_config(None, [f"{k}={text(getattr(spec, k))}" for k in sweep_keys])
        assert config == SystemConfig()
        assert sweep == {k: getattr(spec, k) for k in sweep_keys}

        out = tmp_path / "x.csv"
        assert main(["ergodic", "--trials", "1", "--set", "grid=30", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "x.meta.json").read_text())
        assert set(cell_keys) <= set(meta["config"])
        assert set(sweep_keys) <= set(meta["sweep"])


class TestDispatch:
    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "args",
        [
            ["gap", "--trials", "5"],
            ["gap", "--workers", "2"],
            ["gap", "--out", "x.csv"],
            ["verify", "--workers", "2"],
            ["verify", "--out", "x.csv"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_exit_code_2(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[1:])}" in capsys.readouterr().err

    def test_pool_above_the_state_bound_is_exit_code_2(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        choices = ",".join(str(db) for db in range(20))
        rc = main(
            ["oracle-compare", "--mixed", "--trials", "1", "--set", "requesting_users=20",
             "--set", f"threshold_choices_db={choices}", "--out", str(out)]
        )
        assert rc == 2
        assert "1048576 DP states" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [[], ["--mixed"]])
    def test_enumeration_cap_is_an_unknown_key(self, mode, capsys, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["oracle-compare", *mode, "--trials", "1", "--set", "enumeration_cap=12", "--out", str(out)])
        assert rc == 2
        assert "unknown key 'enumeration_cap'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_is_exit_code_2(self, capsys, tmp_path):
        rc = main(["sweep-power", "--set", "nope=1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,key",
        [
            (["ergodic", "--set", "grid=30,nan"], "grid"),
            (["ergodic", "--set", "bandwidth_hz=inf"], "bandwidth_hz"),
            (["ergodic", "--set", "pathloss_slope=nan"], "pathloss_slope"),
            (
                ["admission", "--by-requesting", "--set", "requesting_users=3", "--set", "grid=2,3,4"],
                "requesting_users",
            ),
            (["oracle-compare", "--set", "enumeration_cap=0"], "enumeration_cap"),
            (["gap", "--set", "users_per_cluster=1"], "users_per_cluster"),
            (["admission", "--set", "requesting_users=1"], "requesting_users"),
            (["oracle-compare", "--mixed", "--set", "requesting_users=1"], "requesting_users"),
            (["admission", "--by-requesting", "--set", "grid=1"], "requesting_users"),
        ],
    )
    def test_bad_value_is_exit_code_2_naming_the_key(self, args, key, capsys, tmp_path):
        out = tmp_path / "x.csv"
        flags = [] if args[0] == "gap" else ["--trials", "2", "--out", str(out)]
        rc = main(args + flags)
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,key",
        [
            (["ergodic", "--set", "tx_power_dbm=5000"], "tx_power_dbm"),
            (["verify", "--set", "tx_power_dbm=5000"], "tx_power_dbm"),
            (["gap", "--set", "tx_power_dbm=5000"], "tx_power_dbm"),
            (["ergodic", "--set", "grid=1e308"], "grid"),
            (["admission", "--set", "power_dbm_values=1e308"], "power_dbm_values"),
            (["ergodic", "--set", "bandwidth_hz=1e-320"], "bandwidth_hz"),
            (["oracle-compare", "--set", "target_sinr_db_values=1e5"], "target_sinr_db_values"),
            # path loss: the path gain, or a power's SNR-scale gain, leaves float64 range
            (["ergodic", "--set", "pathloss_fixed_db=-3050"], "pathloss_fixed_db"),
            (["sweep-split", "--set", "pathloss_fixed_db=-3050"], "pathloss_fixed_db"),
            (["ergodic", "--set", "pathloss_fixed_db=-2950", "--set", "tx_power_dbm=0"], "pathloss_fixed_db"),
            (["ergodic", "--set", "pathloss_slope=1e6"], "pathloss_slope"),
            (["ergodic", "--set", "pathloss_fixed_db=1e6"], "pathloss_fixed_db"),
            (["ergodic", "--set", "pathloss_fixed_db=-1e6"], "pathloss_fixed_db"),
            (["sweep-split", "--set", "cell_radius_range_km=1e-300,1e-299"], "cell_radius_range_km"),
            (["oracle-compare", "--set", "pathloss_fixed_db=-5000"], "pathloss_fixed_db"),
            (["admission", "--set", "pathloss_fixed_db=5000"], "pathloss_fixed_db"),
            (["admission", "--set", "pathloss_fixed_db=-3050"], "pathloss_fixed_db"),
        ],
    )
    def test_finite_db_value_beyond_float64_is_exit_code_2_naming_the_key(self, args, key, capsys, tmp_path):
        out = tmp_path / "x.csv"
        flags = {"gap": [], "verify": ["--trials", "2"]}.get(args[0], ["--trials", "2", "--out", str(out)])
        rc = main(args + flags)
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "args,key",
        [
            (["admission", "--trials", "300", "--set", "power_dbm_values=2970"], "power_dbm_values"),
            (["ergodic", "--trials", "300", "--set", "grid=2970"], "grid"),
            (["gap", "--set", "tx_power_dbm=2975", "--trial", "1"], "tx_power_dbm"),
        ],
    )
    def test_power_whose_faded_gain_can_overflow_is_exit_code_2_naming_the_key(self, args, key, capsys, tmp_path):
        # without path loss the mean gains stay in float64 range, but a strong fade in these draws overflows
        out = tmp_path / "x.csv"
        flags = ["--set", "pathloss_fixed_db=0", "--set", "pathloss_slope=0"]
        assert main(args + flags + ([] if args[0] == "gap" else ["--out", str(out)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_with_room_for_the_fade_runs(self, tmp_path):
        flags = ["--set", "pathloss_fixed_db=0", "--set", "pathloss_slope=0", "--set", "grid=2918"]
        assert main(["ergodic", "--trials", "300", *flags, "--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("mode", [[], ["--surface"]])
    def test_all_zero_rates_in_fairness_are_exit_code_2_naming_the_keys(self, mode, capsys, tmp_path):
        out = tmp_path / "x.csv"
        cell = ["noise_density_dbm_hz=3000", "pathloss_fixed_db=3000", "tx_power_dbm=3000"]
        assert main(["fairness", *mode, *(a for kv in cell for a in ("--set", kv)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for key in ("tx_power_dbm", "noise_density_dbm_hz", "bandwidth_hz", "pathloss_fixed_db", "pathloss_slope"):
            assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,key",
        [
            (["admission", "--set", "target_sinr_db_values=5,10"], "target_sinr_db_values"),
            (["ergodic", "--set", "requesting_users=8"], "requesting_users"),
            (["oracle-compare", "--mixed", "--set", "target_sinr_db_values=5"], "target_sinr_db_values"),
            (["gap", "--set", "grid=0.5"], "grid"),
            (["verify", "--set", "requesting_users=4"], "requesting_users"),
        ],
    )
    def test_key_the_subcommand_does_not_read_is_exit_code_2(self, args, key, capsys, tmp_path):
        out = tmp_path / "x.csv"
        flags = {"gap": [], "verify": ["--trials", "2"]}.get(args[0], ["--trials", "2", "--out", str(out)])
        rc = main(args + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and args[0] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,key",
        [
            (["sweep-split", "--set", "users_per_cluster=2"], "users_per_cluster"),
            (["fairness", "--surface", "--set", "users_per_cluster=3"], "users_per_cluster"),
            (["ergodic", "--set", "users_per_cluster=7"], "users_per_cluster"),
            (["ergodic", "--set", "tx_power_dbm=20"], "tx_power_dbm"),
            (["sweep-power", "--set", "tx_power_dbm=35"], "tx_power_dbm"),
            (["admission", "--by-requesting", "--set", "tx_power_dbm=20"], "tx_power_dbm"),
            (["admission", "--set", "users_per_cluster=8"], "users_per_cluster"),
            (["oracle-compare", "--set", "tx_power_dbm=20"], "tx_power_dbm"),
            (["oracle-compare", "--mixed", "--config"], "users_per_cluster"),
            (["verify", "--set", "users_per_cluster=5"], "users_per_cluster"),
        ],
    )
    def test_cell_key_the_sweep_sets_itself_is_exit_code_2(self, args, key, capsys, tmp_path):
        if args[-1] == "--config":
            args = args + [write_config(tmp_path, "rng_seed = 3\nusers_per_cluster = 5\n")]
        out = tmp_path / "x.csv"
        flags = ["--trials", "2"] + (["--out", str(out)] if args[0] != "verify" else [])
        assert main(args + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err and args[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["sweep-split", "fairness"])
    def test_share_sweeps_read_the_cell_power(self, sweep, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([sweep, "--set", "grid=0.3", "--out", str(a)]) == 0
        assert main([sweep, "--set", "grid=0.3", "--set", "tx_power_dbm=20", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize(
        "args,setting",
        [(["gap"], "users_per_cluster=3"), (["gap"], "tx_power_dbm=20"), (["verify", "--trials", "3"], "tx_power_dbm=20")],
        ids=["gap-users", "gap-power", "verify-power"],
    )
    def test_gap_and_verify_read_their_cell_keys(self, args, setting, capsys):
        # each key on its own changes the output; verify refuses users_per_cluster (above)
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main(args + ["--set", setting]) == 0
        assert capsys.readouterr().out != default


class TestSweepCommands:
    def test_two_point_grid_writes_two_rows_per_scheme(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(["sweep-split", "--set", "grid=0.2,0.8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("sweep_point,scheme,metric")
        body = [l.split(",") for l in lines[1:]]
        assert len(body) == 8  # 2 points x 4 series
        assert sum(1 for row in body if row[1] == "noma_2user") == 2
        meta = json.loads((tmp_path / "curve.meta.json").read_text())
        assert meta["sweep"]["grid"] == [0.2, 0.8]
        assert "-> " + str(out) in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["ergodic", "--trials", "5", "--set", "grid=30,40", "--seed", "77"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_leaves_output_unchanged(self, tmp_path):
        args = ["ergodic", "--trials", "6", "--set", "grid=30,50"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(args + ["--out", str(a), "--workers", "1"]) == 0
        assert main(args + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_is_exit_code_1(self, tmp_path, capsys):
        rc = main(["ergodic", "--trials", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("i/o error:")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_deepest_valid_path_loss_runs(self, tmp_path):
        # gains underflow to zero here; the combiners must not report a degenerate channel
        args = ["ergodic", "--trials", "50", "--set", "pathloss_fixed_db=3220", "--set", "cell_radius_range_km=0.9,1.1"]
        assert main(args + ["--out", str(tmp_path / "deep.csv")]) == 0

    def test_default_output_honors_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NOMASIM_OUT_DIR", str(tmp_path))
        rc = main(["sweep-split", "--set", "grid=0.5"])
        assert rc == 0
        assert (tmp_path / "split_sweep_2user.csv").exists()
        assert (tmp_path / "split_sweep_2user.meta.json").exists()

    def test_surface_flag_switches_kind(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["fairness", "--surface", "--set", "grid=0.1,0.4", "--out", str(out)])
        # a flat grid is not a surface grid: the spec validation refuses it
        assert rc == 2

    def test_metadata_sits_next_to_odd_extensions(self, tmp_path):
        out = tmp_path / "rates.data"
        rc = main(["sweep-power", "--set", "grid=30", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "rates.data.meta.json").exists()

    @pytest.mark.parametrize(
        "args,kind",
        [
            (["sweep-split"], "split_sweep_2user"),
            (["sweep-split", "--surface"], "split_sweep_3user"),
            (["sweep-power"], "power_sweep"),
            (["ergodic"], "ergodic_power_sweep"),
            (["fairness"], "fairness_2user"),
            (["fairness", "--surface"], "fairness_3user"),
            (["admission"], "admission_vs_sinr"),
            (["admission", "--by-requesting"], "admission_vs_requesting"),
            (["oracle-compare"], "oracle_compare_equal"),
            (["oracle-compare", "--mixed"], "oracle_compare_mixed"),
        ],
    )
    def test_subcommand_and_variant_flag_select_the_kind(self, args, kind, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NOMASIM_OUT_DIR", str(tmp_path))
        assert main(args + ["--trials", "1"]) == 0
        assert capsys.readouterr().out.startswith(f"{kind}: ")
        assert (tmp_path / f"{kind}.csv").exists()

    def test_mixed_flag_switches_oracle_kind(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(
            ["oracle-compare", "--mixed", "--trials", "3", "--set", "grid=30",
             "--set", "requesting_users=4", "--out", str(out)]
        )
        assert rc == 0
        assert "oracle_compare_mixed" in capsys.readouterr().out
        assert "exhaustive_minus_greedy_mixed" in out.read_text()


class TestGapCommand:
    def test_reports_matching_maximizer(self, capsys):
        rc = main(["gap"])
        assert rc == 0
        out = capsys.readouterr().out
        closed = float(out.split("closed-form maximizer: ")[1].splitlines()[0])
        at_grid = float(out.split("): ")[1].splitlines()[0])
        assert abs(closed - at_grid) <= 1e-4

    @pytest.mark.parametrize("power", ["-60", "-100"])
    def test_low_power_argmax_matches(self, power):
        assert main(["gap", "--set", f"tx_power_dbm={power}"]) == 0

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_grid_below_two_points_is_exit_code_2(self, points, capsys):
        assert main(["gap", "--grid-points", points]) == 2
        assert "--grid-points" in capsys.readouterr().err

    def test_trial_index_changes_the_draw(self, capsys):
        main(["gap", "--trial", "0"])
        first = capsys.readouterr().out
        main(["gap", "--trial", "1"])
        second = capsys.readouterr().out
        assert first != second

    def test_grid_argmax_off_the_closed_form_is_exit_code_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gap_maximizer_excess", lambda pairs, grid: np.array([1.0]))
        assert main(["gap"]) == 1
        assert "grid argmax disagrees with the closed form" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_run_passes_and_prints_each_check(self, capsys):
        rc = main(["verify", "--trials", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)
        assert "11/11 checks passed" in out

    def test_a_check_that_measured_no_instance_fails(self, capsys):
        # trial 0 draws mixed targets, so one trial leaves no aligned instance
        assert main(["verify", "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert [l.split()[:3] for l in out.splitlines() if l.startswith("FAIL")] == [
            ["FAIL", "aligned_condition_optimality", "trials="]
        ]
        assert "10/11 checks passed" in out

    def test_json_gives_each_check_its_tolerance_and_direction(self, capsys):
        assert main(["verify", "--trials", "5", "--json"]) == 0
        rows = {row.pop("name"): row for row in json.loads(capsys.readouterr().out)}
        assert len(rows) == 11
        dominance, bound = rows["noma_dominance"], rows["oma_bound_tightness"]
        assert set(dominance) == {"trials", "violations", "worst", "tolerance", "direction"}
        assert (dominance["trials"], dominance["tolerance"], dominance["direction"]) == (5, -1e-9, "min_slack")
        assert (bound["tolerance"], bound["direction"]) == (1e-9, "max_excess")

    def test_json_keeps_the_failure_exit_code(self, capsys, monkeypatch):
        failing = [CheckResult("broken", 3, 3, math.nan, "", 0.0, "max_excess")]
        monkeypatch.setattr(cli, "run_verification", lambda **kwargs: failing)
        assert main(["verify", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)[0]["worst"] is None  # JSON has no NaN

    def test_config_seed_and_trials_are_used(self, capsys, tmp_path):
        main(["verify", "--trials", "3"])
        default = capsys.readouterr().out
        main(["verify", "--trials", "3", "--set", "rng_seed=5"])
        assert capsys.readouterr().out != default
        main(["verify", "--set", "trials=3", "--set", "rng_seed=0"])
        assert capsys.readouterr().out == default
        path = write_config(tmp_path, "rng_seed = 5\ntrials = 4\n")
        main(["verify", "--config", path, "--seed", "0", "--trials", "3"])
        assert capsys.readouterr().out == default  # the flags win over the file
