import concurrent.futures
import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmrelay import ConfigError, ScenarioConfig, SuccessTable, load_config, \
    run_sweep
from mmrelay import aggregate_throughput, queue_model, simulator, sweeps
from mmrelay.geometry import MAX_N_UES
from mmrelay.sweeps import SweepSpec, _tasks, evaluate_point, \
    sweep_columns, write_csv
from conftest import RECIPES, run_limited


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "mmrelay.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# Digits that int() and float() read but the number syntax does not:
# Arabic-Indic 12, fullwidth 0.5 and fullwidth 10
_ARABIC_12, _WIDE_0_5, _WIDE_10 = "\u0661\u0662", "\uff10.5", "\uff11\uff10"

# (argument, value, the rule's message); a value is given to code as is
# and to a file line or a flag as its text.
_ARGUMENT_RULES = [
    ("n_slots", 0, "n_slots must be an integer >= 1, got 0"),
    ("n_slots", "abc", "n_slots must be an integer >= 1, got 'abc'"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("seed", "1.5", "seed must be an integer >= 0, got '1.5'"),
    ("jobs", 0, "jobs must be an integer >= 1, got 0"),
    ("jobs", "x", "jobs must be an integer >= 1, got 'x'"),
    *((name, digits, f"{name} must be an integer >= {low}, got '{digits}'")
      for name, low in (("n_slots", 1), ("seed", 0), ("jobs", 1))
      for digits in (_ARABIC_12, _WIDE_10)),
    ("mode", "bogus", "mode must be 'decoupled' or 'physical', got 'bogus'"),
    ("n_ues", 0, "n_ues must be an integer >= 1, got 0"),
    ("n_ues", -3, "n_ues must be an integer >= 1, got -3"),
]
_FLAGS = {"n_slots": "--slots", "seed": "--seed", "jobs": "--jobs",
          "mode": "--mode"}


class TestLoadConfig:
    def test_empty_scenario_gives_defaults(self, tmp_path):
        spec = load_config(_write(tmp_path, "[scenario]\n"))
        assert spec.base.p_t_dbm == 24.0
        assert spec.base.p_n_dbm == -80.0
        assert spec.base.f_c_ghz == 30.0
        assert spec.base.h_ap_m == 10.0 and spec.base.h_ue_m == 1.5
        assert spec.base.d_ur_m == 30.0 and spec.base.d_ud_m == 50.0
        assert spec.base.gamma_db == 10.0 and spec.base.alpha == 0.1
        assert spec.base.theta_bw_fd_deg == 5.0
        assert spec.base.theta_bw_br == spec.base.theta_rd_deg

    def test_out_of_domain_names_field_and_line(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nn_ues = 4\nq_u = 1.5\n")
        with pytest.raises(ConfigError, match="line 3.*q_u"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ("[scenario]\nq_u = 0.5\nq_uf = 2.0\n", "line 3: q_uf must"),
        ("[scenario]\nq_uf = 0.5\ntheta_bw_br_deg = 10\ntheta_rd_deg = 40\n",
         "line 3: theta_bw_br_deg must be >= theta_rd_deg"),
        ("[scenario]\nn_ues = 2.5\n",
         "^line 2: value '2.5' for 'n_ues' is not an integer$"),
        ("[sweep]\nn_ues = 1:3:0.5\n",
         "^line 2: value '0.5' for 'n_ues' is not an integer$"),
        ("[sweep]\nq_u = 0:1:0.5:2\n",
         "^line 2: bad range '0:1:0.5:2', expected start:stop\\[:step\\]$"),
        ("[scenario]\nn_ues = 2\n[bogus]\n",
         "^line 3: unknown section \\[bogus\\]$"),
        ("[scenario]\nq_u =\n", "^line 2: missing value for 'q_u'$"),
        ("[simulation]\nsimulate = maybe\n",
         "^line 2: expected a boolean, got 'maybe'$"),
        (f"[scenario]\nn_ues = {_ARABIC_12}\n",
         f"^line 2: value '{_ARABIC_12}' for 'n_ues' is not an integer$"),
        (f"[scenario]\nq_u = {_WIDE_0_5}\n",
         f"^line 2: value '{_WIDE_0_5}' for 'q_u' is not numeric$"),
        (f"[scenario]\nq_u = 0.5\nn_ues = {_WIDE_10}\n",
         f"^line 3: value '{_WIDE_10}' for 'n_ues' is not an integer$"),
        (f"[sweep]\nn_ues = 2, {_ARABIC_12}\n",
         f"^line 2: value '{_ARABIC_12}' for 'n_ues' is not an integer$"),
        (f"[sweep]\nq_u = 0.1, {_WIDE_0_5}\n",
         f"^line 2: value '{_WIDE_0_5}' for 'q_u' is not numeric$"),
        (f"[sweep]\nn_ues = {_WIDE_10}, 2\n",
         f"^line 2: value '{_WIDE_10}' for 'n_ues' is not an integer$"),
        (f"[sweep]\nn_ues = 1:{_ARABIC_12}\n",
         f"^line 2: value '{_ARABIC_12}' for 'n_ues' is not an integer$"),
        (f"[sweep]\nq_u = 0:{_WIDE_0_5}:0.25\n",
         f"^line 2: value '{_WIDE_0_5}' for 'q_u' is not numeric$"),
        (f"[sweep]\nq_u = 0.1, 0.5\nn_ues = 1:{_WIDE_10}\n",
         f"^line 3: value '{_WIDE_10}' for 'n_ues' is not an integer$"),
        ("[simulation]\nslots = 5\n",
         "^line 2: unknown key 'slots' in \\[simulation\\]$"),
    ])
    def test_field_error_names_its_own_line(self, tmp_path, capsys, text,
                                            message):
        import mmrelay.cli as cli
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert cli.main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert re.match(message, err.removeprefix("mmrelay: ")), err

    @pytest.mark.parametrize("text, message", [
        ("[scenario]\nn_ues = 1_000\n",
         "line 2: value '1_000' for 'n_ues' is not an integer"),
        ("[scenario]\nq_u = 0.1_5\n",
         "line 2: value '0.1_5' for 'q_u' is not numeric"),
        ("[sweep]\nn_ues = 1:1_0\n",
         "line 2: value '1_0' for 'n_ues' is not an integer"),
        ("[sweep]\nq_u = 0.1, 0_5\n",
         "line 2: value '0_5' for 'q_u' is not numeric"),
        ("[simulation]\nn_slots = 1_000\n",
         "line 2: n_slots must be an integer >= 1, got '1_000'"),
    ])
    def test_digit_underscores_are_not_numbers(self, tmp_path, text,
                                               message):
        # int() and float() read 1_000 as 1000; the file syntax does not
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(_write(tmp_path, text))

    def test_digit_underscores_exit_codes(self, tmp_path, capsys):
        import mmrelay.cli as cli
        path = _write(tmp_path, "[scenario]\nn_ues = 1_000\n")
        assert cli.main(["analyze", path]) == 2
        assert capsys.readouterr().err == \
            "mmrelay: line 2: value '1_000' for 'n_ues' is not an integer\n"
        path = _write(tmp_path, "[scenario]\nn_ues = 2\n", name="ok.cfg")
        assert cli.main(["simulate", path, "--slots", "1_000"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --slots: n_slots must be an integer >= 1, "
            "got '1_000'\n")

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nq_u 0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[scenario]\nn_ues = 4\n[sweep]\nq_u = 0.1, 0.5\n",
        "n_ues = 4\n",
    ])
    def test_byte_order_mark_is_not_text(self, tmp_path, text):
        # Windows editors start a UTF-8 file with one
        path = tmp_path / "bom.cfg"
        path.write_bytes(text.encode("utf-8-sig"))
        assert load_config(str(path)) == load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("padding, newline", [
        (0, "\n"), (0, "\r\n"), (0, "\r"),
        (2000, "\n"),   # far past the decoder's read-ahead
    ])
    def test_byte_not_utf8_names_its_line(self, tmp_path, capsys, padding,
                                          newline):
        import mmrelay.cli as cli
        lines = ["# padding"] * padding + ["[scenario]", "q_u = 0.5  # 30\xb0",
                                           "n_ues = 4", ""]
        text, line = newline.join(lines), padding + 2
        path = tmp_path / "latin1.cfg"
        path.write_bytes(text.encode("latin-1"))
        message = f"^line {line}: byte 0xb0 is not UTF-8$"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert cli.main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.match(message, err.removeprefix("mmrelay: ")), err

    def test_comments_and_sections(self, tmp_path):
        text = ("# banner\n[scenario]\nq_u = 0.2  # inline\n\n"
                "[sweep]\nn_ues = 1:3\n[simulation]\nsimulate = false\n")
        spec = load_config(_write(tmp_path, text))
        assert spec.base.q_u == 0.2
        assert spec.axes == (("n_ues", (1, 2, 3)),)
        assert not spec.simulate

    def test_three_axes_rejected(self, tmp_path):
        text = "[sweep]\nn_ues = 1:2\nq_u = 0.1, 0.2\nq_uf = 0.5, 1.0\n"
        with pytest.raises(ConfigError, match="two sweep axes"):
            load_config(_write(tmp_path, text))

    def test_sweep_value_domain_checked(self, tmp_path):
        text = "[sweep]\nq_u = 0.5, 1.5\n"
        with pytest.raises(ConfigError, match="q_u"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("line, message", [
        ("n_slots = 0", "n_slots must be an integer >= 1, got 0"),
        ("seed = -1", "seed must be an integer >= 0, got -1"),
    ])
    def test_simulation_counts_out_of_range(self, tmp_path, line, message):
        text = f"[simulation]\nsimulate = true\n{line}\n"
        with pytest.raises(ConfigError, match=f"line 3: {message}"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("key, value, rule", _ARGUMENT_RULES,
                             ids=[f"{k}-{v}" for k, v, _ in _ARGUMENT_RULES])
    def test_simulation_argument_has_one_message(self, tmp_path, capsys,
                                                 two_ue_cfg, key, value, rule):
        # Code states the rule bare, a file adds its line, a flag its name.
        import mmrelay.cli as cli

        def fails(call, *args, **kwargs):
            with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
                call(*args, **kwargs)

        if key == "n_ues":
            fails(ScenarioConfig, n_ues=value)
            section = "scenario"
        elif key == "jobs":
            fails(run_sweep, SweepSpec(two_ue_cfg), jobs=value)
            section = None  # no file line sets jobs
        else:
            fails(simulator.run, two_ue_cfg,
                  **{"n_slots": 10, "seed": 0, "mode": "decoupled", key: value})
            fails(SweepSpec, two_ue_cfg, **{key: value})
            section = "simulation"
        if section is not None:
            with pytest.raises(ConfigError,
                               match=f"^line 2: {re.escape(rule)}$"):
                load_config(_write(tmp_path, f"[{section}]\n{key} = {value}\n"))
        flag = _FLAGS.get(key)
        if flag is None:
            return
        path = _write(tmp_path, "[scenario]\nn_ues = 2\n")
        command = (["sweep", path, "-o", str(tmp_path / "out.csv")]
                   if key == "jobs" else ["simulate", path])
        assert cli.main([*command, flag, str(value)]) == 1
        err = capsys.readouterr().err
        if key == "mode":  # argparse choices, so that --help lists the modes
            assert f"error: argument {flag}: invalid choice: 'bogus'" in err
        else:
            assert err.endswith(f"error: argument {flag}: {rule}\n")

    def test_unknown_mode_names_both_modes(self, tmp_path):
        text = "[simulation]\nmode = bogus\n"
        with pytest.raises(ConfigError,
                           match="line 2: mode must be 'decoupled' or "
                                 "'physical'"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("line, values", [
        ("q_u = 0:1:0.1", tuple(i / 10 for i in range(11))),
        # step noise is cleaned relative to each value, not to 1e-10
        ("alpha = 0:0.00000000005:0.00000000001",
         (0.0, 1e-11, 2e-11, 3e-11, 4e-11, 5e-11)),
    ])
    def test_range_step_noise_cleaned(self, tmp_path, line, values):
        spec = load_config(_write(tmp_path, f"[sweep]\n{line}\n"))
        assert spec.axes == ((line.split(" = ")[0], values),)

    @pytest.mark.parametrize("text", [
        "q_u = 0:inf", "gamma_db = 0:1e300:1e-300", "q_u = nan:1",
        "q_u = 0.1:0.5:nan",
        pytest.param("n_ues = 1:1" + "0" * 400, id="n_ues = 1:1e400")])
    def test_non_finite_range_rejected(self, tmp_path, capsys, text):
        # Checked before expansion: no traceback, and the line is named.
        import mmrelay.cli as cli
        path = _write(tmp_path, f"[sweep]\n{text}\n")
        assert cli.main(["analyze", path]) == 2
        assert capsys.readouterr().err == (
            f"mmrelay: line 2: bad range '{text.split(' = ')[1]}'\n")

    def test_oversized_range_rejected_before_expansion(self, tmp_path,
                                                       capsys):
        # 10**12 + 1 values: counted, never built.
        import mmrelay.cli as cli
        path = _write(tmp_path, "[sweep]\ngamma_db = 0:1e6:1e-6\n")
        tracemalloc.start()
        try:
            code = cli.main(["analyze", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1024 * 1024
        assert capsys.readouterr().err == (
            "mmrelay: line 2: gamma_db = 0:1e6:1e-6 would make a grid of "
            f"1000000000001 points, more than the limit of "
            f"{sweeps.MAX_GRID_POINTS}\n")

    @pytest.mark.parametrize("lines, error", [
        (("q_u = 0:1:0.2",), None),
        (("q_u = 0:1:0.1",), "line 2: q_u = 0:1:0.1 would make a grid of 11"),
        (("q_u = 0.1, 0.2", "alpha = 0:1:0.5"), None),
        (("q_u = 0.1, 0.2", "alpha = 0:1:0.25"),
         "line 3: alpha = 0:1:0.25 would make a grid of 10"),
        (("alpha = 0:1:0.5", "q_u = 0.1, 0.2, 0.3"),
         "line 3: q_u = 0.1, 0.2, 0.3 would make a grid of 9"),
    ])
    def test_grid_size_limit(self, tmp_path, monkeypatch, lines, error):
        monkeypatch.setattr(sweeps, "MAX_GRID_POINTS", 6)
        path = _write(tmp_path, "\n".join(("[sweep]", *lines, "")))
        if error is None:
            assert len(load_config(path).grid()) == 6
            return
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{error} points, more than the limit of 6"

    def test_grid_size_limit_on_a_spec(self, monkeypatch):
        monkeypatch.setattr(sweeps, "MAX_GRID_POINTS", 6)
        axes = (("q_u", (0.1, 0.2, 0.3)), ("alpha", (0.0, 0.5)))
        assert len(SweepSpec(ScenarioConfig(), axes).grid()) == 6
        with pytest.raises(ValueError, match="^the sweep would make a grid "
                                             "of 9 points"):
            SweepSpec(ScenarioConfig(), (axes[0], ("alpha", (0.0, 0.5, 1.0))))

    @pytest.mark.parametrize("line, value", [
        ("q_u = 0.1, 0.1", "0.1"),
        # the step is below 15 significant digits of the values
        ("alpha = 0.5:0.500000000000001:0.0000000000000001", "0.5"),
    ])
    def test_repeated_axis_value_rejected(self, tmp_path, line, value):
        with pytest.raises(ConfigError,
                           match=f"^line 2: {line.split()[0]} repeats the "
                                 f"value {re.escape(value)}$"):
            load_config(_write(tmp_path, f"[sweep]\n{line}\n"))

    @pytest.mark.parametrize("text, message", [
        ("[scenario]\nq_u = 0.1\nq_u = 0.2\n",
         "line 3: 'q_u' is already set on line 2 in [scenario]"),
        # a section opened twice is still one section
        ("[simulation]\nseed = 1\n[scenario]\nn_ues = 3\n[simulation]\n"
         "seed = 1\n",
         "line 6: 'seed' is already set on line 2 in [simulation]"),
        ("[sweep]\nq_u = 0.1, 0.2\n\nq_u = 0.3\n",
         "line 4: 'q_u' is already set on line 2 in [sweep]"),
        ("[sweep]\noutputs = t_total\noutputs = t_ud\n",
         "line 3: 'outputs' is already set on line 2 in [sweep]"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, text,
                                           message):
        import mmrelay.cli as cli
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert cli.main(["analyze", path]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_output_metric_rejected(self, tmp_path, capsys):
        import mmrelay.cli as cli
        path = _write(tmp_path, "[sweep]\nq_u = 0.1, 0.2\n"
                                "outputs = t_total, t_ud, t_total\n")
        rule = "outputs names 't_total' twice"
        message = f"line 3: {rule}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        # a spec built in code meets the same rule, without the line
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            SweepSpec(ScenarioConfig(n_ues=2), axes=(("q_u", (0.1, 0.2)),),
                      outputs=("t_total", "t_ud", "t_total"))
        out = str(tmp_path / "out.csv")
        assert cli.main(["sweep", path, "-o", out]) == 2
        assert message in capsys.readouterr().err

    def test_same_key_in_two_sections_allowed(self, tmp_path):
        # The same key in two sections is not a repeat: a [scenario] value
        # is the base that a [sweep] axis of that name replaces.
        text = "[scenario]\nq_u = 0.3\n[sweep]\nq_u = 0.1, 0.2\n"
        spec = load_config(_write(tmp_path, text))
        assert spec.base.q_u == 0.3 and spec.axes == (("q_u", (0.1, 0.2)),)

    def test_forty_five_point_plan(self, tmp_path):
        text = "[sweep]\nn_ues = 1:15\nq_u = 0.1, 0.5, 0.9\n"
        spec = load_config(_write(tmp_path, text))
        assert len(spec.grid()) == 45


class TestRunSweep:
    def test_single_point(self, tmp_path):
        spec = load_config(_write(tmp_path, "[scenario]\nn_ues = 2\n"))
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert rows[0]["regime"] in ("stable", "unstable")

    def test_grid_order_axis1_outer(self, tmp_path):
        text = "[sweep]\nn_ues = 1:2\nq_u = 0.1, 0.9\n"
        spec = load_config(_write(tmp_path, text))
        rows = run_sweep(spec)
        assert [(r["n_ues"], r["q_u"]) for r in rows] == \
            [(1, 0.1), (1, 0.9), (2, 0.1), (2, 0.9)]

    def test_grid_of_three_axes(self):
        # the file format stops at two axes; a spec built in code does not
        spec = SweepSpec(base=ScenarioConfig(),
                         axes=(("n_ues", (1, 2)), ("q_u", (0.1, 0.2)),
                               ("q_uf", (0.5,))))
        assert spec.grid() == [
            {"n_ues": n, "q_u": q, "q_uf": 0.5}
            for n in (1, 2) for q in (0.1, 0.2)]
        assert SweepSpec(base=ScenarioConfig()).grid() == [{}]

    def test_csv_round_trip(self, tmp_path):
        text = "[sweep]\nn_ues = 1:3\n"
        spec = load_config(_write(tmp_path, text))
        rows = run_sweep(spec)
        buf = io.StringIO()
        write_csv(spec, rows, buf)
        parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(parsed) == 3
        for raw, row in zip(parsed, rows):
            for col in sweep_columns(spec):
                if col in ("regime", "error"):
                    continue
                assert float(raw[col]) == float(format(float(row[col]), ".9g"))

    def test_outputs_subset(self, tmp_path):
        text = "[sweep]\nn_ues = 1:2\noutputs = t_total, q_r_min\n"
        spec = load_config(_write(tmp_path, text))
        assert sweep_columns(spec) == ["n_ues", "t_total", "q_r_min", "error"]
        message = "unknown metric(s) ['t_totl'] in outputs"
        with pytest.raises(ConfigError, match=f"^line 3: {re.escape(message)}$"):
            load_config(_write(tmp_path, text.replace("t_total", "t_totl")))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(ScenarioConfig(n_ues=2), axes=(("q_u", (0.1, 0.2)),),
                      outputs=("t_totl",))

    @pytest.mark.parametrize("kwargs, message, line", [
        ({"axes": (("q_u", (0.1, 0.1)), ("bogus", (1,)))},
         "q_u repeats the value 0.1", "q_u = 0.1, 0.1"),
        ({"axes": (("q_u", (0.1, 0.2)), ("bogus", (1,)))},
         "unknown sweep parameter 'bogus'", "bogus = 1"),
        ({"axes": (("q_u", (0.1,)), ("q_u", (0.2,)))},
         "the sweep names 'q_u' twice", None),
        ({"simulate": True, "n_slots": 0},
         "n_slots must be an integer >= 1, got 0", None),
        ({"seed": -1}, "seed must be an integer >= 0, got -1", None),
        ({"mode": "bogus"},
         "mode must be 'decoupled' or 'physical', got 'bogus'", None),
    ])
    def test_spec_built_in_code_meets_the_file_rules(self, tmp_path, kwargs,
                                                     message, line):
        # Before, such a spec ran every point and wrote the error in each
        # row, beside analytic values for the simulation arguments.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(ScenarioConfig(n_ues=2), **kwargs)
        if line is not None:  # a file states the same rule on its line
            with pytest.raises(ConfigError,
                               match=f"^line 2: {re.escape(message)}$"):
                load_config(_write(tmp_path, f"[sweep]\n{line}\n"))

    @pytest.mark.parametrize("kwargs, message", [
        # a truthy string simulated every point
        ({"simulate": "false"}, "simulate must be a bool, got 'false'"),
        ({"simulate": 2}, "simulate must be a bool, got 2"),
        # a dict made every row an AttributeError
        ({"base": {"n_ues": 2}}, "base must be a ScenarioConfig, got dict"),
    ])
    def test_spec_field_of_the_wrong_type_rejected(self, kwargs, message):
        kwargs = {"base": ScenarioConfig(n_ues=2), **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(axes=(("q_u", (0.1,)),), **kwargs)

    @pytest.mark.parametrize("flag", [False, True])
    def test_numpy_bool_simulate_accepted(self, flag):
        spec = SweepSpec(ScenarioConfig(n_ues=2), simulate=np.bool_(flag))
        assert sweep_columns(spec) == sweep_columns(
            SweepSpec(ScenarioConfig(n_ues=2), simulate=flag))

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.0])
    def test_bad_jobs_rejected_before_any_point(self, monkeypatch, jobs):
        def unexpected(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sweeps, "_run_point", unexpected)
        spec = load_config(str(RECIPES / "fig8_default.cfg"))
        with pytest.raises(ValueError,
                           match=f"^jobs must be an integer >= 1, got "
                                 f"{re.escape(repr(jobs))}$"):
            run_sweep(spec, jobs=jobs)

    def test_numpy_integers_are_integers(self):
        # A numpy integer is the int it equals: no row error, and no numpy
        # float in a row or a report.
        def typed(values):
            return [(type(v), v) for v in values]

        def sweep(values, jobs):
            spec = SweepSpec(ScenarioConfig(), axes=(("n_ues", values),))
            return [typed(row.values()) for row in run_sweep(spec, jobs=jobs)]

        assert (sweep(tuple(np.arange(1, 4)), np.int64(1))
                == sweep((1, 2, 3), 1))
        for n in (1, 5):
            cfg = ScenarioConfig(n_ues=np.int64(n))
            assert type(cfg.n_ues) is int and cfg == ScenarioConfig(n_ues=n)
            assert (typed(aggregate_throughput(cfg).metrics().values())
                    == typed(aggregate_throughput(ScenarioConfig(n_ues=n))
                             .metrics().values()))

    def test_per_point_errors_recorded_not_fatal(self, tmp_path):
        # a fixed narrow BR beam is valid at theta_rd = 20 but cannot cover
        # both receivers at 60: that point must fail into the error column
        # while the rest of the grid completes
        text = ("[scenario]\ntheta_bw_br_deg = 30\n"
                "[sweep]\ntheta_rd_deg = 20, 60\n")
        spec = load_config(_write(tmp_path, text))
        rows = run_sweep(spec)
        assert rows[0]["error"] == ""
        assert "theta_bw_br" in rows[1]["error"]
        assert "t_total" in rows[0] and "t_total" not in rows[1]

    # theta_rd = 60 cannot be covered by a 30-degree BR beam, so its points'
    # configurations cannot be built; alpha makes two radio configurations
    _INVALID_POINTS = ("[scenario]\ntheta_bw_br_deg = 30\n"
                       "[sweep]\ntheta_rd_deg = 20, 60\nalpha = 0.1, 0.2\n")

    def test_invalid_point_config_built_once(self, tmp_path, monkeypatch):
        spec = load_config(_write(tmp_path, self._INVALID_POINTS))
        replace = ScenarioConfig.replace
        calls = []

        def counted(cfg, **changes):
            calls.append(changes)
            return replace(cfg, **changes)

        monkeypatch.setattr(ScenarioConfig, "replace", counted)
        rows = run_sweep(spec)
        assert calls == spec.grid()
        with pytest.raises(ValueError) as exc:
            replace(spec.base, theta_rd_deg=60.0, alpha=0.2)
        assert rows[3] == {"theta_rd_deg": 60.0, "alpha": 0.2,
                           "error": str(exc.value)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_task_gets_an_invalid_point(self, tmp_path, monkeypatch,
                                           jobs):
        # every task's points are (grid index, built configuration)
        spec = load_config(_write(tmp_path, self._INVALID_POINTS))
        split = sweeps._tasks
        seen = []

        def spied(groups, jobs):
            tasks = split(groups, jobs)
            seen.extend(point for points in tasks for point in points)
            return tasks

        monkeypatch.setattr(sweeps, "_tasks", spied)
        rows = run_sweep(spec, jobs=jobs)
        assert [index for index, _ in seen] == [0, 1]
        assert all(isinstance(cfg, ScenarioConfig) for _, cfg in seen)
        assert [bool(r["error"]) for r in rows] == [False, False, True, True]

    def test_unexpected_model_exception_stays_in_its_row(self, tmp_path,
                                                         monkeypatch):
        import mmrelay.sweeps as sweeps
        evaluate = sweeps.evaluate_point

        def faulty(cfg, table=None):
            if cfg.n_ues == 2:
                raise ZeroDivisionError("float division by zero")
            return evaluate(cfg, table)

        monkeypatch.setattr(sweeps, "evaluate_point", faulty)
        spec = load_config(_write(tmp_path, "[sweep]\nn_ues = 1:3\n"))
        rows = run_sweep(spec)
        assert [r["error"] for r in rows] == [
            "", "ZeroDivisionError: float division by zero", ""]
        assert "t_total" in rows[2]


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _count_block_builds(monkeypatch) -> list:
    """The (N, zero pattern) of every configuration block built from
    scratch from now on; a row selection of a kept block is no build."""
    built = []
    rows = queue_model._rows

    def counted(*args):
        built.append(args)
        return rows(*args)

    monkeypatch.setattr(queue_model, "_rows", counted)
    return built


class TestSweepReuse:
    @pytest.mark.parametrize("recipe, builds", [("fig4.cfg", 12),
                                                ("fig3.cfg", 2)])
    def test_one_table_per_radio_configuration(self, monkeypatch, recipe,
                                               builds):
        # fig4 has six radio configurations (one per theta_rd), fig3 one;
        # each table builds its two receivers once, at the group's largest N.
        built = []
        build = SuccessTable._build

        def counted(self, *args):
            built.append(args)
            return build(self, *args)

        monkeypatch.setattr(SuccessTable, "_build", counted)
        rows = run_sweep(load_config(str(RECIPES / recipe)))
        assert all(r["error"] == "" for r in rows)
        assert len(built) == builds

    def test_one_block_serves_every_n(self, monkeypatch):
        # fig3's 45 points share one radio configuration and one zero
        # pattern: one block, built at N = 15, serves N = 1..15.
        built = _count_block_builds(monkeypatch)
        out = run_sweep(load_config(str(RECIPES / "fig3.cfg")))
        assert all(r["error"] == "" for r in out)
        assert built == [(15, (True, True, True))]

    def test_one_block_built_per_radio_configuration(self, monkeypatch):
        # Each of fig4's six groups runs q_uf from 0 (BR only) to 1 (FD
        # only): three zero patterns. The full pattern's block is built
        # first, and the two others are row selections of it.
        built = _count_block_builds(monkeypatch)
        out = run_sweep(load_config(str(RECIPES / "fig4.cfg")))
        assert all(r["error"] == "" for r in out)
        assert built == [(10, (True, True, True))] * 6

    def test_widest_pattern_built_only_where_a_point_has_it(self,
                                                            monkeypatch):
        # q_uf = 0 and 1 only: the widest pattern (every scheme active) is
        # no point's, so each point's own pattern is built, and the
        # full-simplex block never.
        built = _count_block_builds(monkeypatch)
        spec = SweepSpec(base=ScenarioConfig(n_ues=6, q_u=0.3),
                         axes=(("q_uf", (0.0, 1.0)),))
        assert all(r["error"] == "" for r in run_sweep(spec))
        assert built == [(6, (False, False, True)), (6, (True, True, False))]

    def test_failed_block_build_fails_only_its_own_row(self, monkeypatch):
        # The widest block fails to build: the points of the other
        # patterns get their own blocks and a fresh analysis's numbers.
        rows = queue_model._rows

        def failing(n, active):
            if all(active):
                raise RuntimeError("planted")
            return rows(n, active)

        monkeypatch.setattr(queue_model, "_rows", failing)
        spec = SweepSpec(base=ScenarioConfig(n_ues=6, q_u=0.3),
                         axes=(("q_uf", (0.0, 0.5, 1.0)),))
        out = run_sweep(spec)
        assert [r["error"] for r in out] == ["", "RuntimeError: planted", ""]
        for row, q_uf in ((out[0], 0.0), (out[2], 1.0)):
            want = evaluate_point(spec.base.replace(q_uf=q_uf))
            assert {k: _hex(row[k]) for k in want} == \
                {k: _hex(v) for k, v in want.items()}

    def test_oversized_n_fails_only_its_own_row(self):
        # N = 1030 is over MAX_N_UES, so its configuration fails when it is
        # built and it joins no group; N = 5 gets a fresh analysis's row.
        spec = SweepSpec(base=ScenarioConfig(q_u=0.1),
                         axes=(("n_ues", (5, 1030)),))
        rows = run_sweep(spec)
        want = evaluate_point(spec.base.replace(n_ues=5))
        assert rows[0]["error"] == ""
        assert {k: _hex(rows[0][k]) for k in want} == \
            {k: _hex(v) for k, v in want.items()}
        assert "1030" in rows[1]["error"]
        assert "t_total" not in rows[1]

    def test_rows_equal_fresh_per_point_evaluation(self):
        for path in sorted(RECIPES.glob("*.cfg")):
            spec = load_config(str(path))
            fresh = [evaluate_point(spec.base.replace(**overrides))
                     for overrides in spec.grid()]
            for jobs in (1, 2):
                rows = run_sweep(spec, jobs=jobs)
                assert len(rows) == len(fresh)
                for row, want in zip(rows, fresh):
                    assert row["error"] == ""
                    assert {k: _hex(row[k]) for k in want} == \
                        {k: _hex(v) for k, v in want.items()}, (path.name, jobs)

    def test_table_failure_stays_in_its_group(self, tmp_path):
        text = "[sweep]\np_t_dbm = 24, 3113\nq_u = 0.1, 0.5\n"
        spec = load_config(_write(tmp_path, text))
        rows = run_sweep(spec)
        with pytest.raises(ValueError) as exc:
            evaluate_point(spec.base.replace(p_t_dbm=3113.0, q_u=0.5))
        assert [r["error"] for r in rows] == ["", "", str(exc.value),
                                              str(exc.value)]
        assert "link budget out of float range" in rows[2]["error"]
        assert all("t_total" in r for r in rows[:2])

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch,
                                                 tmp_path):
        # Three radio configurations of one point each make three tasks, so
        # jobs=8 forks three workers. The fake pool maps in-process and
        # starts no process.
        workers = []

        class FakePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        spec = load_config(_write(tmp_path, "[sweep]\nalpha = 0.1, 0.2, 0.3\n"))
        serial = run_sweep(spec)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        assert run_sweep(spec, jobs=8) == serial
        assert workers == [3]

    def test_cold_start_imports_no_process_pool(self):
        # Only run_sweep with jobs > 1 starts workers, so only it imports
        # the pool.
        code = ("import sys, mmrelay.cli\n"
                f"mmrelay.cli.load_config({str(RECIPES / 'fig3.cfg')!r})\n"
                "print(sorted({'concurrent.futures.process', "
                "'multiprocessing'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_groups_split_only_below_the_job_count(self):
        groups = [[1, 2, 3], [4, 5]]
        assert _tasks(groups, 1) == groups
        assert _tasks(groups, 2) == groups
        assert _tasks(groups, 4) == [[1, 2], [3], [4], [5]]
        assert _tasks([[1, 2, 3]], 2) == [[1, 2], [3]]


class TestCliProcess:
    def test_analyze_two_ue_matches_closed_forms(self, tmp_path):
        from mmrelay import ScenarioConfig, SuccessTable
        from oracles import two_ue_closed_forms
        cfg = ScenarioConfig(n_ues=2)
        forms = two_ue_closed_forms(cfg, SuccessTable(cfg))
        q_r_min = forms["lambda0"] / (forms["lambda0"] + forms["b_r"]
                                      - forms["a_r"])
        code, out, _ = _cli("analyze", _write(tmp_path, "[scenario]\nn_ues = 2\n"))
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("q_r_min"))
        assert float(line.split(":")[1]) == pytest.approx(q_r_min, rel=1e-8)

    def test_usage_error_exit_code(self):
        code, _, _ = _cli("analyze")
        assert code == 1
        code, _, _ = _cli("frobnicate", "x")
        assert code == 1

    @pytest.mark.parametrize("args, flag", [
        (("simulate", "--slots", "0"), "--slots"),
        (("simulate", "--seed", "-1"), "--seed"),
        (("compare", "--slots", "-5"), "--slots"),
        (("compare", "--seed", "x"), "--seed"),
        (("sweep", "-o", "out.csv", "--jobs", "0"), "--jobs"),
    ])
    def test_simulation_flags_out_of_range(self, tmp_path, capsys, args, flag):
        import mmrelay.cli as cli
        path = _write(tmp_path, "[scenario]\nn_ues = 2\n")
        assert cli.main([args[0], path, *args[1:]]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_model_error_exit_code(self, tmp_path):
        code, _, err = _cli("analyze", _write(tmp_path, "[scenario]\nq_u = 1.5\n"))
        assert code == 2
        assert "q_u" in err

    def test_link_budget_overflow_names_the_power(self, tmp_path, capsys):
        import mmrelay.cli as cli
        path = _write(tmp_path, "[scenario]\ntheta_bw_fd_deg = 1e-160\n")
        assert cli.main(["analyze", path]) == 2
        assert capsys.readouterr().err == (
            "mmrelay: link budget out of float range: ur fd LOS received "
            "power is inf\n")

    def test_any_model_exception_exit_code(self, tmp_path, monkeypatch,
                                           capsys):
        import mmrelay.cli as cli

        def faulty(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "aggregate_throughput", faulty)
        path = _write(tmp_path, "[scenario]\nn_ues = 2\n")
        assert cli.main(["analyze", path]) == 2
        assert "ZeroDivisionError" in capsys.readouterr().err

    def test_missing_file(self):
        code, _, _ = _cli("analyze", "/nonexistent/path.cfg")
        assert code == 1

    def test_simulate_deterministic_output(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nn_ues = 2\nq_u = 0.5\n")
        code1, out1, _ = _cli("simulate", path, "--slots", "20000", "--seed", "7")
        code2, out2, _ = _cli("simulate", path, "--slots", "20000", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_sweep_deterministic_csv(self, tmp_path):
        path = _write(tmp_path,
                      "[sweep]\nn_ues = 1:3\n"
                      "[simulation]\nsimulate = true\nn_slots = 5000\nseed = 3\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert _cli("sweep", path, "-o", str(out1))[0] == 0
        assert _cli("sweep", path, "-o", str(out2), "--jobs", "2")[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_output_checked_before_the_grid(self, tmp_path,
                                                  monkeypatch, capsys):
        import mmrelay.cli as cli

        def unexpected(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_sweep", unexpected)
        path = _write(tmp_path, "[sweep]\nn_ues = 1:4\n")
        out = tmp_path / "missing" / "out.csv"
        assert cli.main(["sweep", path, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "mmrelay: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("theta_rd, suffix", [
        ("20, 30", ""), ("20, 60", " (1 with errors)")])
    def test_sweep_summary_line(self, tmp_path, capsys, theta_rd, suffix):
        # a 30-degree BR beam cannot cover theta_rd = 60
        import mmrelay.cli as cli
        path = _write(tmp_path, "[scenario]\ntheta_bw_br_deg = 30\n"
                                f"[sweep]\ntheta_rd_deg = {theta_rd}\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", path, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 rows to {out}{suffix}\n"
        assert len(out.read_text().splitlines()) == 3

    def test_compare_regime_note(self, tmp_path, capsys):
        # Unstable (the relay never transmits), but in 50 slots at this seed
        # no packet reaches the relay, so the simulated queue ends empty.
        import mmrelay.cli as cli
        path = _write(tmp_path, "[scenario]\nn_ues = 2\nq_u = 0.02\n"
                                "q_r = 0\n")
        code = cli.main(["compare", path, "--slots", "50", "--seed", "0"])
        assert code == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            "note: analytic regime is unstable but the simulated queue "
            "stayed bounded; treat comparison as regime-sensitive")

    def test_compare_silent_network_passes(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nn_ues = 2\nq_u = 0\n")
        code, out, _ = _cli("compare", path, "--slots", "20000", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_compare_two_ue_point(self, tmp_path):
        path = _write(tmp_path, "[scenario]\nn_ues = 2\nq_u = 0.5\n")
        code, out, _ = _cli("compare", path, "--slots", "400000", "--seed", "5")
        assert code == 0, out


class TestSupportedN:
    def test_largest_n_is_analysed_within_the_cap(self):
        # A cold analysis at the bound, default radio: about 130 MB
        # resident and 1.3 s, under a 512 MB address-space cap.
        code = ("from mmrelay import ScenarioConfig, aggregate_throughput\n"
                "from mmrelay.geometry import MAX_N_UES\n"
                "cfg = ScenarioConfig(n_ues=MAX_N_UES)\n"
                "print(aggregate_throughput(cfg).regime)\n")
        proc = run_limited(code, limit_mb=512)
        assert (proc.returncode, proc.stdout) == (0, "stable\n"), proc.stderr

    def test_one_more_is_rejected_with_its_reason(self, tmp_path, capsys):
        import mmrelay.cli as cli
        message = (f"n_ues must be at most {MAX_N_UES}, got {MAX_N_UES + 1}: "
                   "the exact analysis's memory grows as N**4")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ScenarioConfig(n_ues=MAX_N_UES + 1)
        for text in (f"[scenario]\nn_ues = {MAX_N_UES + 1}\n",
                     f"[sweep]\nn_ues = {MAX_N_UES - 1}:{MAX_N_UES + 1}\n"):
            path = _write(tmp_path, text)
            with pytest.raises(ConfigError,
                               match=f"^line 2: {re.escape(message)}"):
                load_config(path)
            assert cli.main(["analyze", path]) == 2
            assert capsys.readouterr().err.startswith(
                f"mmrelay: line 2: {message}")


# Config text for ``_check_config_texts``: the real sections and their
# keys, odd values, and wrong sections, wrong keys and malformed lines.
_SECTION_KEYS = {
    "[scenario]": sorted(sweeps._SCENARIO_FIELDS),
    "[sweep]": sorted(sweeps._SCENARIO_FIELDS | {"outputs"}),
    "[simulation]": ["simulate", "n_slots", "seed", "mode"],
}
_ODD_VALUES = (
    "0", "1", "-1", "2", "3", "7", "30", "128", "129", "1_000", "1030",
    "1e3", "2.5", "0.5", "1.5", "-0.5", "0.0", "1e-320", "1e400", "nan",
    "inf", "-inf", "+5", "0x10", _ARABIC_12, _WIDE_0_5, _WIDE_10, "abc",
    "true", "off", "physical", "decoupled", "1:3", "1:3:0.5", "0:1:0.25",
    "3:1", "1:2:0", "1:2:-1", "0:1e6:1e-6", "1:2:3:4", "1, 2", "0.1, 0.5",
    "1,,2", "1, 1", "t_total, q_r_min", "regime, regime", "t_sim", "", " ")
# Values in or at the edge of a key's domain, as a scalar or as an axis,
# so that many files load and some sweep: (scalars, axes)
_KEY_VALUES = {"n_ues": (("4", "128", "129", "1_000"),
                         ("1:3", "2, 5", "127:129", "1, 1_000")),
               "simulate": (("true", "off"),), "n_slots": (("300",),),
               "seed": (("3",),), "mode": (("physical",),),
               "outputs": (("t_total, q_r_min", "regime"),)}
_PROBABILITY_VALUES = (("0.3",), ("0.1, 0.5", "0:1:0.5"))
_OTHER_VALUES = (("20",), ("10, 40", "20:40:10"))


_ODD_LINES = ("[ Sweep ]", "[bogus]", "[]", "[scenario", "bogus = 1",
              "slots = 5", "n_ues", "= 3", "n_ues == 3", "q_u 0.5", "]",
              "# only a note", "\t", "\ufeff[scenario]", "q_u = 0.5 # note")


def _key_values(section: str, key: str) -> tuple:
    """The values ``key`` takes in ``section``: a scenario field's axes in
    [sweep], its scalars elsewhere."""
    values = _KEY_VALUES.get(key, _PROBABILITY_VALUES
                             if key.startswith("q_") else _OTHER_VALUES)
    return values[1] if section == "[sweep]" and len(values) > 1 \
        else values[0]


@st.composite
def _config_texts(draw):
    """A config file's text: up to 8 lines, each a section header, a
    key = value pair of the current section's keys (a value in or at the
    edge of the key's domain, an odd one or noise), or an odd line, in
    one newline style."""
    section, lines = "[scenario]", []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("section",) * 2 + ("pair",) * 6
                                    + ("odd", "noise")))
        if kind == "section":
            section = draw(st.sampled_from(list(_SECTION_KEYS)))
            lines.append(section)
        elif kind == "pair":
            key = draw(st.sampled_from(_SECTION_KEYS[section]))
            value = draw(st.sampled_from(
                ("key",) * 4 + ("odd", "noise")).flatmap(lambda kind: {
                    "key": st.sampled_from(_key_values(section, key)),
                    "odd": st.sampled_from(_ODD_VALUES),
                    "noise": st.text("0123456789.:,-e_ ", max_size=8)}[kind]))
            lines.append(f"{key} = {value}")
        elif kind == "odd":
            lines.append(draw(st.sampled_from(_ODD_LINES)))
        else:
            lines.append(draw(st.text(st.characters(
                blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=12)))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def _check_config_texts(examples: int) -> None:
    """Every generated file raises a ``ConfigError`` that names its line,
    or loads with every N within ``MAX_N_UES``; a loaded spec of at most
    12 points at N <= 30 gives one ``run_sweep`` row per point (at most
    500 simulated slots), and no row holds a ``MemoryError``. Run in a
    capped child by ``TestConfigText``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.cfg")

        @settings(max_examples=examples, deadline=None, database=None)
        @given(_config_texts())
        @example(f"n_ues = {MAX_N_UES + 1}\n")
        @example(f"[sweep]\nn_ues = 1, {MAX_N_UES + 1}\n")
        @example("[scenario]\nn_ues = 1_000\n[sweep]\nq_u = 0.1, 0.5\n")
        def check(text):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                spec = load_config(path)
            except ConfigError as exc:
                assert re.match(r"line \d+: ", str(exc)), str(exc)
                return
            grid = spec.grid()
            ns = [point.get("n_ues", spec.base.n_ues) for point in grid]
            assert all(1 <= n <= MAX_N_UES for n in ns), ns
            if len(grid) > 12 or max(ns) > 30:
                return
            rows = run_sweep(dataclasses.replace(
                spec, n_slots=min(spec.n_slots, 500)))
            assert len(rows) == len(grid)
            assert not [r for r in rows if "MemoryError" in r["error"]], rows

        check()


class TestConfigText:
    def test_every_file_names_its_bad_line_or_loads(self):
        # One child for all examples, its address space capped at 1 GB
        proc = run_limited("import test_cli\n"
                           "test_cli._check_config_texts(400)\n",
                           limit_mb=1024)
        assert proc.returncode == 0, proc.stderr[-4000:]


class TestRecipes:
    from conftest import RECIPES

    def test_all_recipes_parse(self):
        names = ["fig3.cfg", "fig4.cfg", "fig5.cfg", "fig6.cfg", "fig7.cfg",
                 "fig8_short.cfg", "fig8_default.cfg", "fig8_long.cfg"]
        for name in names:
            spec = load_config(str(self.RECIPES / name))
            assert spec.grid()

    def test_recipe_axes_cover_figures(self):
        fig3 = load_config(str(self.RECIPES / "fig3.cfg"))
        assert dict(fig3.axes)["n_ues"] == tuple(range(1, 16))
        assert dict(fig3.axes)["q_u"] == (0.1, 0.5, 0.9)
        assert fig3.base.theta_rd_deg == 30.0 and fig3.base.q_ur == 0.5
        fig4 = load_config(str(self.RECIPES / "fig4.cfg"))
        assert fig4.base.n_ues == 10 and fig4.base.q_u == 0.1
        assert {n for n, _ in fig4.axes} == {"theta_rd_deg", "q_uf"}
        fig6 = load_config(str(self.RECIPES / "fig6.cfg"))
        assert fig6.base.gamma_db == 20.0
        fig7 = load_config(str(self.RECIPES / "fig7.cfg"))
        assert fig7.base.q_uf == 1.0
        assert fig7.base.d_ur_m == 50.0 and fig7.base.d_ud_m == 200.0
        assert {n for n, _ in fig7.axes} == {"theta_rd_deg", "q_ur"}
        for name, d_ur in (("fig8_short.cfg", 10.0), ("fig8_default.cfg", 30.0),
                           ("fig8_long.cfg", 60.0)):
            spec = load_config(str(self.RECIPES / name))
            assert spec.base.d_ur_m == d_ur
            assert dict(spec.axes)["q_uf"][0] == 0.0

    def test_fig7_instability_onset(self):
        # the long-range always-FD exhibit destabilizes around q_ur = 0.3
        # at theta_rd = 30 for the recipe's relay transmit probability
        spec = load_config(str(self.RECIPES / "fig7.cfg"))
        rows = [r for r in run_sweep(spec) if r["theta_rd_deg"] == 30]
        rows.sort(key=lambda r: r["q_ur"])
        onset = next(r["q_ur"] for r in rows if r["regime"] == "unstable")
        assert onset == pytest.approx(0.3, abs=0.05)
