import filecmp
import math
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from pitkit import cli, parareal
from pitkit.cli import FACTORS_HEADER, FIELD_HEADER, TRACE_HEADER, main
from pitkit.core import MAX_RUN_VALUES, ConfigError, NumericalError
from pitkit.presets import (
    build_parareal,
    experiment_preset,
    experiment_preset_names,
    field_preset,
    field_preset_names,
    load_config,
)


def _rows(path):
    """Data rows of a CSV artifact, skipping '#' header lines and the column line."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _header(path):
    pairs = {}
    for ln in path.read_text().splitlines():
        if ln.startswith("# ") and " = " in ln:
            key, value = ln[2:].split(" = ", 1)
            pairs[key] = value
    return pairs


def _sups(path):
    sups = {}
    for row in _rows(path):
        k, err = int(row[0]), float(row[2])
        sups[k] = max(sups.get(k, 0.0), err)
    return sups


# ------------------------------------------------------------------ plumbing


def test_run_defaults_to_stdout(capsys):
    assert main(["run", "--preset", "heat-dirichlet-N6", "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(TRACE_HEADER)
    assert "k,n,error_l2,bound,wall_time_ms" in out


def test_unknown_preset_exits_2(capsys):
    assert main(["run", "--preset", "heat-dirichlet-N7"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_unknown_field_preset_exits_2(capsys):
    assert main(["solution-field", "--preset", "wave"]) == 2
    assert "presets" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pitkit.cli", "presets"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "heat-dirichlet-N48" in proc.stdout


def test_importing_the_cli_adds_no_module_outside_stdlib_but_numpy():
    """``import pitkit.cli`` loads nothing beyond the standard library but
    numpy and pitkit.  A bare interpreter's modules, such as those site
    hooks load, are subtracted."""
    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                              capture_output=True, text=True, timeout=60, check=True)
        return {name.split(".")[0] for name in proc.stdout.split()}

    added = loaded("import pitkit.cli") - loaded("pass")
    outside = added - set(sys.stdlib_module_names)
    assert "pitkit" in outside and outside <= {"numpy", "pitkit"}


def test_presets_lists_every_name(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in experiment_preset_names():
        assert name in out
    for name in field_preset_names():
        assert name in out


def test_presets_show_no_coarse_exactly_when_the_built_run_has_none(capsys):
    """spectral-mG0 keeps coarse.role = coarse but zero coarse modes, so its
    built run has no coarse propagator and is listed as coarse=none."""
    assert main(["presets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in experiment_preset_names():
        (line,) = [ln for ln in lines if ln.split()[:1] == [name]]
        assert ("coarse=none" in line) == (build_parareal(experiment_preset(name)).coarse is None), line
    assert "coarse=none" in next(ln for ln in lines if "spectral-mG0" in ln)


def test_default_run_is_the_dirichlet_preset_shape(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--iterations", "1", "--out", str(out)]) == 0
    header = _header(out)
    assert header["model.kind"] == "heat"
    assert header["model.bc"] == "dirichlet"
    assert header["partition.n_slices"] == "48"
    assert header["fine.steps_per_slice"] == "6"
    assert header["model.n_cells"] == "128"
    rows = _rows(out)
    # k = 0 and k = 1, each with n = 0..48
    assert len(rows) == 2 * 49


# -------------------------------------------------------------- determinism


@pytest.mark.parametrize("preset", ["heat-dirichlet-N12", "spectral-mG1", "advection-periodic-N12"])
def test_repeated_runs_are_byte_identical(tmp_path, preset):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--preset", preset, "--out", str(a)]) == 0
    assert main(["run", "--preset", preset, "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_wall_time_column_is_zero_without_timings(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--preset", "heat-dirichlet-N6", "--out", str(out)]) == 0
    assert all(row[4] == "0.0" for row in _rows(out))


def test_run_parallel_is_echoed_and_selects_nothing(tmp_path):
    lines = {}
    for value in ("true", "false"):
        cfg = tmp_path / f"{value}.ini"
        cfg.write_text("[partition]\nn_slices = 6\n[fine]\nsteps_per_slice = 48\n"
                       f"[run]\niterations = 3\nparallel = {value}\n")
        out = tmp_path / f"{value}.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines[value] = out.read_text().splitlines()
    assert len(lines["true"]) == len(lines["false"])
    differing = [pair for pair in zip(lines["true"], lines["false"]) if pair[0] != pair[1]]
    assert differing == [("# run.parallel = true", "# run.parallel = false")]


def _call(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call; a parse error's
    SystemExit counts as its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once, and a reused parser answers every
    call as a freshly built one does: no flag of one call leaks into the next."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[model]\nkind = spectral\nbasis = sine\n"
        "[partition]\nt_end = 3.0\nn_slices = 4\n"
        "[fine]\nmode_count = 8\n"
        "[coarse]\nrole = coarse\nmode_count = 1\n"
        "[run]\niterations = 3\n"
    )
    argvs = [
        ["run", "--preset", "heat-dirichlet-N6", "--iterations", "2"],
        ["run", "--config", str(cfg)],
        ["run", "--config", str(cfg), "--no-coarse"],
        ["run", "--config", str(cfg), "--iterations", "1"],
        ["run", "--preset", "heat-dirichlet-N6", "--bogus"],
        ["run", "--preset", "heat-dirichlet-N6", "--no-coarse", "--iterations", "1"],
        ["run", "--preset", "heat-dirichlet-N6", "--iterations", "1"],
    ]
    builds = []
    build = cli.build_argument_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_argument_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    reused = [_call(argv, capsys) for argv in argvs]
    assert len(builds) == 1
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_call(argv, capsys))
    assert len(builds) == 1 + len(argvs)
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0]
    assert "unrecognized arguments: --bogus" in reused[4][2]
    assert len({out for _, out, _ in reused}) == len(argvs)
    for argv, got, want in zip(argvs, reused, fresh):
        assert got == want, argv


# ---------------------------------------------------------------- overrides


def test_no_coarse_and_iterations_overrides(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--preset", "heat-dirichlet-N6", "--no-coarse",
                 "--iterations", "3", "--out", str(out)]) == 0
    header = _header(out)
    assert header["coarse.role"] == "none"
    assert header["run.iterations"] == "3"
    assert header["trace.initial_guess"] == "replicate_u0"
    assert max(int(r[0]) for r in _rows(out)) == 3


def test_iterations_must_be_positive(capsys):
    assert main(["run", "--preset", "heat-dirichlet-N6", "--iterations", "0"]) == 2
    assert "run.iterations" in capsys.readouterr().err


def test_coarse_free_dirichlet_beats_with_coarse_early(tmp_path):
    """On the shortest Dirichlet split the plain fine sweep converges faster
    than the corrected iteration at k = 1..3."""
    with_c, without_c = tmp_path / "with.csv", tmp_path / "without.csv"
    assert main(["run", "--preset", "heat-dirichlet-N6", "--out", str(with_c)]) == 0
    assert main(["run", "--preset", "heat-dirichlet-N6", "--no-coarse", "--out", str(without_c)]) == 0
    sup_with, sup_without = _sups(with_c), _sups(without_c)
    for k in (1, 2, 3):
        assert sup_without[k] < sup_with[k]


def test_neumann_without_coarse_does_not_contract(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["run", "--preset", "heat-neumann-N48", "--no-coarse", "--out", str(out)]) == 0
    sups = _sups(out)
    assert sups[10] >= 0.9 * sups[1]


def test_spectral_trace_bound_column_equals_error_column(tmp_path):
    """The bound column repeats the sup-level bound on every row of one
    iteration, so it is met with equality by the largest error of that
    iteration (the slowest mode attains it)."""
    out = tmp_path / "trace.csv"
    assert main(["run", "--preset", "spectral-mG0", "--out", str(out)]) == 0
    bounds = {}
    for row in _rows(out):
        k, bound = int(row[0]), float(row[3])
        bounds.setdefault(k, bound)
        assert bound == bounds[k]
    sups = _sups(out)
    for k, bound in bounds.items():
        assert sups[k] == pytest.approx(bound, rel=1e-12, abs=0.0)


# -------------------------------------------------------------- config files


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[model]\nkind = spectral\nbasis = sine\n"
        "[initial]\nkind = modes\nmodes = 1:1.0 8:0.7\n"
        "[source]\nkind = zero\n"
        "[partition]\nt_end = 3.0\nn_slices = 6\n"
        "[fine]\nmode_count = 8\n"
        "[coarse]\nrole = coarse\nmode_count = 1\n"
        "[run]\ninitial_guess = zero\niterations = 4\n"
    )
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header = _header(out)
    assert header["model.kind"] == "spectral"
    assert header["initial.modes"] == "1:1.0 8:0.7"
    assert header["coarse.mode_count"] == "1"


def test_unknown_config_key_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[model]\nknd = heat\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "model.knd" in capsys.readouterr().err


def test_unknown_config_section_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[solver]\nkind = heat\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "[solver]" in capsys.readouterr().err


def test_bad_mode_token_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[initial]\nkind = modes\nmodes = 1=0.5\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "initial.modes" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "spectral-mG3"],
    ["factors"],
    ["solution-field", "--preset", "heat-dirichlet"],
])
def test_unwritable_out_exits_2_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out: cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, computation", [
    (["run", "--preset", "heat-dirichlet-N48"], "run_parareal"),
    (["solution-field", "--preset", "heat-dirichlet"], "reference_fine_sequential"),
])
def test_unwritable_out_fails_before_computing(tmp_path, capsys, monkeypatch, argv, computation):
    def never(*args, **kwargs):
        raise AssertionError(f"{computation} ran although --out cannot be written")

    monkeypatch.setattr(cli, computation, never)
    out = tmp_path / "missing" / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: cannot write {out}: no directory {out.parent}\n"
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --out: cannot write {tmp_path}: it is a directory\n"


def test_failed_run_leaves_no_out_file(tmp_path, monkeypatch):
    def failing(config):
        raise NumericalError("diverged")

    monkeypatch.setattr(cli, "run_parareal", failing)
    out = tmp_path / "x.csv"
    assert main(["run", "--preset", "spectral-mG3", "--out", str(out)]) == 3
    assert not out.exists()


def test_pulse_whose_square_distance_overflows_adds_nothing(tmp_path):
    """At t = 1e200, (t - tj) ** 2 overflows for every pulse time tj; each
    pulse then adds 0.0 to the source instead of failing the run."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[partition]\nt_end = 1e200\n")
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert _header(out)["partition.t_end"] == "1e+200"
    assert all(math.isfinite(float(row[2])) for row in _rows(out))


# name -> (config document, a fragment the error message must contain);
# each is rejected before any sweep runs
_BAD_RUN_CONFIGS = {
    "heat-one-cell": ("[model]\nkind = heat\nn_cells = 1\n", "model.n_cells"),
    "wave-one-cell": ("[model]\nkind = wave\nn_cells = 1\n[source]\nkind = zero\n"
                      "[coarse]\nrole = none\n", "model.n_cells"),
    "no-slices": ("[partition]\nn_slices = 0\n", "partition.n_slices"),
    "advection-dirichlet": ("[model]\nkind = advection\nbc = dirichlet\n",
                            "model.bc: unknown bc 'dirichlet'"),
    "advection-dirichlet-inflow-zero": ("[model]\nkind = advection\nbc = dirichlet_inflow_zero\n",
                                        "model.bc: unknown bc"),
    "t_end-before-start": ("[partition]\nt_start = 1.0\nt_end = 0.5\n", "partition.t_end"),
    "negative-coarse-steps": ("[coarse]\nsteps_per_slice = -1\n", "coarse.steps_per_slice"),
    "spectral-no-fine-modes": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                               "[fine]\nmode_count = 0\n", "fine.mode_count: m_max"),
    "spectral-negative-length": ("[model]\nkind = spectral\nlength = -1\n"
                                 "[source]\nkind = zero\n", "model.length"),
    "spectral-mode-outside-layout": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                                     "[initial]\nkind = modes\nmodes = 100:1.0\n"
                                     "[fine]\nmode_count = 64\n", "initial.modes: mode 100"),
    "wave-pulsed-source": ("[model]\nkind = wave\n[source]\nkind = pulsed\n"
                           "[coarse]\nrole = none\n", "source.kind"),
    "spectral-source-mode-past-layout": ("[model]\nkind = spectral\n[source]\nkind = pulsed\n"
                                         "modes = 200:1.0\n[fine]\nmode_count = 64\n",
                                         "source.modes: mode 200"),
    "spectral-source-mode-zero": ("[model]\nkind = spectral\n[source]\nkind = pulsed\n"
                                  "modes = 0:1.0\n", "source.modes: mode 0"),
    "source-mode-given-twice": ("[model]\nkind = spectral\n[source]\nkind = pulsed\n"
                                "modes = 2:1.0 2:3.0\n", "source.modes: mode 2 given twice"),
    "initial-mode-given-twice": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                                 "[initial]\nkind = modes\nmodes = 1:1.0 1:5.0\n",
                                 "initial.modes: mode 1 given twice"),
    "negative-seed": ("[run]\ninitial_guess = random\nseed = -1\n", "run.seed"),
    "fine-steps-zero": ("[fine]\nsteps_per_slice = 0\n", "fine.steps_per_slice: must be >= 1"),
    "coarse-steps-zero": ("[coarse]\nsteps_per_slice = 0\n",
                          "coarse.steps_per_slice: must be >= 1"),
    "no-iterations": ("[run]\niterations = 0\n", "run.iterations: max_iterations must be >= 1"),
    "negative-tolerance": ("[run]\ntolerance = -1\n", "run.tolerance: tolerance must be >= 0"),
    "spectral-coarse-modes-not-fewer": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                                        "[fine]\nmode_count = 4\n[coarse]\nmode_count = 4\n",
                                        "coarse.mode_count: coarse propagator must resolve fewer"),
    "coarse-sweep-without-coarse": ("[coarse]\nrole = none\n[run]\ninitial_guess = coarse_sweep\n",
                                    "run.initial_guess: initial_guess 'coarse_sweep' requires"),
    "t_end-nan": ("[partition]\nt_end = nan\n", "partition.t_end: expected a finite number"),
    "t_end-inf": ("[partition]\nt_end = inf\n", "partition.t_end: expected a finite number"),
    "span-overflow": ("[partition]\nt_start = -1e308\nt_end = 1e308\n",
                      "partition.t_end: need a finite n_slices * (t_end - t_start)"),
    "tolerance-nan": ("[run]\ntolerance = nan\n", "run.tolerance: expected a finite number"),
    "mode-coefficient-nan": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                             "[initial]\nkind = modes\nmodes = 1:nan\n",
                             "initial.modes: expected a finite number"),
    "advection-cfl-above-one": ("[model]\nkind = advection\nbc = periodic\n[source]\nkind = zero\n"
                                "[fine]\nsteps_per_slice = 4\n[coarse]\nrole = none\n",
                                "fine.steps_per_slice: CFL number"),
    # past the size limit, rejected before any state of that size exists
    "heat-cells-past-limit": ("[model]\nn_cells = 4194304\n",
                              "model.n_cells / partition.n_slices: 49 slice boundaries"),
    "spectral-modes-past-limit": ("[model]\nkind = spectral\n[source]\nkind = zero\n"
                                  "[fine]\nmode_count = 1000000000000\n",
                                  "fine.mode_count / partition.n_slices: 49 slice boundaries"),
    "iterations-past-limit": ("[run]\niterations = 1000000000000\n",
                              "run.iterations: max_iterations 1000000000000: a trace"),
    "spectral-quadrature-past-limit-long-slice": (
        "[model]\nkind = spectral\n[source]\nkind = pulsed\nmodes = 1:1.0\n"
        "[partition]\nt_end = 1e300\nn_slices = 1\n",
        "partition.t_end: a source integral over [0.0, 1e+300] needs 1.6e+303 quadrature nodes"),
    "spectral-quadrature-past-limit-fast-mode": (
        "[model]\nkind = spectral\nlength = 1e-100\n[source]\nkind = pulsed\nmodes = 1:1.0\n"
        "[partition]\nn_slices = 1\n", "model.length: a source integral over [0.0, 3.0] needs"),
    "spectral-quadrature-past-limit-forced-modes": (
        "[model]\nkind = spectral\n[source]\nkind = pulsed\nmodes = 1:1.0 3:0.5\n"
        "[partition]\nt_end = 1e154\n", "partition.t_end: a source integral over"),
    # one slice so long that dt * L overflows in the implicit step's matrix
    "heat-implicit-step-overflow": ("[partition]\nt_end = 1e306\nn_slices = 1\n",
                                    "fine.steps_per_slice: the implicit step's 1.66667e+305 * L overflows"),
    # the top mode's decay rate overflows; checked before the reference run
    "spectral-length-past-rate-limit": (
        "[model]\nkind = spectral\nlength = 1e-300\n[source]\nkind = zero\n",
        "model.length: length 1e-300 gives mode 64 a decay rate that is not finite"),
}


@pytest.mark.parametrize("name", list(_BAD_RUN_CONFIGS))
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, name):
    text, fragment = _BAD_RUN_CONFIGS[name]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err
    assert "Traceback" not in err
    assert not out.exists()


# name -> (config document, the full message); each is rejected while the
# config is built, not after the reference run has propagated every slice
_SETUP_REJECTIONS = {
    "fine": ("[fine]\nsteps_per_slice = 0\n", "fine.steps_per_slice: must be >= 1, got 0"),
    "coarse": ("[coarse]\nsteps_per_slice = 0\n", "coarse.steps_per_slice: must be >= 1, got 0"),
    # the default single coarse step makes CFL number 8 on 128 cells and 48 slices
    "advection-coarse-cfl": ("[model]\nkind = advection\nbc = periodic\n[source]\nkind = zero\n"
                             "[fine]\nsteps_per_slice = 8\n",
                             "coarse.steps_per_slice: CFL number 8 exceeds 1; shrink dt or the speed"),
    # 1 + c*2/dx^2 rounds away the identity, so the Neumann matrix I - c*L is singular
    "heat-neumann-singular-step": ("[model]\nbc = neumann\n[partition]\nt_end = 1e154\n",
                                   "fine.steps_per_slice: the implicit step's matrix is singular in "
                                   "floats (zero pivot in row 128); shrink the substep"),
}


@pytest.mark.parametrize("name", list(_SETUP_REJECTIONS))
def test_zero_steps_exit_2_before_any_propagation(tmp_path, capsys, monkeypatch, name):
    """A step count the grid march cannot take (0, one above the CFL limit,
    or one whose implicit matrix is singular in floats) exits 2 from the
    setup check, before any propagation."""
    text, message = _SETUP_REJECTIONS[name]
    calls = []
    propagate = parareal.propagate_slice
    monkeypatch.setattr(parareal, "propagate_slice", lambda *args: calls.append(args) or propagate(*args))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_parareal(load_config(str(cfg)))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


_HUGE = 10**400

# name -> (config document, the key its error names first); each of these
# once overflowed a float and exited 1 with a traceback
_OVERFLOW_CONFIGS = {
    "heat-cells": (f"[model]\nn_cells = {_HUGE}\n", "model.n_cells"),
    "wave-cells": (f"[model]\nkind = wave\nn_cells = {_HUGE}\n[source]\nkind = zero\n",
                   "model.n_cells"),
    "advection-periodic-cells": (f"[model]\nkind = advection\nbc = periodic\nn_cells = {_HUGE}\n",
                                 "model.n_cells"),
    "heat-fine-steps": (f"[fine]\nsteps_per_slice = {_HUGE}\n", "fine.steps_per_slice"),
    "wave-fine-steps": (f"[model]\nkind = wave\n[source]\nkind = zero\n"
                        f"[fine]\nsteps_per_slice = {_HUGE}\n", "fine.steps_per_slice"),
    "advection-fine-steps": (f"[model]\nkind = advection\nbc = periodic\n"
                             f"[fine]\nsteps_per_slice = {_HUGE}\n", "fine.steps_per_slice"),
    "heat-coarse-steps": (f"[coarse]\nsteps_per_slice = {_HUGE}\n", "coarse.steps_per_slice"),
    "wave-coarse-steps": (f"[model]\nkind = wave\n[source]\nkind = zero\n"
                          f"[coarse]\nsteps_per_slice = {_HUGE}\n", "coarse.steps_per_slice"),
    # the substep 1e-300 / 48 / 1e300 underflows to 0.0
    "heat-fine-substep-underflow": (f"[partition]\nt_end = 1e-300\n[fine]\nsteps_per_slice = {10**300}\n",
                                    "fine.steps_per_slice"),
}


@pytest.mark.parametrize("name", list(_OVERFLOW_CONFIGS))
def test_overflowing_sizes_exit_2_before_any_propagation(tmp_path, capsys, monkeypatch, name):
    """A cell or step count too large for a float substep is rejected while
    the config is built, with the key it came from, not as a traceback
    from the reference run."""
    text, key = _OVERFLOW_CONFIGS[name]
    calls = []
    propagate = parareal.propagate_slice
    monkeypatch.setattr(parareal, "propagate_slice", lambda *args: calls.append(args) or propagate(*args))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        build_parareal(load_config(str(cfg)))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("preset", [*experiment_preset_names(), *field_preset_names()])
def test_echo_round_trips_through_a_config_file(tmp_path, preset):
    config = (experiment_preset(preset) if preset in experiment_preset_names()
              else field_preset(preset))
    sections: dict[str, list[str]] = {}
    for key, value in config.echo().items():
        if key != "preset":
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}")
    cfg = tmp_path / "exp.ini"
    cfg.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
    assert load_config(str(cfg)) == replace(config, preset="")


# ------------------------------------------------------------------ factors


def test_factors_single_row(tmp_path):
    cfg = tmp_path / "factors.ini"
    cfg.write_text("[factors]\nm_min = 1\nm_max = 1\ndts = 0.5\n")
    out = tmp_path / "factors.csv"
    assert main(["factors", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(FACTORS_HEADER)
    rows = _rows(out)
    assert len(rows) == 1
    m, dt, nc, wc = rows[0]
    assert int(m) == 1 and float(dt) == 0.5
    assert float(nc) == pytest.approx(0.6065306597126334, rel=1e-15)
    assert float(wc) == pytest.approx(0.18040802086209975, rel=1e-15)


def test_factors_rejects_zero_mode(tmp_path, capsys):
    cfg = tmp_path / "factors.ini"
    cfg.write_text("[factors]\nm_min = 0\nm_max = 4\n")
    assert main(["factors", "--config", str(cfg)]) == 2
    assert "zero mode" in capsys.readouterr().err


def test_factors_empty_mode_range_is_named(tmp_path, capsys):
    cfg = tmp_path / "factors.ini"
    cfg.write_text("[factors]\nm_min = 3\nm_max = 2\n")
    assert main(["factors", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "mode range" in err and "empty" in err
    assert "zero mode" not in err


@pytest.mark.parametrize("text", ["length = nan", "length = inf", "dts = nan 0.5", "dts = 0.5, -inf"])
def test_factors_rejects_non_finite_floats(tmp_path, capsys, text):
    cfg = tmp_path / "factors.ini"
    cfg.write_text(f"[factors]\n{text}\n")
    out = tmp_path / "factors.csv"
    assert main(["factors", "--config", str(cfg), "--out", str(out)]) == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_factors_default_grid_has_both_orderings(tmp_path):
    out = tmp_path / "factors.csv"
    assert main(["factors", "--out", str(out)]) == 0
    rows = _rows(out)
    assert len(rows) == 16 * 8
    nc_less = any(float(nc) < float(wc) for _, _, nc, wc in rows)
    wc_less = any(float(wc) < float(nc) for _, _, nc, wc in rows)
    assert nc_less and wc_less


def test_factors_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "factors.ini"
    cfg.write_text("[factors]\nmodes = 1 2 3\n")
    assert main(["factors", "--config", str(cfg)]) == 2
    assert "factors.modes" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "m_max = 1000000000000000000000000000000",
    f"m_min = 1\nm_max = {MAX_RUN_VALUES + 1}\ndts = 0.5",
], ids=["m_max-1e30", "one-row-past-the-limit"])
def test_factors_table_past_the_size_limit_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "factors.ini"
    cfg.write_text(f"[factors]\n{text}\n")
    out = tmp_path / "factors.csv"
    assert main(["factors", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factors.m_max: ") and f"limit of {MAX_RUN_VALUES} rows" in err
    assert not out.exists()


@pytest.mark.parametrize("length", ["1e-160", "1e-310"])
def test_factors_length_whose_top_rate_is_not_finite_exits_2(tmp_path, capsys, length):
    """(16 * pi / length) ** 2 overflows at 1e-160; at 1e-310 pi / length
    is already infinite."""
    cfg = tmp_path / "factors.ini"
    cfg.write_text(f"[factors]\nlength = {length}\n")
    assert main(["factors", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: factors.length: {float(length)} gives mode 16 a decay rate that is not finite\n"


def test_factors_slice_too_short_to_contract_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "factors.ini"
    cfg.write_text("[factors]\ndts = 1e-320\n")
    out = tmp_path / "factors.csv"
    assert main(["factors", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: factors.dts: coarse step is not strictly stable at lam*dT = 1e-320")
    assert not out.exists()


# ------------------------------------------------------------ solution field


def _field(path):
    by_time: dict[float, list[float]] = {}
    for x, t, u in _rows(path):
        by_time.setdefault(float(t), []).append(float(u))
    return {t: by_time[t] for t in sorted(by_time)}


def test_field_dirichlet_decays_after_last_pulse(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["solution-field", "--preset", "heat-dirichlet", "--out", str(out)]) == 0
    assert out.read_text().startswith(FIELD_HEADER)
    field = _field(out)
    peak = max(max(abs(u) for u in us) for us in field.values())
    final = max(abs(u) for u in field[3.0])
    assert final < 0.02 * peak


def test_field_neumann_flattens_but_keeps_heat(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["solution-field", "--preset", "heat-neumann", "--out", str(out)]) == 0
    final = _field(out)[3.0]
    mean = sum(final) / len(final)
    std = math.sqrt(sum((u - mean) ** 2 for u in final) / len(final))
    assert mean > 0.0
    assert std < 0.05 * mean


def test_field_periodic_advection_conserves_injected_mass(tmp_path):
    out = tmp_path / "field.csv"
    assert main(["solution-field", "--preset", "advection-periodic", "--out", str(out)]) == 0
    field = _field(out)
    final_sum = sum(field[3.0])

    model = build_parareal(replace(field_preset("advection-periodic"), coarse_role="none")).fine.model
    n_steps = 48 * 8
    dt = 3.0 / n_steps
    injected = 0.0
    for i in range(n_steps):
        f = model.source.space_profile(model.grid_x) * model.source.time_profile(i * dt)
        injected += dt * float(f.sum())
    assert final_sum == pytest.approx(injected, rel=1e-10)
