"""CLI harness tests: config parsing, result files, exit codes."""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresseq import (
    ConfigError,
    InvalidConstants,
    RunConfig,
    cook_mesh,
    emit_config,
    parse_config,
    read_mesh,
    verify_equilibration,
)
from stresseq.harness import main
from stresseq.mesh import write_mesh


def test_default_config_round_trip():
    cfg = RunConfig()
    assert parse_config(emit_config(cfg)) == cfg


def test_custom_config_round_trip():
    cfg = RunConfig(
        problem="manufactured-smooth",
        k=2,
        mu=0.75,
        inv_lambda=1e-3,
        theta=0.3,
        steps=7,
        estimator="residual",
        mode="uniform",
        C_K=2.5,
        C_A=1.25,
        output_dir="results/run1",
        save_mesh=True,
        mesh_file="meshes/custom.txt",
        max_dofs=10000,
    )
    assert parse_config(emit_config(cfg)) == cfg


_safe_text = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("L", "N"), include_characters="-_./"
    ),
    min_size=1,
    max_size=20,
)
_pos_float = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=100, deadline=None)
@given(
    problem=_safe_text,
    k=st.integers(min_value=-5, max_value=5),
    mu=_pos_float,
    inv_lambda=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    theta=_pos_float,
    steps=st.integers(min_value=1, max_value=100),
    constants=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=2.0, max_value=50.0, allow_nan=False),
            st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
        ),
    ),
    output_dir=_safe_text,
    save_mesh=st.booleans(),
    mesh_file=st.one_of(st.none(), _safe_text),
    max_dofs=st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)),
)
def test_config_round_trip_property(
    problem,
    k,
    mu,
    inv_lambda,
    theta,
    steps,
    constants,
    output_dir,
    save_mesh,
    mesh_file,
    max_dofs,
):
    cfg = RunConfig(
        problem=problem,
        k=k,
        mu=mu,
        inv_lambda=inv_lambda,
        theta=theta,
        steps=steps,
        C_K=None if constants is None else constants[0],
        C_A=None if constants is None else constants[1],
        output_dir=output_dir,
        save_mesh=save_mesh,
        mesh_file=mesh_file,
        max_dofs=max_dofs,
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("mu = 1.0\nshear = 2\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("mu = 1.0\n# comment\nmu = 2.0\n")
    with pytest.raises(ConfigError, match="line 1: bad value for k"):
        parse_config("k = two\n")
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config("mu = 1.0\njust words\n")


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("\n# full comment\n  mu = 2.0  # trailing\n\n")
    assert cfg.mu == 2.0


def test_validation_errors():
    with pytest.raises(ConfigError, match="mu"):
        parse_config("mu = 0.0\n")
    with pytest.raises(ConfigError, match="inv_lambda"):
        parse_config("inv_lambda = -1.0\n")
    with pytest.raises(ConfigError, match="steps"):
        parse_config("steps = 0\n")
    with pytest.raises(ConfigError, match="together"):
        parse_config("C_K = 3.0\n")
    with pytest.raises(ConfigError, match="save_mesh"):
        parse_config("save_mesh = yes\n")
    with pytest.raises(InvalidConstants):
        parse_config("C_K = 1.0\nC_A = 1.0\n")
    for text in (
        "mu = nan\n",
        "mu = inf\n",
        "inv_lambda = nan\n",
        "inv_lambda = inf\n",
        "theta = nan\n",
        "C_K = nan\nC_A = 1.0\n",
        "C_K = inf\nC_A = 1.0\n",
        "C_K = 3.0\nC_A = nan\n",
        "C_K = 3.0\nC_A = inf\n",
    ):
        with pytest.raises(ConfigError, match="not finite"):
            parse_config(text)


# -- end-to-end runs ------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.fixture()
def smooth_cfg(tmp_path):
    out = tmp_path / "out"
    return write_config(
        tmp_path,
        f"problem = manufactured-smooth\nsteps = 1\noutput_dir = {out}\n",
    ), out


def test_single_step_history_csv(smooth_cfg):
    cfg_path, out = smooth_cfg
    assert main(["run", cfg_path]) == 0
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 2
    header = "step,N,eta_A,eta_B,eta_C,eta_total,bound,error,effectivity"
    assert lines[0] == header
    row = lines[1].split(",")
    assert row[0] == "0"
    assert int(row[1]) > 0
    bound, error, eff = float(row[6]), float(row[7]), float(row[8])
    assert error**2 <= bound
    assert np.isclose(eff, np.sqrt(bound) / error)
    for name in (
        "estimator_final.csv",
        "summary.csv",
        "equilibration.txt",
        "config_used.txt",
    ):
        assert (out / name).exists()


def test_rerun_is_byte_identical(smooth_cfg, tmp_path):
    """Also on a k = 2 adaptive run, whose steps release their tables
    before the loop moves to the next mesh."""
    out_k2 = tmp_path / "out_k2"
    cfg_k2 = tmp_path / "k2.cfg"
    cfg_k2.write_text(
        f"problem = manufactured-smooth\nk = 2\nsteps = 4\nmode = adaptive\n"
        f"output_dir = {out_k2}\n"
    )
    names = ("history.csv", "estimator_final.csv", "summary.csv", "equilibration.txt")
    for cfg_path, out in (smooth_cfg, (str(cfg_k2), out_k2)):
        assert main(["run", cfg_path]) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert main(["run", cfg_path]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob
    assert len((out_k2 / "history.csv").read_text().splitlines()) == 5


def test_run_equilibrates_each_step_once(tmp_path, monkeypatch):
    """A 3-step run equilibrates 3 times, and equilibration.txt verifies
    the last step's reconstruction."""
    import stresseq.equilibration as equilibration
    from stresseq.harness import _emit_equilibration

    original = equilibration.equilibrate
    steps = []

    def counting(disc, sigma_h, load):
        result = original(disc, sigma_h, load)
        steps.append((disc, load, result[1], result[2].scale))
        return result

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "stresseq":
            continue
        if getattr(module, "equilibrate", None) is original:
            monkeypatch.setattr(module, "equilibrate", counting)
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, f"problem = cook\nsteps = 3\noutput_dir = {out}\n"
    )
    assert main(["run", cfg_path]) == 0
    assert len(steps) == 3
    disc, load, sigma_r, scale = steps[-1]
    expected = tmp_path / "expected.txt"
    _emit_equilibration(
        verify_equilibration(disc, sigma_r, load, scale=scale), expected
    )
    assert (out / "equilibration.txt").read_bytes() == expected.read_bytes()


def test_equilibration_diagnostics_written(smooth_cfg):
    cfg_path, out = smooth_cfg
    assert main(["run", cfg_path]) == 0
    text = (out / "equilibration.txt").read_text()
    values = dict(line.split() for line in text.splitlines())
    scale = float(values["scale"])
    assert float(values["max_residual"]) <= 1e-9 * scale


def test_output_dir_env_override(smooth_cfg, tmp_path, monkeypatch):
    cfg_path, out = smooth_cfg
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("STRESSEQ_OUTPUT_DIR", str(override))
    assert main(["run", cfg_path]) == 0
    assert (override / "history.csv").exists()
    assert not out.exists()


def test_save_mesh_round_trips(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path,
        f"problem = cook\nsteps = 1\nsave_mesh = true\noutput_dir = {out}\n",
    )
    assert main(["run", cfg_path]) == 0
    mesh = read_mesh(str(out / "mesh_final.txt"))
    assert mesh == cook_mesh()


def test_mesh_file_replaces_initial_mesh(tmp_path):
    finer = cook_mesh(8)
    mesh_path = tmp_path / "cook8.txt"
    write_mesh(finer, str(mesh_path))
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path,
        f"problem = cook\nsteps = 1\nmesh_file = {mesh_path}\n"
        f"output_dir = {out}\n",
    )
    assert main(["run", cfg_path]) == 0
    row = (out / "history.csv").read_text().splitlines()[1].split(",")
    disc_dofs = int(row[1])
    # 8x8 grid: 2 * 81 + ... displacement P2 dofs plus pressure dofs
    assert disc_dofs > 500


# -- exit codes -------------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "unknown_key = 1\n")
    assert main(["run", cfg_path]) == 2
    assert "config" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 2


def test_exit_code_missing_mesh_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "mesh_file = /no/such/mesh.txt\n")
    assert main(["run", cfg_path]) == 2


def test_exit_code_problem_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "problem = mystery\n")
    assert main(["run", cfg_path]) == 3
    assert "problem" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, "problem = manufactured-smooth\noutput_dir = /dev/null/x\n"
    )
    assert main(["run", cfg_path]) == 4
    assert "io" in capsys.readouterr().err


def test_exit_code_other_solver_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "C_K = 1.0\nC_A = 1.0\n")
    assert main(["run", cfg_path]) == 1
    assert "solver" in capsys.readouterr().err


def _corrupt_mesh_file(tmp_path, line_of):
    """Cook mesh file with one data line replaced; line_of(nv) gives the
    index of that line and its new text."""
    path = tmp_path / "bad.txt"
    write_mesh(cook_mesh(), str(path))
    lines = path.read_text().splitlines()
    index, text = line_of(cook_mesh().n_vertices)
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "line_of",
    [
        lambda nv: (1 + nv, f"0 1 {nv}"),  # triangle vertex index out of range
        lambda nv: (1, "nan 0.5"),          # non-finite vertex coordinate
    ],
    ids=["index-out-of-range", "nan-coordinate"],
)
def test_exit_code_bad_mesh_file(tmp_path, capsys, line_of):
    mesh_path = _corrupt_mesh_file(tmp_path, line_of)
    assert main(["mesh-info", str(mesh_path)]) == 4
    assert "io" in capsys.readouterr().err
    cfg_path = write_config(
        tmp_path, f"mesh_file = {mesh_path}\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", cfg_path]) == 4
    assert "io" in capsys.readouterr().err


def test_exit_code_non_finite_config(tmp_path, capsys):
    for text in ("mu = nan\n", "inv_lambda = nan\n"):
        cfg_path = write_config(tmp_path, text)
        assert main(["run", cfg_path]) == 2
        assert "not finite" in capsys.readouterr().err


def test_verify_subcommand(smooth_cfg, capsys):
    cfg_path, _ = smooth_cfg
    assert main(["verify", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "max_residual" in out and "ok" in out


def test_mesh_info_subcommand(tmp_path, capsys):
    mesh_path = tmp_path / "m.txt"
    write_mesh(cook_mesh(), str(mesh_path))
    assert main(["mesh-info", str(mesh_path)]) == 0
    out = capsys.readouterr().out
    assert "vertices 25" in out
    assert "triangles 32" in out
    assert "min_angle_deg" in out
