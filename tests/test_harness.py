"""CLI harness tests: config parsing, result files, exit codes."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CYCLIC_MESH_TEXT
from stresseq import (
    ConfigError,
    InvalidConstants,
    RunConfig,
    cook_mesh,
    emit_config,
    parse_config,
    read_mesh,
    unit_square_mesh,
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
    k=st.sampled_from([1, 2]),
    mu=_pos_float,
    inv_lambda=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    theta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
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


@pytest.mark.parametrize(
    "line",
    [
        "k = 3",
        "theta = 5",
        "estimator = bogus",
        "mode = sideways",
        "max_dofs = 0",
        "C_K = 1.0\nC_A = 1.0",
    ],
    ids=["k", "theta", "estimator", "mode", "max_dofs", "constants"],
)
@pytest.mark.parametrize("command", ["run", "verify"])
def test_run_and_verify_reject_the_same_configs(tmp_path, capsys, command, line):
    """Values the adaptive loop rejects are config errors of both commands,
    found before anything is solved."""
    cfg_path = write_config(
        tmp_path,
        f"problem = manufactured-smooth\n{line}\noutput_dir = {tmp_path / 'out'}\n",
    )
    assert main([command, cfg_path]) == 2
    assert "config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _corrupt_mesh_file(tmp_path, line_of):
    """Cook mesh file with one line replaced; line_of(nv, header) gives the
    index of that line and its new text."""
    path = tmp_path / "bad.txt"
    write_mesh(cook_mesh(), str(path))
    lines = path.read_text().splitlines()
    index, text = line_of(cook_mesh().n_vertices, lines[0])
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "line_of",
    [
        lambda nv, header: (1 + nv, f"0 1 {nv}"),  # triangle vertex index out of range
        lambda nv, header: (1, "nan 0.5"),          # non-finite vertex coordinate
        lambda nv, header: (1 + nv, "0 1 99999999999999999999"),  # beyond int64
        lambda nv, header: (0, f"{header} / foo 3"),  # a fifth header field
        lambda nv, header: (0, f"{header} / vertices {nv}"),  # a repeated one
    ],
    ids=[
        "index-out-of-range",
        "nan-coordinate",
        "index-beyond-int64",
        "unknown-header-field",
        "repeated-header-field",
    ],
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


@pytest.mark.parametrize("output_dir", ["", "/dev/null/x"], ids=["empty", "under-a-file"])
def test_unusable_output_dir_fails_before_the_loop(tmp_path, capsys, monkeypatch, output_dir):
    """An output directory that cannot be created ends the run with exit 4
    before anything is solved."""
    import stresseq.harness as harness

    def unexpected(*args):
        raise AssertionError("adaptive_loop called")

    monkeypatch.setattr(harness, "adaptive_loop", unexpected)
    cfg_path = write_config(tmp_path, f"problem = cook\noutput_dir = {output_dir}\n")
    assert main(["run", cfg_path]) == 4
    assert "io" in capsys.readouterr().err


def test_exit_code_misclassified_side_in_mesh_file(tmp_path, capsys):
    """A displacement side that is an interior side of the mesh is named in
    the one-line error of ``mesh-info``."""
    mesh = cook_mesh()
    lo, hi = mesh.sides[mesh.side_tri[:, 1] >= 0][0].tolist()
    path = tmp_path / "misclassified.txt"
    write_mesh(mesh, str(path))
    lines = path.read_text().splitlines()
    lines[1 + mesh.n_vertices + mesh.n_triangles] = f"{hi} {lo}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["mesh-info", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: io: invalid mesh in file")
    assert err.rstrip().endswith(f"dirichlet side ({lo}, {hi}) is not on the boundary")


def test_exit_code_vertex_in_no_triangle(tmp_path, capsys):
    """A mesh file with a vertex that no triangle holds (5 vertices, 2
    triangles) is a file error of ``mesh-info``, ``verify`` and ``run``,
    and the error names the vertex; it used to reach the solver as a
    singular saddle-point system."""
    text = (
        "vertices 5 / triangles 2 / sides_dirichlet 1 / sides_neumann 3\n"
        "0 0\n1 0\n0 1\n1 1\n2 2\n0 1 3\n0 3 2\n2 0\n0 1\n1 3\n3 2\n"
    )
    mesh_path = tmp_path / "unused.txt"
    mesh_path.write_text(text)
    cfg_path = write_config(
        tmp_path, f"mesh_file = {mesh_path}\noutput_dir = {tmp_path / 'out'}\n"
    )
    for argv in (["mesh-info", str(mesh_path)], ["verify", cfg_path], ["run", cfg_path]):
        assert main(argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: io: malformed mesh file"), argv
        assert err.rstrip().endswith("vertex 4 lies in no triangle"), argv


def _python(*args):
    """``python *args`` with the package under test importable, in a subprocess."""
    src = pathlib.Path(main.__code__.co_filename).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def _cli(*args):
    """``python -m stresseq`` on the package under test, in a subprocess."""
    return _python("-m", "stresseq", *args)


def test_exit_code_undecodable_file(tmp_path):
    """A byte that is not UTF-8 in a config is a config error (exit 2) and
    in a mesh file a file error (exit 4) of every command that reads it,
    reported in one line without a traceback."""
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"problem = cook\n\xff\n")
    mesh_path = tmp_path / "mesh.txt"
    write_mesh(cook_mesh(), str(mesh_path))
    mesh_path.write_bytes(mesh_path.read_bytes() + b"\xff\n")
    cfg_path = write_config(
        tmp_path, f"mesh_file = {mesh_path}\noutput_dir = {tmp_path / 'out'}\n"
    )
    for argv, code, kind in (
        (["run", str(bad_cfg)], 2, "config"),
        (["verify", str(bad_cfg)], 2, "config"),
        (["mesh-info", str(mesh_path)], 4, "io"),
        (["run", cfg_path], 4, "io"),
        (["verify", cfg_path], 4, "io"),
    ):
        proc = _cli(*argv)
        assert proc.returncode == code, (argv, proc.stderr)
        assert proc.stderr.startswith(f"error: {kind}: "), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1, argv


@pytest.mark.parametrize(
    "vertex, axis", [(1, 0), (0, 1)], ids=["x-of-vertex-1", "y-of-vertex-0"]
)
def test_exit_code_sliver_mesh_file(tmp_path, capsys, vertex, axis):
    """One coordinate of the 2x2 unit-square mesh moved to -8.36e15: every
    area stays positive, but some triangles are degenerate to rounding."""
    mesh = unit_square_mesh(2)
    mesh.vertices[vertex, axis] = -8.36e15
    mesh_path = tmp_path / "sliver.txt"
    write_mesh(mesh, str(mesh_path))
    assert main(["mesh-info", str(mesh_path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: io:") and "degenerate to rounding" in err
    cfg_path = write_config(
        tmp_path,
        f"problem = manufactured-smooth\nmesh_file = {mesh_path}\n"
        f"output_dir = {tmp_path / 'out'}\n",
    )
    assert main(["run", cfg_path]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "degenerate to rounding" in err


def test_exit_code_cyclic_refinement_edges(tmp_path, capsys):
    """Refinement edges that form a cycle around the centre vertex admit no
    bisection closure: the refinement budget runs out on the first step,
    whether the step marks by the estimator or marks every element."""
    mesh_path = tmp_path / "cyclic.txt"
    mesh_path.write_text(CYCLIC_MESH_TEXT)
    for mode in ("adaptive", "uniform"):
        cfg_path = write_config(
            tmp_path,
            f"problem = manufactured-smooth\nsteps = 3\nmode = {mode}\n"
            f"mesh_file = {mesh_path}\noutput_dir = {tmp_path / 'out'}\n",
        )
        assert main(["run", cfg_path]) == 3
        assert capsys.readouterr().err == (
            "error: problem: step 0: bisection closure did not terminate; "
            "inconsistent refinement-edge labels\n"
        )


_SMOOTH = "problem = manufactured-smooth\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_SMOOTH + "C_K = 1e200\nC_A = 1.0\n", "bound is not finite"),  # C_K**2
        (_SMOOTH + "C_K = 2.0\nC_A = 9.8e307\n", "bound is not finite"),  # C_A**2
        # (2 mu / lambda + 2)**2 overflows; the Cook stress does not grow with mu
        ("problem = cook\nmu = 1e160\ninv_lambda = 1e-3\n", "bound is not finite"),
        # the stress norm overflows, and with it the scale of every gate
        (_SMOOTH + "mu = 1e155\ninv_lambda = 1e-3\n", "scale is not finite"),
    ],
    ids=["korn", "dev_div", "material", "stress"],
)
def test_exit_code_bound_not_finite(tmp_path, capsys, text, message):
    cfg_path = write_config(tmp_path, f"{text}output_dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg_path]) == 1
    assert message in capsys.readouterr().err


def test_exit_code_scale_not_finite(tmp_path, capsys):
    """An infinite scale would let every ``<= 1e-9 * scale`` gate pass."""
    cfg_path = write_config(
        tmp_path,
        f"{_SMOOTH}mu = 1e155\ninv_lambda = 1e-3\noutput_dir = {tmp_path / 'out'}\n",
    )
    for command in ("verify", "run"):
        assert main([command, cfg_path]) == 1
        out, err = capsys.readouterr()
        assert "(ok)" not in out
        assert err.startswith("error: solver:") and "scale is not finite" in err


def test_exit_code_non_finite_config(tmp_path, capsys):
    for text in ("mu = nan\n", "inv_lambda = nan\n"):
        cfg_path = write_config(tmp_path, text)
        assert main(["run", cfg_path]) == 2
        assert "not finite" in capsys.readouterr().err


# -- exit-code fuzzing ----------------------------------------------------------

_EXIT_CODES = (0, 1, 2, 3, 4)
_FUZZ_TEXT = st.text(st.characters(codec="ascii"), max_size=8)
_FUZZ_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Random values of the type each key takes, in or out of its valid range;
# "steps" stays at most 2 so that each run is short.
_FUZZ_VALID = {
    "problem": st.sampled_from(["cook", "manufactured-smooth", "square-lshape"]),
    "k": st.sampled_from(["1", "2"]),
    "mu": _FUZZ_POSITIVE.map(repr),
    "inv_lambda": st.floats(min_value=0.0, allow_infinity=False).map(repr),
    "theta": st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    "steps": st.sampled_from(["1", "2"]),
    "estimator": st.sampled_from(["equilibrated", "residual"]),
    "mode": st.sampled_from(["adaptive", "uniform"]),
    "C_K": _FUZZ_POSITIVE.map(repr),
    "C_A": _FUZZ_POSITIVE.map(repr),
    "save_mesh": st.sampled_from(["true", "false"]),
    "mesh_file": st.sampled_from(["@mesh", "@missing", "@dir"]),
    "max_dofs": st.integers(1, 10**4).map(str),
}
_FUZZ_MALFORMED = st.floats().map(repr) | st.integers(-3, 3).map(str) | _FUZZ_TEXT
_FUZZ_MALFORMED_STEPS = st.sampled_from(["0", "-1", "2.0", "two", ""])


@st.composite
def _fuzz_config(draw):
    """A random subset of the known keys with random values; in half of the
    configs one of them is replaced by a malformed value."""
    values = draw(st.fixed_dictionaries({}, optional=_FUZZ_VALID))
    if values and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(values)))
        bad = _FUZZ_MALFORMED_STEPS if key == "steps" else _FUZZ_MALFORMED
        values[key] = draw(bad)
    return values


_FUZZ_TOKEN = (
    st.integers(-2, 12).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "x", "1e400", "-0", "2.5"])
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_mesh(unit_square_mesh(2), str(path / "base.txt"))
    return path


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=_fuzz_config(),
    output=st.sampled_from(["out", "base.txt", "/dev/null/x"]),
)
def test_fuzz_config_gives_documented_exit_code(fuzz_dir, values, output):
    """Random config text (known keys with random and malformed values) ends
    in a documented exit code and raises nothing."""
    text = (
        "\n".join(f"{key} = {value}" for key, value in values.items())
        .replace("@mesh", str(fuzz_dir / "base.txt"))
        .replace("@missing", str(fuzz_dir / "absent.txt"))
        .replace("@dir", str(fuzz_dir))
    )
    cfg_path = fuzz_dir / "fuzz.cfg"
    out = output if output.startswith("/") else fuzz_dir / output
    cfg_path.write_text(f"{text}\noutput_dir = {out}\n")
    assert main(["run", str(cfg_path)]) in _EXIT_CODES


@st.composite
def _mutated_mesh_text(draw, base_lines):
    """A small valid mesh file with its header fields permuted, some tokens
    replaced and some lines dropped."""
    lines = list(base_lines)
    header = lines[0].split(" / ")
    lines[0] = " / ".join(draw(st.permutations(header)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        if tokens:  # an earlier replacement may have emptied the line
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_FUZZ_TOKEN)
            lines[i] = " ".join(tokens)
    drop = draw(st.sets(st.integers(0, len(lines) - 1), max_size=2))
    return "\n".join(ln for i, ln in enumerate(lines) if i not in drop) + "\n"


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzz_mesh_file_gives_documented_exit_code(fuzz_dir, data):
    """Random mutations of a mesh file end in a documented exit code, both
    in ``mesh-info`` and as the mesh of a run, and raise nothing."""
    base_lines = (fuzz_dir / "base.txt").read_text().splitlines()
    mesh_path = fuzz_dir / "mutated.txt"
    mesh_path.write_text(data.draw(_mutated_mesh_text(base_lines)))
    assert main(["mesh-info", str(mesh_path)]) in _EXIT_CODES
    cfg_path = fuzz_dir / "mutated.cfg"
    cfg_path.write_text(
        f"problem = manufactured-smooth\nsteps = 2\nmesh_file = {mesh_path}\n"
        f"output_dir = {fuzz_dir / 'out'}\n"
    )
    assert main(["run", str(cfg_path)]) in _EXIT_CODES


def test_verify_subcommand(smooth_cfg, capsys):
    cfg_path, _ = smooth_cfg
    assert main(["verify", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "max_residual" in out and "ok" in out


def test_python_dash_m_runs_the_cli(smooth_cfg, tmp_path):
    """``python -m stresseq`` returns the CLI's exit code without a
    ``RuntimeWarning`` about the package's own modules."""
    cfg_path, _ = smooth_cfg
    proc = _cli("verify", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "max_residual" in proc.stdout
    (tmp_path / "k3").mkdir()
    bad = write_config(tmp_path / "k3", "problem = cook\nk = 3\n")
    proc = _cli("verify", bad)
    assert proc.returncode == 2
    assert "config" in proc.stderr


def test_mesh_info_subcommand(tmp_path, capsys):
    mesh_path = tmp_path / "m.txt"
    write_mesh(cook_mesh(), str(mesh_path))
    assert main(["mesh-info", str(mesh_path)]) == 0
    out = capsys.readouterr().out
    assert "vertices 25" in out
    assert "triangles 32" in out
    assert "min_angle_deg" in out


def test_one_triangle_mesh_at_k2_runs_and_verifies(tmp_path):
    """``run`` and ``verify`` on a single triangle with every side on the
    displacement boundary (k = 2): its one patch chunk has no jump side.
    Both exit 0 with zero residuals, and print no traceback."""
    mesh_path = tmp_path / "triangle.txt"
    mesh_path.write_text(
        "vertices 3 / triangles 1 / sides_dirichlet 3 / sides_neumann 0\n"
        "0 0\n1 0\n0 1\n0 1 2\n0 1\n1 2\n2 0\n"
    )
    out = tmp_path / "out"
    cfg_path = write_config(
        tmp_path, f"mesh_file = {mesh_path}\nk = 2\nsteps = 1\noutput_dir = {out}\n"
    )
    proc = _cli("run", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "equilibration.txt").read_text().splitlines()[-1] == "max_residual 0"
    proc = _cli("verify", cfg_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "max_residual 0 (ok)" in proc.stdout


def test_a_run_does_not_load_scipy_special(tmp_path):
    """Neither importing the CLI nor a whole run loads scipy.special: the
    quadrature builds its Gauss-Jacobi rule from NumPy and scipy.linalg."""
    cfg_path = write_config(
        tmp_path, f"problem = cook\nsteps = 1\noutput_dir = {tmp_path / 'out'}\n"
    )
    code = (
        "import sys\n"
        "from stresseq import harness\n"
        f"assert harness.main(['run', {cfg_path!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'special']))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
