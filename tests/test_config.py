import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralbranch import (
    ConfigError,
    ContourSpec,
    FamilySpec,
    HolderSpec,
    ResolventSpec,
    RunConfig,
    parse_config,
    run,
    serialize_config,
)
from spectralbranch.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TRACK = """
[run]
command = track
t_range = -1.0, 1.0

[family]
name = expr
dim = 2
row0 = 0, t
row1 = t, 0
"""


def test_parse_track_defaults():
    cfg = parse_config(TRACK)
    assert cfg.command == "track"
    assert cfg.t_range == (-1.0, 1.0)
    assert cfg.grid_size == 101
    assert cfg.order == 1
    assert cfg.seed == 0
    assert cfg.family.name == "expr"
    assert cfg.family.rows == (("0", "t"), ("t", "0"))
    assert cfg.output_name() == "branches.csv"


def test_comments_and_blank_lines():
    cfg = parse_config("# leading comment\n\n" + TRACK + "\n# trailing\n")
    assert cfg.command == "track"


def test_unknown_section_line_number():
    with pytest.raises(ConfigError, match="line 1.*unknown section"):
        parse_config("[shenanigans]\n")


def test_unknown_key_line_number():
    text = "[run]\ncommand = track\nt_range = 0, 1\nwavelength = 7\n"
    with pytest.raises(ConfigError, match="line 4.*wavelength"):
        parse_config(text)


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[run]\ncommand = track\ncommand = track\n")


def test_duplicate_section():
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config("[run]\ncommand = counterexample-holder\n[holder]\nalpha = 0.5\n[holder]\n")


def test_key_outside_section():
    with pytest.raises(ConfigError, match="outside"):
        parse_config("command = track\n")


def test_missing_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config("[run]\nseed = 3\n")


def test_unknown_command():
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config("[run]\ncommand = juggle\n")


def test_bad_t_range_order():
    with pytest.raises(ConfigError, match="t_range"):
        parse_config("[run]\ncommand = track\nt_range = 1.0, -1.0\n[family]\nname = curve-lemma\n")


def test_track_requires_family():
    with pytest.raises(ConfigError, match="family"):
        parse_config("[run]\ncommand = track\nt_range = 0, 1\n")


def test_project_requires_contour_and_t():
    base = "[run]\ncommand = project\n[family]\nname = resolvent-example\n"
    with pytest.raises(ConfigError):
        parse_config(base)
    with pytest.raises(ConfigError):
        parse_config(base.replace("command = project", "command = project\nt = 0.5"))


def test_expr_family_needs_all_rows():
    text = "[run]\ncommand = track\nt_range = 0, 1\n[family]\nname = expr\ndim = 2\nrow0 = 0, t\n"
    with pytest.raises(ConfigError, match="row1"):
        parse_config(text)


def test_expr_family_row_width():
    text = "[run]\ncommand = track\nt_range = 0, 1\n[family]\nname = expr\ndim = 2\nrow0 = 0, t, 1\nrow1 = t, 0\n"
    with pytest.raises(ConfigError, match="row0"):
        parse_config(text)


def test_expr_row_on_builtin_family_rejected():
    text = "[run]\ncommand = track\nt_range = 0, 1\n[family]\nname = curve-lemma\nrow0 = 1\n"
    with pytest.raises(ConfigError, match="expr"):
        parse_config(text)


def test_bad_grid_size():
    with pytest.raises(ConfigError, match="grid_size"):
        parse_config(TRACK.replace("t_range = -1.0, 1.0", "t_range = -1.0, 1.0\ngrid_size = 1"))


def test_bad_order():
    with pytest.raises(ConfigError, match="order"):
        parse_config(TRACK.replace("t_range = -1.0, 1.0", "t_range = -1.0, 1.0\norder = 3"))


def test_tolerance_overrides_flow_into_tolerances():
    text = TRACK + "\n[tolerances]\ncluster_tol = 1e-4\nmax_nodes = 256\n"
    cfg = parse_config(text)
    tol = cfg.tolerances()
    assert tol.cluster_tol == 1e-4
    assert tol.max_nodes == 256
    assert isinstance(tol.max_nodes, int)


def test_unknown_tolerance_rejected():
    with pytest.raises(ConfigError, match="fudge"):
        parse_config(TRACK + "\n[tolerances]\nfudge = 1e-3\n")


@pytest.mark.parametrize("key", ["solve_tol", "deriv_tol"])
def test_removed_tolerance_keys_rejected(key, tmp_path, capsys):
    # [tolerances] accepts exactly the Tolerances fields
    text = TRACK + f"\n[tolerances]\n{key} = 1e-6\n"
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


PROJECT = """
[run]
command = project
t = 0.0

[family]
name = expr
dim = 2
row0 = 1, 0
row1 = 0, 2

[contour]
center = 1.0
radius = 0.5
"""


@pytest.mark.parametrize("text, line", [
    (PROJECT.replace("radius = 0.5", "radius = inf"), 14),
    (PROJECT + "\n[tolerances]\ncluster_tol = nan\n", 17),
    (TRACK.replace("t_range = -1.0, 1.0", "t_range = 0, inf"), 4),
    (PROJECT.replace("t = 0.0", "t = nan"), 4),
], ids=["radius-inf", "cluster_tol-nan", "t_range-inf", "t-nan"])
def test_non_finite_number_rejected(text, line, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"line {line}: .*finite"):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_resolvent_n_max_below_two_rejected(tmp_path, capsys):
    text = "[run]\ncommand = counterexample-resolvent\n[resolvent]\nm = 20\nn_max = 1\n"
    with pytest.raises(ConfigError, match="line 5: .*n_max"):
        parse_config(text)
    cfg = RunConfig(command="counterexample-resolvent", resolvent=ResolventSpec(m=20, n_max=1))
    assert run(cfg, out_dir=str(tmp_path)) == 2
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    ResolventSpec(small_t_count=0), ResolventSpec(m=3, k_fixed=5), ResolventSpec(m=0),
], ids=["small_t_count-0", "m-below-k_fixed", "m-0"])
def test_run_rejects_invalid_resolvent_spec(spec, tmp_path, capsys):
    # a RunConfig built without parse_config gets the same checks
    cfg = RunConfig(command="counterexample-resolvent", resolvent=spec)
    assert run(cfg, out_dir=str(tmp_path)) == 2
    assert "config error: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="positive"):
        parse_config(TRACK + "\n[tolerances]\ncluster_tol = -1\n")


def test_holder_section():
    cfg = parse_config("[run]\ncommand = counterexample-holder\n[holder]\nn_values = 3, 4\nalpha = 0.5\n")
    assert cfg.holder == HolderSpec(n_values=(3, 4), alpha=0.5)


def test_holder_bad_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("[run]\ncommand = counterexample-holder\n[holder]\nalpha = 2.0\n")


def test_resolvent_section():
    cfg = parse_config("[run]\ncommand = counterexample-resolvent\n[resolvent]\nm = 50\nk_fixed = 3\n")
    assert cfg.resolvent == ResolventSpec(m=50, n_max=50, k_fixed=3, small_t_count=12)


def test_extend_requires_given():
    text = "[run]\ncommand = extend\nt_range = 0, 1\n[family]\nname = curve-lemma\n"
    with pytest.raises(ConfigError, match="given"):
        parse_config(text)


def test_schrodinger_family_name_enforced():
    text = "[run]\ncommand = schrodinger\nt_range = 0, 1\n[family]\nname = curve-lemma\n"
    with pytest.raises(ConfigError, match="schrodinger"):
        parse_config(text)


def test_output_name_default_per_command():
    assert RunConfig(command="project").output_name() == "cluster.csv"
    assert RunConfig(command="extend").output_name() == "extension.csv"
    assert RunConfig(command="track", output="x.csv").output_name() == "x.csv"


def test_serialize_round_trip_track():
    cfg = parse_config(TRACK)
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_round_trip_full():
    cfg = RunConfig(
        command="project",
        family=FamilySpec(name="expr", dim=2, rows=(("1", "t/2"), ("t/2", "2"))),
        t=0.25,
        seed=7,
        output="out.csv",
        contour=ContourSpec(center=1.5, radius=1.25, nodes=128),
        tolerance_overrides=(("max_nodes", 512.0), ("proj_tol", 1e-9)),
    )
    assert parse_config(serialize_config(cfg)) == cfg


_family_specs = st.one_of(
    st.just(FamilySpec(name="curve-lemma", n_max=10)),
    st.just(FamilySpec(name="resolvent-example", m=30)),
    st.builds(
        FamilySpec,
        name=st.just("schrodinger"),
        m=st.integers(3, 40),
        potential=st.sampled_from(["t*x", "sin(t)*x", "t*x^2"]),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    family=_family_specs,
    grid=st.integers(2, 500),
    order=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**31 - 1),
    t0=st.floats(-3, 0, allow_nan=False),
    span=st.floats(0.1, 3, allow_nan=False),
)
def test_round_trip_property(family, grid, order, seed, t0, span):
    command = "schrodinger" if family.name == "schrodinger" else "track"
    cfg = RunConfig(command=command, family=family, t_range=(t0, t0 + span),
                    grid_size=grid, order=order, seed=seed)
    again = parse_config(serialize_config(cfg))
    assert again == cfg, serialize_config(cfg)


def test_configs_are_frozen():
    cfg = RunConfig(command="track")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.command = "project"


_EXPR = FamilySpec(name="expr", dim=2, rows=(("0", "t"), ("t", "0")))
_TRACK = RunConfig(command="track", family=_EXPR, t_range=(-1.0, 1.0), grid_size=5)
_PROJECT = RunConfig(command="project", family=_EXPR, t=0.0,
                     contour=ContourSpec(center=1.0, radius=0.5))
_HOLDER = RunConfig(command="counterexample-holder")


@pytest.mark.parametrize("cfg, key", [
    (dataclasses.replace(_TRACK, grid_size=1), "grid_size"),
    (dataclasses.replace(_TRACK, order=3), "order"),
    (dataclasses.replace(_TRACK, t_range=(1.0, -1.0)), "t_range"),
    (dataclasses.replace(_TRACK, t_range=(0.0, math.inf)), "t_range"),
    (dataclasses.replace(_PROJECT, contour=ContourSpec(center=1.0, radius=-1.0)), "radius"),
    (dataclasses.replace(_PROJECT, contour=ContourSpec(center=1.0, radius=0.5, nodes=4)),
     "nodes"),
    (dataclasses.replace(_HOLDER, holder=HolderSpec(n_values=(1,))), "n_values"),
    (dataclasses.replace(_HOLDER, holder=HolderSpec(alpha=2.0)), "alpha"),
    (dataclasses.replace(_TRACK, tolerance_overrides=(("eig_tol", -1e-10),)), "eig_tol"),
    (dataclasses.replace(_TRACK, tolerance_overrides=(("fudge", 1e-3),)), "fudge"),
    (dataclasses.replace(_TRACK, family=FamilySpec(name="schrodinger", m=2),
                         command="schrodinger"), "m=2"),
    (dataclasses.replace(_TRACK, family=FamilySpec(name="curve-lemma", n_max=1)), "n_max"),
    (dataclasses.replace(_TRACK, family=FamilySpec(name="resolvent-example", m=0)),
     "m must be positive"),
    (dataclasses.replace(_TRACK, family=FamilySpec(name="curve-lemma", m=5)), "key 'm'"),
], ids=["grid_size-1", "order-3", "t_range-reversed", "t_range-inf", "radius-negative",
        "nodes-4", "n_values-1", "alpha-2", "tolerance-negative", "tolerance-unknown",
        "schrodinger-m-2", "curve-lemma-n_max-1", "resolvent-example-m-0",
        "curve-lemma-reads-no-m"])
def test_run_refuses_invalid_code_built_config(cfg, key, tmp_path, capsys):
    # one check for configs read from text and built in code: exit 2, the
    # key named, nothing written
    assert run(cfg, out_dir=str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("text, line, key", [
    (TRACK.replace("name = expr", "name = curve-lemma\nm = 5")
     .replace("dim = 2\nrow0 = 0, t\nrow1 = t, 0\n", ""), 8, "key 'm'"),
    (TRACK + "row3 = 1, 1\n", 11, "row3"),
    (TRACK.replace("t_range = -1.0, 1.0", "t_range = -1e308, 1e308"), 4, "t_range"),
    (TRACK.replace("command = track", "command = track\nseed = -1"), 4, "seed"),
    (TRACK.replace("command = track", "command = track\noutput = sub/x.csv"), 4, "output"),
    ("[run]\ncommand = schrodinger\nt_range = 0, 1\n", 2, "[family]"),
    ("[run]\ncommand = extend\nt_range = 0, 1\n[family]\nname = curve-lemma\n[extend]\n",
     2, "given"),
    ("[run]\ncommand = counterexample-resolvent\n[resolvent]\nn_max = 20\nm = 0\n", 5, "m = 0"),
], ids=["family-reads-no-m", "row-gap", "t_range-span", "seed-negative", "output-path",
        "schrodinger-needs-family", "extend-empty-section", "resolvent-m-0"])
def test_parse_rule_line_numbers(text, line, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=f"^line {line}: "):
        parse_config(text)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (TRACK.replace("row0 = 0, t", "row0 = 0, t +"),
     "line 9: 'row0' entry 't +': unexpected end of input (position 3)"),
    (TRACK.replace("row1 = t, 0", "row1 = t, "),
     "line 10: 'row1' entry '': empty expression (position 0)"),
    ("[run]\ncommand = schrodinger\nt_range = 0, 1\n[family]\nname = schrodinger\n"
     "m = 20\npotential = t*y\n",
     "line 7: 'potential' 't*y': unknown identifier 'y' (position 2)"),
], ids=["row-truncated", "row-empty-entry", "potential-unknown-name"])
def test_expression_errors_name_key_and_line(text, message, tmp_path, capsys):
    # an entry that does not parse is refused where it is written, before
    # the run creates its output directory
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_configs_round_trip(path):
    cfg = parse_config(path.read_text())
    assert parse_config(serialize_config(cfg)) == cfg
