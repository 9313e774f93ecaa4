"""Tolerance settings and run configuration.

The config file format is line oriented: ``[section]`` headers, ``key = value``
pairs, ``#`` comments, blank lines.  Arrays are comma separated, strings are
unquoted.  Unknown sections or keys are hard errors, as are duplicate keys;
every parse error is annotated with the offending line.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass

from .errors import ConfigError, ExpressionError
from .expressions import parse_expression


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    All values are positive.  Relative scalings (what a tolerance is measured
    against) are documented where each tolerance is consumed.
    """

    hermitian_tol: float = 1e-10
    eig_tol: float = 1e-10
    pivot_floor: float = 1e-13
    proj_tol: float = 1e-10
    separation_margin: float = 0.1
    imag_tol: float = 1e-8
    recover_tol: float = 1e-7
    cluster_tol: float = 1e-6
    deriv_tie_tol: float = 1e-5
    h_fd: float = 1e-5
    h_fd2: float = 1e-4
    jump_floor: float = 0.9
    max_nodes: int = 1024

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = Tolerances()

_TOLERANCE_FIELDS = {f.name: f.type for f in dataclasses.fields(Tolerances)}

# command -> (default output file, the RunConfig fields it requires)
COMMANDS = {
    "track": ("branches.csv", ("family", "t_range")),
    "project": ("cluster.csv", ("family", "t", "contour")),
    "counterexample-holder": ("holder.csv", ()),
    "counterexample-resolvent": ("resolvent.csv", ()),
    "schrodinger": ("branches.csv", ("family", "t_range")),
    "extend": ("extension.csv", ("family", "t_range", "given")),
}

_WHERE = {
    "family": "a [family] section",
    "t_range": "t_range in [run]",
    "t": "t in [run]",
    "contour": "a [contour] section",
    "given": "an [extend] section with 'given'",
}

# family name -> the FamilySpec fields it reads (``rows`` are the row<k> keys)
_FAMILY_KEYS = {
    "curve-lemma": ("n_max",),
    "resolvent-example": ("m",),
    "schrodinger": ("m", "potential"),
    "expr": ("dim", "rows"),
}


@dataclass(frozen=True)
class FamilySpec:
    """Declarative family selection from a config file."""

    name: str
    n_max: int | None = None
    m: int | None = None
    potential: str | None = None
    dim: int | None = None
    rows: tuple[tuple[str, ...], ...] | None = None


@dataclass(frozen=True)
class ContourSpec:
    center: float
    radius: float
    nodes: int = 64


@dataclass(frozen=True)
class HolderSpec:
    n_values: tuple[int, ...] = (3, 5, 6, 9)
    alpha: float = 0.25


@dataclass(frozen=True)
class ResolventSpec:
    m: int = 200
    n_max: int = 50
    k_fixed: int = 5
    small_t_count: int = 12


@dataclass(frozen=True)
class RunConfig:
    """One CLI run: a command plus everything it needs."""

    command: str
    family: FamilySpec | None = None
    t_range: tuple[float, float] | None = None
    grid_size: int = 101
    order: int = 1
    t: float | None = None
    seed: int = 0
    output: str | None = None
    contour: ContourSpec | None = None
    tolerance_overrides: tuple[tuple[str, float], ...] = ()
    holder: HolderSpec | None = None
    resolvent: ResolventSpec | None = None
    given: int | None = None

    def tolerances(self) -> Tolerances:
        kw = {}
        for name, value in self.tolerance_overrides:
            kw[name] = int(value) if name == "max_nodes" else value
        return DEFAULT_TOL.replace(**kw) if kw else DEFAULT_TOL

    def output_name(self) -> str:
        return self.output if self.output is not None else COMMANDS[self.command][0]


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_KEY_RE = re.compile(r"^[A-Za-z0-9_-]+$")

_KNOWN_KEYS = {
    "run": {"command", "seed", "output", "t_range", "grid_size", "order", "t"},
    "family": {"name", "n_max", "m", "potential", "dim"},  # plus row<k>
    "contour": {"center", "radius", "nodes"},
    "tolerances": set(_TOLERANCE_FIELDS),
    "holder": {"n_values", "alpha"},
    "resolvent": {"m", "n_max", "k_fixed", "small_t_count"},
    "extend": {"given"},
}


def _scan(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """Split config text into sections of key -> (line, raw value)."""
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key {key!r}", lineno)
        known = _KNOWN_KEYS[current]
        if key not in known and not (current == "family" and re.match(r"^row\d+$", key)):
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (lineno, value)
    return sections


def _line(section: dict | None, key: str | None = None) -> int | None:
    """Line of ``key`` in a scanned section, else the section's first line."""
    section = section or {}
    if key in section:
        return section[key][0]
    return min((ln for ln, _ in section.values()), default=None)


def _as_int(section: dict, key: str, default: int | None = None) -> int | None:
    if key not in section:
        return default
    lineno, value = section[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}", lineno)


def _finite(value: str, key: str, lineno: int) -> float:
    try:
        parsed = float(value)
    except ValueError:
        parsed = math.nan
    if not math.isfinite(parsed):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}", lineno)
    return parsed


def _as_float(section: dict, key: str, default: float | None = None) -> float | None:
    if key not in section:
        return default
    lineno, value = section[key]
    return _finite(value, key, lineno)


def _as_str(section: dict, key: str) -> str | None:
    if key not in section:
        return None
    return section[key][1]


def _as_float_pair(section: dict, key: str) -> tuple[float, float] | None:
    if key not in section:
        return None
    lineno, value = section[key]
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"key {key!r}: expected two comma-separated numbers", lineno)
    return (_finite(parts[0], key, lineno), _finite(parts[1], key, lineno))


def _as_int_list(section: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    if key not in section:
        return default
    lineno, value = section[key]
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated integer list", lineno)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integers, got {value!r}", lineno)


def _parse_family(section: dict) -> FamilySpec:
    if "name" not in section:
        raise ConfigError("[family] requires a 'name' key", _line(section))
    rows = []
    while f"row{len(rows)}" in section:
        rows.append(tuple(e.strip() for e in section[f"row{len(rows)}"][1].split(",")))
    read = {f"row{k}" for k in range(len(rows))}
    stray = [key for key in section if key.startswith("row") and key not in read]
    if stray:
        raise ConfigError(f"unexpected row key {stray[0]!r}: rows are numbered row0, row1, "
                          f"... with no gap", section[stray[0]][0])
    return FamilySpec(
        name=section["name"][1],
        n_max=_as_int(section, "n_max"),
        m=_as_int(section, "m"),
        potential=_as_str(section, "potential"),
        dim=_as_int(section, "dim"),
        rows=tuple(rows) if rows else None,
    )


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Reading checks syntax and types; the values pass ``_check_config``, the
    same check ``run`` applies to a RunConfig built in code.  Raises
    ConfigError, with a line number where one applies.
    """
    sections = _scan(text)
    run = sections.get("run")
    if run is None or "command" not in run:
        raise ConfigError("config requires a [run] section with a 'command' key")

    contour = None
    if "contour" in sections:
        csec = sections["contour"]
        center, radius = _as_float(csec, "center"), _as_float(csec, "radius")
        if center is None or radius is None:
            raise ConfigError("[contour] requires 'center' and 'radius'", _line(csec))
        contour = ContourSpec(center=center, radius=radius, nodes=_as_int(csec, "nodes", 64))

    tsec = sections.get("tolerances", {})
    overrides = tuple(sorted(
        (key, float(_as_int(tsec, key) if key == "max_nodes" else _as_float(tsec, key)))
        for key in tsec))

    holder = None
    if "holder" in sections:
        hsec = sections["holder"]
        holder = HolderSpec(n_values=_as_int_list(hsec, "n_values", HolderSpec.n_values),
                            alpha=_as_float(hsec, "alpha", HolderSpec.alpha))

    rsec = sections.get("resolvent")
    resolvent = None if rsec is None else ResolventSpec(**{k: _as_int(rsec, k) for k in rsec})

    cfg = RunConfig(
        command=run["command"][1],
        family=_parse_family(sections["family"]) if "family" in sections else None,
        t_range=_as_float_pair(run, "t_range"),
        grid_size=_as_int(run, "grid_size", 101),
        order=_as_int(run, "order", 1),
        t=_as_float(run, "t"),
        seed=_as_int(run, "seed", 0),
        output=_as_str(run, "output"),
        contour=contour,
        tolerance_overrides=overrides,
        holder=holder,
        resolvent=resolvent,
        given=_as_int(sections.get("extend", {}), "given"),
    )
    _check_config(cfg, sections)
    return cfg


def _check_config(cfg: RunConfig, sections: dict | None = None) -> None:
    """Raise ConfigError for the first value of ``cfg`` that no run accepts.

    The one home of the value rules: ``parse_config`` applies it to what it
    read and ``run`` to every config, however it was built.  ``sections``
    are the scanned sections when ``cfg`` came from text; they supply the
    line numbers.
    """
    sections = sections or {}

    def fail(message: str, section: str = "run", key: str = "command"):
        raise ConfigError(message, _line(sections.get(section), key))

    def parses(src: str, variables: tuple[str, ...], what: str, key: str):
        try:
            parse_expression(src, variables)
        except ExpressionError as exc:
            fail(f"{what} {src!r}: {exc}", "family", key)

    if cfg.command not in COMMANDS:
        fail(f"unknown command {cfg.command!r} (expected one of {', '.join(COMMANDS)})")
    for field in COMMANDS[cfg.command][1]:
        if getattr(cfg, field) is None:
            fail(f"command {cfg.command!r} requires {_WHERE[field]}")
    if cfg.command == "schrodinger" and cfg.family.name != "schrodinger":
        fail("command 'schrodinger' requires family name 'schrodinger'")

    if cfg.t_range is not None:
        t0, t1 = cfg.t_range
        if not (t0 < t1 and math.isfinite(t1 - t0)):
            fail(f"t_range must satisfy t0 < t1 with a finite span, got {t0!r}, {t1!r}",
                 "run", "t_range")
    if cfg.grid_size < 2:
        fail("grid_size must be at least 2", "run", "grid_size")
    if cfg.order not in (1, 2):
        fail("order must be 1 or 2", "run", "order")
    if cfg.t is not None and not math.isfinite(cfg.t):
        fail(f"t must be finite, got {cfg.t!r}", "run", "t")
    if cfg.seed < 0:
        fail(f"seed must be >= 0, got {cfg.seed}", "run", "seed")
    if cfg.output is not None and (cfg.output in ("", ".", "..")
                                   or os.path.basename(cfg.output) != cfg.output):
        fail(f"output must be a file name, got {cfg.output!r}", "run", "output")

    fam = cfg.family
    if fam is not None:
        if fam.name not in _FAMILY_KEYS:
            fail(f"unknown family {fam.name!r} (expected one of {', '.join(_FAMILY_KEYS)})",
                 "family", "name")
        for field in ("n_max", "m", "potential", "dim", "rows"):
            if getattr(fam, field) is not None and field not in _FAMILY_KEYS[fam.name]:
                key = "row0" if field == "rows" else field
                readers = ", ".join(n for n, keys in _FAMILY_KEYS.items() if field in keys)
                fail(f"family {fam.name!r} does not read key {key!r} (read by: {readers})",
                     "family", key)
        if fam.name == "expr":
            rows = fam.rows or ()
            if fam.dim is None or fam.dim < 1:
                fail("expr family requires dim >= 1", "family", "name")
            if len(rows) < fam.dim:
                fail(f"expr family with dim={fam.dim} is missing 'row{len(rows)}'",
                     "family", "name")
            for k, row in enumerate(rows):
                if k >= fam.dim:
                    fail(f"unexpected row key 'row{k}' for dim={fam.dim}", "family", f"row{k}")
                if len(row) != fam.dim:
                    fail(f"'row{k}' must have {fam.dim} comma-separated entries",
                         "family", f"row{k}")
                for src in row:
                    parses(src, ("t",), f"'row{k}' entry", f"row{k}")
        if isinstance(fam.potential, str):  # run() also takes a callable, as the gallery does
            parses(fam.potential, ("t", "x"), "'potential'", "potential")

    c = cfg.contour
    if c is not None:
        if not math.isfinite(c.center):
            fail(f"contour center must be finite, got {c.center!r}", "contour", "center")
        if not 0 < c.radius < math.inf:
            fail("contour radius must be positive and finite", "contour", "radius")
        if c.nodes < 8:
            fail("contour nodes must be at least 8", "contour", "nodes")

    for name, value in cfg.tolerance_overrides:
        if name not in _TOLERANCE_FIELDS:
            fail(f"unknown tolerance {name!r}", "tolerances", name)
        if not 0 < value < math.inf:
            fail(f"tolerance {name!r} must be positive and finite, got {value!r}",
                 "tolerances", name)

    h = cfg.holder
    if h is not None:
        if not h.n_values or min(h.n_values) < 2:
            fail("holder n_values must be a non-empty list, all >= 2", "holder", "n_values")
        if not 0 < h.alpha <= 1:
            fail("holder alpha must lie in (0, 1]", "holder", "alpha")

    r = cfg.resolvent
    if r is not None:
        values = dataclasses.asdict(r)
        bad = [key for key, value in values.items() if value < 1]
        if bad:
            fail(f"[resolvent] values must be positive, got {bad[0]} = {values[bad[0]]}",
                 "resolvent", bad[0])
        if r.n_max < 2:
            fail(f"resolvent n_max must be >= 2, got {r.n_max}", "resolvent", "n_max")
        if r.m < r.k_fixed:
            fail(f"resolvent m must be >= k_fixed, got m = {r.m}, k_fixed = {r.k_fixed}",
                 "resolvent", "m")

    if cfg.given is not None and cfg.given < 0:
        fail("[extend] requires given >= 0", "extend", "given")


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to config text; parse_config round-trips it."""
    lines = ["[run]", f"command = {cfg.command}", f"seed = {cfg.seed}"]
    lines.append(f"grid_size = {cfg.grid_size}")
    lines.append(f"order = {cfg.order}")
    if cfg.t_range is not None:
        lines.append(f"t_range = {cfg.t_range[0]!r}, {cfg.t_range[1]!r}")
    if cfg.t is not None:
        lines.append(f"t = {cfg.t!r}")
    if cfg.output is not None:
        lines.append(f"output = {cfg.output}")
    if cfg.family is not None:
        f = cfg.family
        lines += ["", "[family]", f"name = {f.name}"]
        if f.n_max is not None:
            lines.append(f"n_max = {f.n_max}")
        if f.m is not None:
            lines.append(f"m = {f.m}")
        if f.potential is not None:
            lines.append(f"potential = {f.potential}")
        if f.dim is not None:
            lines.append(f"dim = {f.dim}")
        if f.rows is not None:
            for k, row in enumerate(f.rows):
                lines.append(f"row{k} = " + ", ".join(row))
    if cfg.contour is not None:
        lines += [
            "",
            "[contour]",
            f"center = {cfg.contour.center!r}",
            f"radius = {cfg.contour.radius!r}",
            f"nodes = {cfg.contour.nodes}",
        ]
    if cfg.tolerance_overrides:
        lines += ["", "[tolerances]"]
        for name, value in cfg.tolerance_overrides:
            rendered = int(value) if name == "max_nodes" else repr(value)
            lines.append(f"{name} = {rendered}")
    if cfg.holder is not None:
        lines += [
            "",
            "[holder]",
            "n_values = " + ", ".join(str(n) for n in cfg.holder.n_values),
            f"alpha = {cfg.holder.alpha!r}",
        ]
    if cfg.resolvent is not None:
        r = cfg.resolvent
        lines += [
            "",
            "[resolvent]",
            f"m = {r.m}",
            f"n_max = {r.n_max}",
            f"k_fixed = {r.k_fixed}",
            f"small_t_count = {r.small_t_count}",
        ]
    if cfg.given is not None:
        lines += ["", "[extend]", f"given = {cfg.given}"]
    return "\n".join(lines) + "\n"
