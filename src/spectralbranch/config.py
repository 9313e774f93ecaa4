"""Tolerance settings and run configuration.

The config file format is line oriented: ``[section]`` headers, ``key = value``
pairs, ``#`` comments, blank lines.  Arrays are comma separated, strings are
unquoted.  Unknown sections or keys are hard errors, as are duplicate keys;
every parse error is annotated with the offending line.
"""
from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

from .errors import ConfigError


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

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise ValueError(f"tolerance {f.name} must be positive, got {value!r}")


DEFAULT_TOL = Tolerances()

_TOLERANCE_FIELDS = {f.name: f.type for f in dataclasses.fields(Tolerances)}

COMMANDS = (
    "track",
    "project",
    "counterexample-holder",
    "counterexample-resolvent",
    "schrodinger",
    "extend",
)

FAMILY_NAMES = ("curve-lemma", "resolvent-example", "schrodinger", "expr")


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
        tol = DEFAULT_TOL.replace(**kw) if kw else DEFAULT_TOL
        tol.validate()
        return tol

    def output_name(self) -> str:
        if self.output is not None:
            return self.output
        return {
            "track": "branches.csv",
            "project": "cluster.csv",
            "counterexample-holder": "holder.csv",
            "counterexample-resolvent": "resolvent.csv",
            "schrodinger": "branches.csv",
            "extend": "extension.csv",
        }[self.command]


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


def _as_int(section: dict, key: str) -> int | None:
    if key not in section:
        return None
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


def _as_float(section: dict, key: str) -> float | None:
    if key not in section:
        return None
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


def _as_int_list(section: dict, key: str) -> tuple[int, ...] | None:
    if key not in section:
        return None
    lineno, value = section[key]
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated integer list", lineno)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integers, got {value!r}", lineno)


def _parse_family(section: dict) -> FamilySpec:
    name = _as_str(section, "name")
    if name is None:
        lineno = min(ln for ln, _ in section.values()) if section else None
        raise ConfigError("[family] requires a 'name' key", lineno)
    if name not in FAMILY_NAMES:
        raise ConfigError(
            f"unknown family {name!r} (expected one of {', '.join(FAMILY_NAMES)})",
            section["name"][0],
        )
    rows = None
    if name == "expr":
        dim = _as_int(section, "dim")
        if dim is None or dim < 1:
            raise ConfigError("expr family requires dim >= 1", section["name"][0])
        collected = []
        for k in range(dim):
            key = f"row{k}"
            if key not in section:
                raise ConfigError(f"expr family with dim={dim} is missing {key!r}", section["name"][0])
            lineno, value = section[key]
            entries = tuple(e.strip() for e in value.split(","))
            if len(entries) != dim:
                raise ConfigError(f"{key!r} must have {dim} comma-separated entries", lineno)
            collected.append(entries)
        extra = [k for k in section if re.match(r"^row\d+$", k) and int(k[3:]) >= dim]
        if extra:
            raise ConfigError(f"unexpected row key {extra[0]!r} for dim={dim}", section[extra[0]][0])
        rows = tuple(collected)
    else:
        for k in section:
            if re.match(r"^row\d+$", k) or k == "dim":
                raise ConfigError(f"key {k!r} only applies to the expr family", section[k][0])
    return FamilySpec(
        name=name,
        n_max=_as_int(section, "n_max"),
        m=_as_int(section, "m"),
        potential=_as_str(section, "potential"),
        dim=_as_int(section, "dim"),
        rows=rows,
    )


def _check_resolvent(spec: ResolventSpec, section: dict | None = None) -> None:
    """Raise ConfigError for the first invalid value of ``spec``.

    ``section`` is the parsed ``[resolvent]`` section when the spec came from
    a file; it supplies the line numbers.
    """
    lines = section or {}

    def fail(message: str, key: str | None = None):
        line = lines[key][0] if key in lines else min((ln for ln, _ in lines.values()), default=None)
        raise ConfigError(message, line)

    values = dataclasses.asdict(spec)
    bad = [key for key, value in values.items() if value < 1]
    if bad:
        fail(f"[resolvent] values must be positive, got {bad[0]} = {values[bad[0]]}")
    if spec.n_max < 2:
        fail(f"resolvent n_max must be >= 2, got {spec.n_max}", "n_max")
    if spec.m < spec.k_fixed:
        fail(f"resolvent m must be >= k_fixed, got m = {spec.m}, k_fixed = {spec.k_fixed}")


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Raises ConfigError (with a line number where one applies) on any syntax
    problem, unknown or duplicate key, or failed semantic validation.
    """
    sections = _scan(text)
    run = sections.get("run")
    if run is None or "command" not in run:
        raise ConfigError("config requires a [run] section with a 'command' key")
    cmd_line, command = run["command"]
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r} (expected one of {', '.join(COMMANDS)})", cmd_line
        )

    t_range = _as_float_pair(run, "t_range")
    if t_range is not None and not t_range[0] < t_range[1]:
        raise ConfigError(
            f"t_range must satisfy t0 < t1, got {t_range[0]!r}, {t_range[1]!r}",
            run["t_range"][0],
        )
    grid_size = _as_int(run, "grid_size")
    if grid_size is None:
        grid_size = 101
    elif grid_size < 2:
        raise ConfigError("grid_size must be at least 2", run["grid_size"][0])
    order = _as_int(run, "order")
    if order is None:
        order = 1
    elif order not in (1, 2):
        raise ConfigError("order must be 1 or 2", run["order"][0])
    seed = _as_int(run, "seed")
    if seed is None:
        seed = 0

    family = _parse_family(sections["family"]) if "family" in sections else None

    contour = None
    if "contour" in sections:
        csec = sections["contour"]
        center = _as_float(csec, "center")
        radius = _as_float(csec, "radius")
        if center is None or radius is None:
            lineno = min(ln for ln, _ in csec.values()) if csec else None
            raise ConfigError("[contour] requires 'center' and 'radius'", lineno)
        if radius <= 0:
            raise ConfigError("contour radius must be positive", csec["radius"][0])
        nodes = _as_int(csec, "nodes")
        contour = ContourSpec(center=center, radius=radius, nodes=nodes if nodes is not None else 64)
        if contour.nodes < 8:
            raise ConfigError("contour nodes must be at least 8", csec["nodes"][0])

    overrides = []
    if "tolerances" in sections:
        tsec = sections["tolerances"]
        for key, (lineno, _) in tsec.items():
            parsed = _as_int(tsec, key) if key == "max_nodes" else _as_float(tsec, key)
            if parsed <= 0:
                raise ConfigError(f"tolerance {key!r} must be positive", lineno)
            overrides.append((key, float(parsed)))
    tolerance_overrides = tuple(sorted(overrides))

    holder = None
    if "holder" in sections:
        hsec = sections["holder"]
        n_values = _as_int_list(hsec, "n_values")
        alpha = _as_float(hsec, "alpha")
        holder = HolderSpec(
            n_values=n_values if n_values is not None else HolderSpec.n_values,
            alpha=alpha if alpha is not None else HolderSpec.alpha,
        )
        if any(n < 2 for n in holder.n_values):
            raise ConfigError("holder n_values must all be >= 2", hsec["n_values"][0])
        if not 0 < holder.alpha <= 1:
            raise ConfigError("holder alpha must lie in (0, 1]", hsec["alpha"][0])

    resolvent = None
    if "resolvent" in sections:
        rsec = sections["resolvent"]
        values = {
            key: _as_int(rsec, key) for key in ("m", "n_max", "k_fixed", "small_t_count")
        }
        resolvent = ResolventSpec(**{k: v for k, v in values.items() if v is not None})
        _check_resolvent(resolvent, rsec)

    given = None
    if "extend" in sections:
        given = _as_int(sections["extend"], "given")
        if given is None or given < 0:
            raise ConfigError("[extend] requires given >= 0", min(ln for ln, _ in sections["extend"].values()))

    cfg = RunConfig(
        command=command,
        family=family,
        t_range=t_range,
        grid_size=grid_size,
        order=order,
        t=_as_float(run, "t"),
        seed=seed,
        output=_as_str(run, "output"),
        contour=contour,
        tolerance_overrides=tolerance_overrides,
        holder=holder,
        resolvent=resolvent,
        given=given,
    )
    _validate_command(cfg, cmd_line)
    return cfg


def _validate_command(cfg: RunConfig, cmd_line: int) -> None:
    need_family = {"track", "project", "extend"}
    if cfg.command in need_family and cfg.family is None:
        raise ConfigError(f"command {cfg.command!r} requires a [family] section", cmd_line)
    need_range = {"track", "schrodinger", "extend"}
    if cfg.command in need_range and cfg.t_range is None:
        raise ConfigError(f"command {cfg.command!r} requires t_range in [run]", cmd_line)
    if cfg.command == "project":
        if cfg.t is None:
            raise ConfigError("command 'project' requires t in [run]", cmd_line)
        if cfg.contour is None:
            raise ConfigError("command 'project' requires a [contour] section", cmd_line)
    if cfg.command == "schrodinger" and cfg.family is not None and cfg.family.name != "schrodinger":
        raise ConfigError("command 'schrodinger' requires family name 'schrodinger'", cmd_line)
    if cfg.command == "extend" and cfg.given is None:
        raise ConfigError("command 'extend' requires an [extend] section with 'given'", cmd_line)


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
