"""Scenario configuration: the settings of a run, their file format and
the parameters a sweep can vary.

`ScenarioConfig` holds one frozen dataclass per layer (map, pois,
mobility, traffic, radio, routing) plus the engine's duration and tick,
and validates them. A scenario file is a plain-text key-value document,
one INI section per layer. Unknown sections or keys are rejected by name;
missing keys fall back to the built-in defaults. A handful of presets ship
with the package: the desk-scale experiment plus the four full-scale
evaluation scenarios.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass, field
from importlib import resources
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from .map_graph import PoiKind
from .mobility import MobilitySettings
from .radio import LinkModel, TimingParams
from .routing import DEFAULT_BUFFER_CAPACITY, RoutingError, router_name
from .traffic import TrafficConfig

PRESET_NAMES = ("desk", "scenario1", "scenario2", "scenario3", "scenario4")


class ConfigError(ValueError):
    """A scenario setting that no run can be made from."""


@dataclass(frozen=True)
class MapConfig:
    source: str = "synthetic"          # synthetic | file
    file: Optional[str] = None
    width: float = 500.0
    height: float = 500.0
    grid_step: float = 50.0
    edge_removal: float = 0.15
    map_seed: int = 0                  # map geometry is fixed across runs

    def validate(self) -> None:
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"map source must be synthetic or file, got {self.source!r}")
        if self.source == "file" and not self.file:
            raise ConfigError("map source 'file' needs a file path")
        if self.source == "synthetic" and min(self.width, self.height,
                                              self.grid_step) <= 0:
            raise ConfigError("synthetic map dimensions must be positive")
        if not (0 <= self.edge_removal < 1):
            raise ConfigError("edge_removal must be in [0, 1)")


@dataclass(frozen=True)
class PoiConfig:
    houses: int = 12
    offices: int = 4
    evening_spots: int = 3
    bus_stops: int = 6
    office_area: float = 10000.0
    segment_overlap: float = 0.2

    def validate(self) -> None:
        if min(self.houses, self.offices, self.evening_spots, self.bus_stops) < 0:
            raise ConfigError("POI counts must be nonnegative")
        if self.office_area <= 0:
            raise ConfigError("office_area must be positive")
        if not (0 < self.segment_overlap < 1):
            raise ConfigError("segment_overlap must be in (0, 1)")

    def counts(self) -> Dict[PoiKind, int]:
        return {PoiKind.HOUSE: self.houses, PoiKind.OFFICE: self.offices,
                PoiKind.EVENING_SPOT: self.evening_spots,
                PoiKind.BUS_STOP: self.bus_stops}


@dataclass(frozen=True)
class RadioConfig:
    timing: TimingParams = field(default_factory=TimingParams)
    link: LinkModel = field(default_factory=LinkModel)
    p_ap: float = 0.5                  # baseline AP coin after a failed scan
    client_rescan: float = 30.0        # seconds between background rescans
    switch_ratio: float = 1.25         # faster-AP hysteresis
    ap_idle_timeout: float = 60.0
    ap_max_duration: float = 600.0
    stagger: bool = True               # randomize first scan start per node

    def validate(self) -> None:
        self.timing.validate()
        self.link.validate()
        if not (0 <= self.p_ap <= 1):
            raise ConfigError("p_ap must be in [0, 1]")
        if self.client_rescan <= 0 or self.switch_ratio < 1:
            raise ConfigError("bad client rescan settings")
        if self.ap_idle_timeout <= 0 or self.ap_max_duration <= 0:
            raise ConfigError("AP retirement timers must be positive")


@dataclass(frozen=True)
class RoutingConfig:
    router: str = "epidemic"           # epidemic | snw | hrson
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY
    summary_refresh: float = 120.0     # periodic anti-entropy on long links; 0 off

    def validate(self) -> None:
        router_name(self.router)
        if self.buffer_capacity <= 0:
            raise ConfigError("buffer capacity must be positive")
        if self.summary_refresh < 0:
            raise ConfigError("summary_refresh must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    map: MapConfig = field(default_factory=MapConfig)
    pois: PoiConfig = field(default_factory=PoiConfig)
    mobility: MobilitySettings = field(default_factory=MobilitySettings)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    duration: float = 86400.0
    tick: float = 1.0

    @property
    def node_count(self) -> int:
        return sum(self.mobility.group_sizes)

    def validate(self) -> None:
        """Raise a ConfigError for the first bad setting, the layers' own
        errors included."""
        for section, key, path, _ in _KEYS:
            value = attrgetter(path)(self)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in parts):
                raise ConfigError(
                    f"[{section}] {key} must be finite, got {value!r}")
        try:
            for part in (self.map, self.pois, self.mobility, self.traffic,
                         self.radio, self.routing):
                part.validate()
        except ConfigError:
            raise
        except (ValueError, RoutingError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.tick <= 0:
            raise ConfigError("tick must be positive")
        if self.node_count < 2:
            raise ConfigError("need at least 2 nodes")


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _pair(conv) -> Callable[[str], tuple]:
    """Parser for two values separated by ',' or '-'."""
    def parse(text: str) -> tuple:
        sep = "," if "," in text else "-"
        parts = text.split(sep)
        if len(parts) != 2:
            raise ValueError(f"expected two values: {text!r}")
        return (conv(parts[0]), conv(parts[1]))
    return parse


def _parse_int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip() != "")


def _parse_optional(text: str) -> Optional[str]:
    return text or None


# Every scenario key, once: (section, key, ScenarioConfig attribute path,
# parser). Parsing, overrides, serialization and the finiteness check in
# ScenarioConfig.validate all read this table, and its order is the order
# keys are written in.
_KEYS: Tuple[Tuple[str, str, str, Callable[[str], object]], ...] = (
    ("map", "source", "map.source", str),
    ("map", "file", "map.file", _parse_optional),
    ("map", "width", "map.width", float),
    ("map", "height", "map.height", float),
    ("map", "grid_step", "map.grid_step", float),
    ("map", "edge_removal", "map.edge_removal", float),
    ("map", "map_seed", "map.map_seed", int),
    ("pois", "houses", "pois.houses", int),
    ("pois", "offices", "pois.offices", int),
    ("pois", "evening_spots", "pois.evening_spots", int),
    ("pois", "bus_stops", "pois.bus_stops", int),
    ("pois", "office_area", "pois.office_area", float),
    ("pois", "segment_overlap", "pois.segment_overlap", float),
    ("mobility", "groups", "mobility.group_sizes", _parse_int_list),
    ("mobility", "own_car_prob", "mobility.own_car_prob", float),
    ("mobility", "walk_speed", "mobility.walk_speed", _pair(float)),
    ("mobility", "drive_speed", "mobility.drive_speed", _pair(float)),
    ("mobility", "work_seconds", "mobility.work_seconds", float),
    ("mobility", "office_pause", "mobility.office_pause", _pair(float)),
    ("mobility", "evening_prob", "mobility.evening_prob", float),
    ("mobility", "evening_stay", "mobility.evening_stay", _pair(float)),
    ("mobility", "evening_group_size", "mobility.evening_group_size",
     _pair(int)),
    ("mobility", "bus_wait", "mobility.bus_wait", _pair(float)),
    ("mobility", "bus_lines", "mobility.bus_lines", int),
    ("mobility", "buses_per_line", "mobility.buses_per_line", int),
    ("mobility", "bus_catch_radius", "mobility.bus_catch_radius", float),
    ("traffic", "interval", "traffic.interval_range", _pair(float)),
    ("traffic", "size", "traffic.size_range", _pair(int)),
    ("traffic", "ttl", "traffic.ttl", float),
    ("traffic", "window", "traffic.window", _pair(float)),
    ("traffic", "copies", "traffic.copy_limit", int),
    ("radio", "scan_time", "radio.timing.t_scan", float),
    ("radio", "rest_time", "radio.timing.t_rest", float),
    ("radio", "ap_time", "radio.timing.t_ap", float),
    ("radio", "connect_time", "radio.timing.t_connect", float),
    ("radio", "base_speed", "radio.link.base_speed", float),
    ("radio", "range", "radio.link.range", float),
    ("radio", "p_ap", "radio.p_ap", float),
    ("radio", "client_rescan", "radio.client_rescan", float),
    ("radio", "switch_ratio", "radio.switch_ratio", float),
    ("radio", "ap_idle_timeout", "radio.ap_idle_timeout", float),
    ("radio", "ap_max_duration", "radio.ap_max_duration", float),
    ("radio", "stagger", "radio.stagger", _parse_bool),
    ("routing", "router", "routing.router", str),
    ("routing", "buffer_capacity", "routing.buffer_capacity", int),
    ("routing", "summary_refresh", "routing.summary_refresh", float),
    ("engine", "duration", "duration", float),
    ("engine", "tick", "tick", float),
)

_SCHEMA: Dict[Tuple[str, str], Tuple[str, Callable[[str], object]]] = {
    (section, key): (path, conv) for section, key, path, conv in _KEYS}


def _replace_at(obj, path: str, value):
    """Copy of a frozen dataclass tree with the attribute at `path` set."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_at(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def _homes(text: str) -> Tuple[int, int]:
    if ":" in text:
        offices, evening = text.split(":")
        return (int(offices), int(evening))
    offices = int(text)
    return (offices, max(1, offices // 5))


def _label(value) -> str:
    if isinstance(value, tuple):
        return "-".join(str(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class SweepParameter:
    name: str
    form: str                             # what a bad value should have been
    example: str                          # its part of `sweep --help`
    parse: Callable[[str], object]        # one --values token to a value
    fields: Callable[[object], Dict[str, object]]   # attribute path: setting
    label: Callable[[object], str] = _label         # in file names and tables


# Every parameter `opposim sweep` can vary, once: a new one is one row.
SWEEP_PARAMETERS: Dict[str, SweepParameter] = {p.name: p for p in (
    SweepParameter("traffic_interval", "LO-HI in seconds",
                   "traffic_interval: 75-100,50-75", _pair(float),
                   lambda v: {"traffic.interval_range": tuple(map(float, v))}),
    SweepParameter("ttl", "hours", "ttl (hours): 6,12,...",
                   lambda text: float(text) * 3600.0,
                   lambda v: {"traffic.ttl": float(v)},
                   lambda v: f"{v / 3600.0:g}h"),
    SweepParameter("copies", "an integer", "copies: 4,8,...", int,
                   lambda v: {"traffic.copy_limit": int(v)}),
    SweepParameter("homes", "OFFICES or OFFICES:EVENING_SPOTS",
                   "homes: 50:10,150:30 (offices:evening_spots)", _homes,
                   lambda v: {"pois.offices": int(v[0]),
                              "pois.evening_spots": int(v[1])}),
)}


def sweep_parameter(name: str) -> SweepParameter:
    if name not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {name!r}; "
                          f"choose from {', '.join(SWEEP_PARAMETERS)}")
    return SWEEP_PARAMETERS[name]


def apply_sweep_value(config: ScenarioConfig, parameter: str,
                      value) -> ScenarioConfig:
    """`config` with the fields of one sweep parameter set to a value."""
    for path, setting in sweep_parameter(parameter).fields(value).items():
        config = _replace_at(config, path, setting)
    return config


def serialize_scenario(config: ScenarioConfig) -> str:
    mapping: Dict[str, Dict[str, str]] = {}
    for section, key, path, _ in _KEYS:
        mapping.setdefault(section, {})[key] = _fmt_value(
            attrgetter(path)(config))
    parser = configparser.ConfigParser()
    parser.read_dict(mapping)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _convert(section: str, key: str, raw: str):
    _, conv = _SCHEMA[(section, key)]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def parse_scenario_text(text: str, source: str = "<string>") -> Dict[Tuple[str, str], object]:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario {source}: {exc}") from exc
    values: Dict[Tuple[str, str], object] = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            if (section, key) not in _SCHEMA:
                raise ConfigError(
                    f"unknown scenario key [{section}] {key!r} in {source}")
            if raw.strip() != "":
                values[(section, key)] = _convert(section, key, raw)
    return values


def parse_override(text: str) -> Tuple[Tuple[str, str], object]:
    """Parse a --set section.key=value override."""
    if "=" not in text:
        raise ConfigError(f"override must look like section.key=value: {text!r}")
    path, raw = text.split("=", 1)
    if "." not in path:
        raise ConfigError(f"override key must be section.key: {path!r}")
    section, key = path.split(".", 1)
    section, key = section.strip(), key.strip()
    if (section, key) not in _SCHEMA:
        raise ConfigError(f"unknown scenario key [{section}] {key!r}")
    return (section, key), _convert(section, key, raw.strip())


def rescale_groups(groups: Tuple[int, ...], total: int) -> Tuple[int, ...]:
    """Rescale group sizes to a new node count, largest remainders first."""
    current = sum(groups)
    if total <= 0:
        raise ConfigError("node count must be positive")
    if current == 0:
        raise ConfigError("cannot rescale empty groups")
    shares = [g * total / current for g in groups]
    floors = [int(s) for s in shares]
    rest = total - sum(floors)
    order = sorted(range(len(groups)), key=lambda i: (floors[i] - shares[i], i))
    for i in range(rest):
        floors[order[i]] += 1
    return tuple(floors)


def preset_text(name: str) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; presets: "
                          f"{', '.join(PRESET_NAMES)}")
    return (resources.files("opposim") / "presets" / f"{name}.ini").read_text(
        encoding="utf-8")


def load_scenario(path_or_preset: str,
                  overrides: Optional[List[str]] = None,
                  nodes: Optional[int] = None,
                  duration: Optional[float] = None,
                  router: Optional[str] = None) -> ScenarioConfig:
    """Load a scenario file (or named preset), apply overrides, validate."""
    if path_or_preset in PRESET_NAMES:
        text = preset_text(path_or_preset)
        source = f"preset:{path_or_preset}"
    else:
        try:
            with open(path_or_preset, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read scenario {path_or_preset}: {exc}") from exc
        source = path_or_preset
    values = parse_scenario_text(text, source)
    for item in overrides or []:
        key, val = parse_override(item)
        values[key] = val
    if router is not None:
        values[("routing", "router")] = router
    if duration is not None:
        values[("engine", "duration")] = float(duration)
    if nodes is not None:
        groups = values.get(("mobility", "groups"),
                            MobilitySettings().group_sizes)
        values[("mobility", "groups")] = rescale_groups(tuple(groups), nodes)
    config = ScenarioConfig()
    for schema_key, value in values.items():
        config = _replace_at(config, _SCHEMA[schema_key][0], value)
    config.validate()
    return config
