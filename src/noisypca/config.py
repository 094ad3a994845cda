"""Experiment config files: flat key=value sections, strictly validated.

Format::

    [model]
    n = 100
    r = 5
    signal_distribution = bounded_uniform   # or gaussian
    signal_lambdas = 12                     # scalar or comma list, descending
    noise_rv = r                            # r | n | <int> | none
    noise_distribution = bounded_uniform    # required unless noise_rv = none
    noise_scale_base = 1.1                  # amplitude q_i = base + slope*i/r_v
    noise_scale_slope = -0.1
    sddn = on                               # on | off
    sddn_s = 5
    sddn_b0 = 0.05
    sddn_rho = 1
    sddn_q = 0.001

    [experiment]
    alpha_grid = logspace:29:7000:12        # or comma list of ints
    trials = 100
    seed = 0                                # optional
    c = 1.0                                 # optional
    epsilon_rule = floor                    # optional: floor | fixed:<value>
    r_grid = 5,10,20                        # optional
    n_grid = 100,200                        # optional

    [refine]                                # optional section
    q0 = 0.06
    stages = 4

Unknown sections or keys are errors; so are missing required keys. Keys
marked optional may be left out. The noise_* keys are required unless
noise_rv = none, the sddn_* keys are required when sddn = on, and both
[refine] keys are required once that section has any key; a key whose
condition is false is not read. `refine` runs `trials` trajectories at the
one alpha of its alpha_grid. The table _KEYS below is the source for which
keys each section takes, when each is required and how it is read.
"""

import importlib.resources
import os

import numpy as np

from .errors import ValidationError
from .experiments import ExperimentConfig

_PRESET_DIR = importlib.resources.files("noisypca.presets")
PRESETS = tuple(sorted(entry.name[: -len(".cfg")] for entry in _PRESET_DIR.iterdir() if entry.name.endswith(".cfg")))


def _parse_sections(text, source):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ValidationError(f"{source}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ValidationError(f"{source}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected key = value")
        if current is None:
            raise ValidationError(f"{source}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    if not sections:
        raise ValidationError(f"{source}: empty config")
    return sections


def _as_int(value, key):
    try:
        return int(value)
    except ValueError as exc:
        raise ValidationError(f"key {key!r}: expected integer, got {value!r}") from exc


def _as_float(value, key):
    try:
        return float(value)
    except ValueError as exc:
        raise ValidationError(f"key {key!r}: expected number, got {value!r}") from exc


def _as_flag(value, key):
    if value in ("on", "off"):
        return value == "on"
    raise ValidationError(f"key {key!r}: expected on/off, got {value!r}")


def _float_list(value, key):
    return tuple(_as_float(part.strip(), key) for part in value.split(","))


def _int_list(value, key):
    return tuple(_as_int(part.strip(), key) for part in value.split(","))


def _as_text(value, key):
    return value


def _noise_rv(value, key):
    if value == "none":
        return None
    return value if value in ("r", "n") else _as_int(value, key)


def _epsilon_rule(value, key):
    """The fixed success target, or None for the floor rule (`experiments.success_epsilon`)."""
    if value == "floor":
        return None
    if value.startswith("fixed:"):
        return _as_float(value.split(":", 1)[1], key)
    raise ValidationError(f"epsilon_rule must be 'floor' or 'fixed:<value>', got {value!r}")


def _alpha_grid(value, key):
    if value.startswith("logspace:"):
        parts = value.split(":")
        if len(parts) != 4:
            raise ValidationError("alpha_grid logspace needs logspace:lo:hi:count")
        lo = _as_float(parts[1], key)
        hi = _as_float(parts[2], key)
        count = _as_int(parts[3], key)
        if not 0 < lo <= hi < np.inf:
            raise ValidationError("alpha_grid logspace bounds must satisfy 0 < lo <= hi < inf")
        if count < 1:
            raise ValidationError(f"alpha_grid logspace count must be >= 1, got {count}")
        # Not np.unique: it imports numpy.ma, most of a cold parse's time.
        return tuple(sorted({int(a) for a in np.rint(np.geomspace(lo, hi, count))}))
    return _int_list(value, key)


# Every config key as (section, key, ExperimentConfig field, converter,
# required-when), in reading order: the first missing or malformed key is the
# one reported. A key is read when its _READ_WHEN holds, and must then exist.
_KEYS = (
    ("model", "noise_rv", "noise_rv", _noise_rv, "always"),
    ("model", "n", "n", _as_int, "always"),
    ("model", "r", "r", _as_int, "always"),
    ("model", "signal_distribution", "signal_distribution", _as_text, "always"),
    ("model", "signal_lambdas", "signal_lambdas", _float_list, "always"),
    ("model", "noise_distribution", "noise_distribution", _as_text, "noise"),
    ("model", "noise_scale_base", "noise_scale_base", _as_float, "noise"),
    ("model", "noise_scale_slope", "noise_scale_slope", _as_float, "noise"),
    ("model", "sddn", "sddn_enabled", _as_flag, "always"),
    ("model", "sddn_s", "sddn_s", _as_int, "sddn"),
    ("model", "sddn_b0", "sddn_b0", _as_float, "sddn"),
    ("model", "sddn_rho", "sddn_rho", _as_int, "sddn"),
    ("model", "sddn_q", "sddn_q", _as_float, "sddn"),
    ("experiment", "alpha_grid", "alpha_grid", _alpha_grid, "always"),
    ("experiment", "trials", "n_trials", _as_int, "always"),
    ("experiment", "seed", "master_seed", _as_int, "optional"),
    ("experiment", "c", "c", _as_float, "optional"),
    ("experiment", "r_grid", "r_grid", _int_list, "optional"),
    ("experiment", "n_grid", "n_grid", _int_list, "optional"),
    ("experiment", "epsilon_rule", "epsilon", _epsilon_rule, "optional"),
    ("refine", "q0", "refine_q0", _as_float, "refine"),
    ("refine", "stages", "refine_stages", _as_int, "refine"),
)
_SECTIONS = {name: {row[1] for row in _KEYS if row[0] == name} for name, *_ in _KEYS}
_READ_WHEN = {
    "always": lambda kwargs, section, key: True,
    "optional": lambda kwargs, section, key: key in section,
    "noise": lambda kwargs, section, key: kwargs["noise_rv"] is not None,
    "sddn": lambda kwargs, section, key: kwargs["sddn_enabled"],
    "refine": lambda kwargs, section, key: bool(section),
}


def parse_config_text(text, source="<config>"):
    """Parse and validate config text. Returns (ExperimentConfig, the config's seed or None)."""
    sections = _parse_sections(text, source)
    for name in ("model", "experiment"):
        if name not in sections:
            raise ValidationError(f"{source}: missing [{name}] section")
    kwargs = {}
    for name, key, field, convert, when in _KEYS:
        section = sections.get(name, {})
        if not _READ_WHEN[when](kwargs, section, key):
            continue
        if key not in section:
            raise ValidationError(f"missing key {key!r} in [{name}]")
        kwargs[field] = convert(section[key], key)
    return ExperimentConfig(**kwargs), kwargs.get("master_seed")


def resolve_config_path(name_or_path):
    """Interpret the --config argument: a file path or a shipped preset name."""
    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return fh.read(), name_or_path
    if name_or_path in PRESETS:
        resource = _PRESET_DIR.joinpath(f"{name_or_path}.cfg")
        return resource.read_text(encoding="utf-8"), f"preset:{name_or_path}"
    raise ValidationError(f"config {name_or_path!r}: no such file or preset (presets: {', '.join(PRESETS)})")


def parse_config(name_or_path):
    """Load a config file or preset. Returns (ExperimentConfig, config_seed)."""
    text, source = resolve_config_path(name_or_path)
    return parse_config_text(text, source)


def describe(cfg):
    """Resolved config as deterministic key=value lines (for run logs)."""
    pairs = []
    for field_name in cfg.__dataclass_fields__:
        value = getattr(cfg, field_name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        pairs.append(f"{field_name}={value}")
    return "\n".join(pairs)
