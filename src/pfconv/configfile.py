"""Study configuration files.

Line-oriented ``key = value`` text grouped under ``[section]`` headers
(INI grammar, parsed with the standard library).  `KEYS` is the one list
of study keys: each sets one `ExperimentConfig` field and is also a
``pfconv converge`` flag, ``--key`` with dashes (``kind`` is
``--proposal``); flags override file values.  A section or key outside
`KEYS` is an error, so a misspelt key cannot fall back to its default.

::

    [model]
    c = 0.5
    eta = 0.1

    [proposal]
    kind = gamma
    alpha = 1.5
    beta = 0.5

    [study]
    observations = fixtures/cox_obs_t12.csv
    particle_counts = 128, 512, 2048, 8192
    replicates = 200
    test_functions = exp_neg
    moments = 2, 4
    resampler = multinomial
    master_seed = 7

    [oracle]
    dx = 0.005
    x_max = 15.0

    [output]
    csv = out/report.csv
    json = out/report.json
    svg = out/report.svg
"""

from __future__ import annotations

import configparser
from dataclasses import replace

from .convergence import ExperimentConfig
from .errors import DomainError


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# (section, key, ExperimentConfig field, parser), one row per field in field order.
KEYS = (
    ("study", "observations", "observations", str),
    ("model", "c", "c", float),
    ("model", "eta", "eta", float),
    ("proposal", "kind", "proposal", str),
    ("proposal", "alpha", "alpha", float),
    ("proposal", "beta", "beta", float),
    ("study", "particle_counts", "particle_counts", int_list),
    ("study", "replicates", "replicates", int),
    ("study", "test_functions", "test_functions", str_list),
    ("study", "moments", "moments", int_list),
    ("study", "resampler", "resampler", str),
    ("study", "master_seed", "master_seed", int),
    ("oracle", "dx", "grid_dx", float),
    ("oracle", "x_max", "grid_x_max", float),
    ("output", "csv", "out_csv", str),
    ("output", "json", "out_json", str),
    ("output", "svg", "out_svg", str),
)


def flag(key: str) -> str:
    """The ``converge`` flag that overrides a config key."""
    return "--" + ("proposal" if key == "kind" else key).replace("_", "-")


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise DomainError(f"{path}: {err}") from None
    if not read:
        raise DomainError(f"config file not found: {path}")
    known = {(section, key): (field, parse) for section, key, field, parse in KEYS}
    sections = {section for section, _ in known}
    kwargs: dict = {}
    for section in parser.sections():
        if section not in sections:
            raise DomainError(f"{path}: unknown section [{section}]")
        for key, text in parser.items(section):
            if (section, key) not in known:
                raise DomainError(f"{path}: unknown key {key!r} in [{section}]")
            field, parse = known[section, key]
            try:
                kwargs[field] = parse(text)
            except ValueError as err:
                raise DomainError(f"{path}: [{section}] {key}: {err}") from None

    if "observations" not in kwargs:
        raise DomainError(f"{path}: config must set study.observations")
    return ExperimentConfig(**kwargs)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace config fields with any non-None override values."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **changes) if changes else config
