"""Command-line front end.

Subcommands::

    orbitfl run       --config run.ini [--out metrics.csv] [--protocol fedisl]
    orbitfl compare   --config run.ini [--out summary.csv]
    orbitfl contacts  --config run.ini [--out windows.csv] [--horizon-hours 12]
    orbitfl validate  --config run.ini

Scenarios are INI files; every key is optional except the seed, which may come
from --seed, the ORBITFL_SEED environment variable, or ``[sim] seed``, in that
order of precedence. Each key is its ScenarioConfig field's name, less ``ps_``
under ``[ps]`` and ``data_`` under ``[data]``, and values are read as written,
``%`` included. Angles in config files are degrees. Results are CSV on stdout
or at --out.

Exit codes: 0 success, 1 bad configuration, 2 runtime failure, 3 simulation
proved unable to make progress.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import re
import sys
import typing

from .sim import (
    INI_KEYS,
    MAX_SPAN_S,
    ConfigError,
    DeadlockError,
    MetricsRecord,
    ScenarioConfig,
    compare,
    contact_table,
    run_scenario,
    validate_scenario,
)

SEED_ENV_VAR = "ORBITFL_SEED"

_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsRecord))
RUN_HEADER = ",".join(_RUN_FIELDS)
COMPARE_HEADER = "speedup,traffic_ratio"
CONTACTS_HEADER = "satellite,plane,start_s,end_s"


# how an INI value becomes each type a ScenarioConfig field is annotated with
_CONVERTERS = {
    int: lambda text: int(text, 10),
    float: float,
    str: str.strip,
    float | None: lambda text: None if text.strip().lower() in ("", "none") else float(text),
}

def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """Each section's keys, in ``INI_KEYS`` order; a field annotated with a
    type that has no converter fails the import."""
    hints = typing.get_type_hints(ScenarioConfig)
    schema = {}
    for name, (section, key) in INI_KEYS.items():
        schema.setdefault(section, {})[key] = (name, _CONVERTERS[hints[name]])
    return schema


# (section, key) -> (ScenarioConfig field, converter)
CONFIG_SCHEMA = _schema()


def _key_line(path: str, section: str, key: str | None) -> int | None:
    """Best-effort line number of ``key`` inside ``[section]``, or of the
    section's header when ``key`` is None."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    current = None
    for number, line in enumerate(lines, start=1):
        header = re.match(r"^\s*\[(.+?)\]", line)
        if header:
            current = header.group(1).strip()
            if key is None and current == section:
                return number
        elif key is not None and current == section:
            if re.match(rf"^\s*{re.escape(key)}\s*[=:]", line, re.IGNORECASE):
                return number
    return None


def _where(path: str, section: str, key: str | None = None) -> str:
    line = _key_line(path, section, key)
    suffix = f" (line {line})" if line is not None else ""
    name = f"[{section}]" if key is None else f"[{section}] {key}"
    return f"{name} in {path}{suffix}"


def _located(problems: list[str], args) -> list[str]:
    """``problems``, each ``[section] key …`` one whose key the ``--config`` file
    sets pointed at that line; a seed from --seed or the environment is not the file's."""
    out = []
    for problem in problems:
        at = re.match(r"\[(\w+)\] (\w+) ", problem)
        line = args.config and at and _key_line(args.config, *at.groups())
        if line and not (at[2] == "seed" and _resolve_seed(args) is not None):
            problem = f"{problem[:at.end(2)]} in {args.config} (line {line}){problem[at.end(2):]}"
        out.append(problem)
    return out


def parse_config(path: str, seed_override: int | None = None) -> ScenarioConfig:
    """Read an INI scenario file into a ScenarioConfig.

    Unknown sections or keys are errors, as are unparseable values; messages
    carry the offending section or key and its line. ``[DEFAULT]`` is an
    unknown section like any other, not one whose keys reach every section.
    ``seed_override`` takes precedence over ``[sim] seed``; one of the two must
    provide a seed.
    """
    # no header can name the empty section, so no section holds defaults
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    fields: dict[str, object] = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            known = ", ".join(sorted(CONFIG_SCHEMA))
            raise ConfigError(f"unknown section {_where(path, section)}; expected one of: {known}")
        for key, raw in parser.items(section):
            try:
                field, convert = CONFIG_SCHEMA[section][key]
            except KeyError:
                raise ConfigError(f"unknown key {_where(path, section, key)}") from None
            try:
                fields[field] = convert(raw)
            except ValueError:
                raise ConfigError(
                    f"bad value {raw!r} for {_where(path, section, key)}"
                ) from None

    if seed_override is not None:
        fields["seed"] = seed_override
    if "seed" not in fields:
        raise ConfigError(
            f"no seed: set [sim] seed in {path}, pass --seed, or export {SEED_ENV_VAR}"
        )
    seed = fields.pop("seed")
    return dataclasses.replace(ScenarioConfig(seed=seed), **fields)


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a scenario as canonical INI text; parse_config reads it back."""
    out = []
    for section, keys in CONFIG_SCHEMA.items():
        out.append(f"[{section}]")
        for key, (field, _) in keys.items():
            value = getattr(cfg, field)
            if value is None or value == "":
                continue
            if isinstance(value, float):
                value = repr(value)
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out)


# -- CSV rendering ------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean cells in any schema")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_run_csv(records: list[MetricsRecord], seed: int) -> str:
    lines = [f"# seed={seed}", RUN_HEADER]
    for r in records:
        lines.append(",".join(_cell(getattr(r, name)) for name in _RUN_FIELDS))
    return "\n".join(lines) + "\n"


def render_compare_csv(speedup: float, traffic_ratio: float, seed: int) -> str:
    row = ",".join((_cell(speedup), _cell(traffic_ratio)))
    return f"# seed={seed}\n{COMPARE_HEADER}\n{row}\n"


def render_contacts_csv(rows) -> str:
    lines = [CONTACTS_HEADER]
    for sat, plane, start, end in rows:
        lines.append(f"{sat},{plane},{_cell(start)},{_cell(end)}")
    return "\n".join(lines) + "\n"


def _deliver(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# -- argument handling -----------------------------------------------------------


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env, 10)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return None


def _load_scenario(args) -> ScenarioConfig:
    seed = _resolve_seed(args)
    if args.config is not None:
        return parse_config(args.config, seed_override=seed)
    if seed is None:
        raise ConfigError(
            f"no seed: pass --seed, export {SEED_ENV_VAR}, or use --config"
        )
    return ScenarioConfig(seed=seed)


def _hours(text: str) -> float:
    hours = float(text)
    if not 0 < hours * 3600.0 <= MAX_SPAN_S:
        raise argparse.ArgumentTypeError(
            f"must be a number of hours in (0, {MAX_SPAN_S / 3600.0:g}] (one year), got {text!r}"
        )
    return hours


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitfl",
        description="simulate federated learning over a satellite constellation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario INI file (defaults apply without it)")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--seed", type=int, help="override the scenario seed")

    p_run = sub.add_parser("run", help="simulate one protocol, emit per-epoch metrics")
    common(p_run)
    p_run.add_argument(
        "--protocol",
        choices=("fedisl", "fednonisl"),
        default="fedisl",
        help="which transport to simulate (default fedisl)",
    )

    p_cmp = sub.add_parser("compare", help="run both protocols, emit speedup summary")
    common(p_cmp)

    p_con = sub.add_parser("contacts", help="list server visibility windows")
    common(p_con)
    p_con.add_argument(
        "--horizon-hours",
        type=_hours,
        default=12.0,
        help="how far ahead to search (default 12)",
    )

    p_val = sub.add_parser("validate", help="check a scenario file and report problems")
    p_val.add_argument("--config", required=True, help="scenario INI file")
    p_val.add_argument("--seed", type=int, help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_scenario(args)
        if args.command == "validate":
            problems = _located(validate_scenario(cfg), args)
            print("\n".join(problems) or "ok")
            return 1 if problems else 0
        if args.command == "run":
            result = run_scenario(cfg, args.protocol)
            _deliver(render_run_csv(result.records, cfg.seed), args.out)
        elif args.command == "compare":
            outcome = compare(cfg)
            _deliver(
                render_compare_csv(outcome.speedup, outcome.traffic_ratio, cfg.seed),
                args.out,
            )
        elif args.command == "contacts":
            rows = contact_table(cfg, args.horizon_hours * 3600.0)
            _deliver(render_contacts_csv(rows), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {'; '.join(_located(exc.problems, args))}", file=sys.stderr)
        return 1
    except DeadlockError as exc:
        print(f"stuck: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
