"""The config schema, stated once: each section's keys with their rules,
and ``check_config``, the one checker that holds a document to them.

This module owns what a config may say: ConfigError, the ``Section`` tables
and ``spec_from_config``.  The rules that span keys are checked when
``harness`` parses the cells, and a compressor's ranges that depend on its
kind or d are the spec's own (CompressorError).  README "Config schema"
lists the same keys, and a test keeps it so.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .algorithms import RULES
from .compressors import _KIND_OPTIONS, CompressorSpec, make_compressor


class ConfigError(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _finite(v) -> bool:
    return _is_real(v) and math.isfinite(v)


def _is_name(v) -> bool:
    """Whether ``v`` names one file in the output directory, with no control
    character (U+0000-U+001F, U+007F) to split a line that names it."""
    return (isinstance(v, str) and v not in ("", ".", "..") and "/" not in v
            and not any(c < " " or c == "\x7f" for c in v))


class Section(NamedTuple):
    """The keys of one config mapping, each with its rule: ``(what, ok)``,
    what the value must be and the test of it; a Section, for a nested
    mapping; or ``[section]``, for a non-empty list of such mappings.  An
    optional key that is absent stays absent, so its reader's default
    applies.  With ``by``, the value of that key (``by_default`` when it is
    absent) names one of ``variants``, whose keys apply as well."""

    required: dict = {}
    optional: dict = {}
    by: str | None = None
    by_default: str | None = None
    variants: dict = {}


def check_config(value, section: Section, path: str):
    """``value`` checked against ``section``: a mapping with no key outside
    it, every required key, and each value what its rule says.  Returns a
    copy with the ``by`` key filled in and nested sections checked; the
    first fault raises ConfigError, naming the key by its ``path``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a JSON object, not {value!r}")
    out, variant = dict(value), Section()
    if section.by is not None:
        if section.by not in value and section.by_default is None:
            raise ConfigError(f"missing {path} key {section.by!r}")
        tag = out.setdefault(section.by, section.by_default)
        if not (isinstance(tag, str) and tag in section.variants):
            raise ConfigError(f"{path}.{section.by} must be one of "
                              f"{list(section.variants)}, not {tag!r}")
        variant = section.variants[tag]
    rules = {**section.required, **section.optional, **variant.required,
             **variant.optional}
    bad = set(value) - rules.keys() - {section.by}
    other = {key for s in section.variants.values()
             for key in (*s.required, *s.optional)}
    if bad - other:
        raise ConfigError(
            f"unknown {path} keys: {sorted(bad - other, key=str)}")
    if bad:
        raise ConfigError(f"{path} keys {sorted(bad)} do not apply to "
                          f"{section.by} {tag!r}")
    for key in (*section.required, *variant.required):
        if key not in value:
            raise ConfigError(f"missing {path} key {key!r}")
    for key, rule in rules.items():
        if key not in value:
            continue
        item, where = value[key], f"{path}.{key}"
        if isinstance(rule, Section):
            out[key] = check_config(item, rule, where)
        elif isinstance(rule, list):
            if not (isinstance(item, list) and item):
                raise ConfigError(
                    f"{where} must be a non-empty list, not {item!r}")
            out[key] = [check_config(x, rule[0], f"{where}[{i}]")
                        for i, x in enumerate(item)]
        elif not rule[1](item):
            raise ConfigError(f"{where} must be {rule[0]}, not {item!r}")
    return out


_BOOL = ("a bool", lambda v: isinstance(v, bool))
_INT = ("an int", _is_int)
_POSITIVE_INT = ("a positive int", lambda v: _is_int(v) and v >= 1)
# every file is <scenario>__<tail>, whose first "__" then ends the scenario
_SCENARIO = ("a non-empty string with no '/', '__' or control character that "
             "is not '.' or '..' and does not end in '_'",
             lambda v: _is_name(v) and "__" not in v and not v.endswith("_"))
# <scenario>__report.json is the report's, so no cell's sidecar may take it
_LABEL = ("a non-empty string with no '/' or control character that is "
          "not '.', '..' or 'report'",
          lambda v: _is_name(v) and v != "report")
_POSITIVE = ("a finite positive number", lambda v: _finite(v) and v > 0)

# CompressorSpec's options, each with what a config value must be; the
# ranges that depend on the kind or on d are the spec's own checks
_COMPRESSOR_OPTIONS = {
    "delta": ("a positive finite number", lambda v: _finite(v) and v > 0),
    "keep_k": _POSITIVE_INT,
    "levels": ("an int >= 2", lambda v: _is_int(v) and v >= 2),
    "sparsify_mode": ('"top" or "random"', lambda v: v in ("top", "random")),
    "rescale": _BOOL,
}

# a compressor config: its kind and the keywords that kind reads.  keep_k
# and levels have no default, so a kind that reads one requires it
COMPRESSOR = Section(by="kind", variants={kind: Section(
    required={key: _COMPRESSOR_OPTIONS[key] for key in keys
              if key in ("keep_k", "levels")},
    optional={key: _COMPRESSOR_OPTIONS[key] for key in keys
              if key not in ("keep_k", "levels")})
    for kind, keys in _KIND_OPTIONS.items()})


def spec_from_config(cfg: dict, d: int) -> CompressorSpec:
    """The spec of a compressor config (``COMPRESSOR``); a value out of the
    spec's range is a CompressorError.  The class constants come from the
    spec, never from the config."""
    return make_compressor(
        d=d, **check_config(cfg, COMPRESSOR, "compressor config"))


# generate_suite's optional keywords that each cost family reads, each with
# what its value must be; the family would ignore any other
_COST_OPTIONS = {
    "logistic_log": {"abs_m": _BOOL,
                     # at scale 0, L_f = 0 and a run's Lyapunov weight
                     # would divide by it
                     "scale": ("a finite nonzero number",
                               lambda v: _finite(v) and v != 0)},
    "quadratic_pl": {"consistent": _BOOL, "normalize": _BOOL,
                     "rows": _POSITIVE_INT},
}

# each rule's params: the AlgorithmParams fields it reads
_PARAMS = {name: Section(optional={key: ("a finite number", _finite)
                                   for key in rule.params})
           for name, rule in RULES.items()}

# a cell: a rule that compresses its messages needs a compressor, dgt none
CELL = Section(
    optional={"mode": ('"practical" or "certified"',
                       lambda v: v in ("practical", "certified")),
              "force_params": _BOOL, "label": _LABEL},
    by="algo", variants={name: Section(
        required={} if RULES[name].exact else {"compressor": COMPRESSOR},
        optional={"params": params}) for name, params in _PARAMS.items()})

# a config document: its keys and sections.  An absent optional key takes
# the default of what reads it: ExperimentConfig, CellConfig, BitCostModel,
# generate_suite, CompressorSpec or the rule's practical params
DOCUMENT = Section(
    required={
        "scenario": _SCENARIO,
        "iters": _POSITIVE_INT,
        "network": Section(required={"n": _INT}, by="topology",
                           by_default="random", variants={
                               "random": Section(required={"edge_density": (
                                   "a number", _is_real)}),
                               "ring": Section()}),
        "cost": Section(required={"d": _INT}, by="kind", variants={
            kind: Section(optional=options)
            for kind, options in _COST_OPTIONS.items()}),
        "seeds": Section(required={
            key: ("a nonnegative int", lambda v: _is_int(v) and v >= 0)
            for key in ("graph", "cost", "algo")}),
        "cells": [CELL],
    },
    optional={
        "threshold": _POSITIVE,
        "fstar_tol": _POSITIVE,
        "bit_model": Section(optional={"bits_int": _POSITIVE_INT}),
        "broadcast": _BOOL,
        "output_dir": ("a string", lambda v: isinstance(v, str)),
    })
