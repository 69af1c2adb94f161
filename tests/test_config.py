"""README "Config schema" lists exactly the keys of the tables in config.py.

For every section and every variant of it, the README table names the keys
of its ``Section`` table, and its default column says "required" for the
required keys and for no other.  Defaults and value texts stay hand-written;
the scenario, name and scale rules are held to the checks that state them.
"""

import math
import re
from pathlib import Path

from cgtsim import config

README = Path(__file__).resolve().parents[1] / "README.md"

# README table name -> the config.py table it states; a cell's params are
# one table per rule
SECTIONS = {
    "document": config.DOCUMENT,
    "cell": config.CELL,
    "network": config.DOCUMENT.required["network"],
    "cost": config.DOCUMENT.required["cost"],
    "seeds": config.DOCUMENT.required["seeds"],
    "bit_model": config.DOCUMENT.optional["bit_model"],
    "compressor": config.COMPRESSOR,
    "params": config.Section(variants=config._PARAMS),
}


def _table_keys(section: config.Section) -> dict:
    """variant (None if there is none) -> {key: whether it is required}."""
    keys = {**dict.fromkeys(section.required, True),
            **dict.fromkeys(section.optional, False)}
    if section.by is not None:
        keys[section.by] = section.by_default is None
    if not section.variants:
        return {None: keys}
    return {tag: {**keys, **dict.fromkeys(v.required, True),
                  **dict.fromkeys(v.optional, False)}
            for tag, v in section.variants.items()}


def _readme_tables() -> dict:
    """README table name -> rows of (keys, variants or None, default)."""
    text = README.read_text(encoding="utf-8")
    schema = text.split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in re.findall(r"(?m)^\|.*\|\n\|[-| ]+\|\n(?:\|.*\|\n)+",
                            schema):
        lines = block.splitlines()
        rows = []
        for line in lines[2:]:
            head, default = [c.strip() for c in line.strip("|").split("|")][:2]
            tags = re.search(r"\(([^)]*)\)", head)
            rows.append((re.findall(r"`([^`]+)`", head.split("(")[0]),
                         None if tags is None else [
                             t.strip().removesuffix(" only")
                             for t in tags.group(1).split(",")],
                         default))
        tables[lines[0].strip("|").split("|")[0].strip()] = rows
    return tables


def test_readme_schema_lists_the_config_tables():
    readme = _readme_tables()
    assert set(readme) == set(SECTIONS)
    for name, section in SECTIONS.items():
        table = _table_keys(section)
        for keys, tags, _ in readme[name]:
            assert keys, (name, "a row names no key")
            assert tags is None or set(tags) <= set(table), (name, tags)
        for tag, want in table.items():
            got = {key: default == "required"
                   for keys, tags, default in readme[name]
                   if tags is None or tag in tags for key in keys}
            assert got == want, (name, tag)


def test_readme_scenario_row_states_the_name_rule():
    # a scenario ends at its file names' first "__"
    (row,) = [line for line in README.read_text(encoding="utf-8").splitlines()
              if line.startswith("| `scenario` |")]
    assert "no `__`" in row and "not end in `_`" in row
    ok = config.DOCUMENT.required["scenario"][1]
    for name, want in [("a", True), ("a_b", True), ("_a", True),
                       ("a__b", False), ("__a", False), ("a_", False),
                       ("_", False), ("a/b", False)]:
        assert ok(name) is want, name


def test_readme_states_the_scale_and_control_character_rules():
    # L_f is 0 at scale 0; a control character in a name would split a
    # line that names its file
    text = README.read_text(encoding="utf-8")
    (row,) = [line for line in text.splitlines()
              if line.startswith("| `scale` (logistic_log) |")]
    assert "a finite nonzero number" in row
    ok = config._COST_OPTIONS["logistic_log"]["scale"][1]
    for value, want in [(0.1, True), (-2, True), (0, False), (0.0, False),
                        (-0.0, False), (math.inf, False), (math.nan, False),
                        (True, False)]:
        assert ok(value) is want, value
    assert "no control character (U+0000 to U+001F, U+007F)" in " ".join(
        text.split())
    for name in ("a\nb", "a\tb", "\x00", "\x1f", "x\x7f"):
        assert not config._is_name(name), name
    for name in ("a b", "x\x80", "é", "~"):
        assert config._is_name(name), name
