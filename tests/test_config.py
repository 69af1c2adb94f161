"""README "Config schema" lists exactly the keys of the tables in config.py.

For every section and every variant of it, the README table names the keys
of its ``Section`` table, and its default column says "required" for the
required keys and for no other.  Defaults and value texts stay hand-written.
"""

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
