"""README.md documents the package's top-level exports and every config field."""

import dataclasses
import re
import types
import typing
from pathlib import Path

import aquaswipt

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_readme():
    # A name counts as documented when it appears inside an inline code
    # span or a code block, so prose words such as "train" do not count.
    text = README.read_text()
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    named = set(re.findall(r"[A-Za-z_]\w*", code))
    exports = [name for name, value in vars(aquaswipt).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert exports
    assert [name for name in exports if name not in named] == []


def _leaf_fields(cls):
    """Names of the scalar fields of the config dataclass ``cls`` and of
    the config dataclasses nested in it, optional ones included."""
    for f in dataclasses.fields(cls):
        kind = f.type
        if isinstance(kind, types.UnionType):  # X | None
            (kind,) = (a for a in typing.get_args(kind) if a is not type(None))
        if dataclasses.is_dataclass(kind):
            yield from _leaf_fields(kind)
        else:
            yield f.name


def test_every_config_field_is_named_in_readme():
    text = README.read_text()
    section = text[text.index("## Configuration document"):text.index("## Output datasets")]
    named = set(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(r"`[^`\n]+`", section))))
    fields = sorted(set(_leaf_fields(aquaswipt.CampaignConfig)))
    assert "node_count" in fields
    assert [name for name in fields if name not in named] == []
