"""The package's top-level exports are the library API README.md documents."""

import re
import types
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
