"""The README's "Library entry points" name only what exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_point_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1].split("\n## ")[0]
    return re.findall(r"`(confsub(?:\.\w+)*)`", section)


def _resolve(dotted):
    """The object a dotted name refers to: the longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_entry_points_resolve():
    names = _entry_point_names()
    assert len(names) >= 20
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
