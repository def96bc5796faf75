"""Every error the package raises on purpose is a typed EvreconError."""

import re
from pathlib import Path

import evrecon


def test_no_untyped_value_errors_are_raised():
    src = Path(evrecon.__file__).parent
    raw = [f"{path.name}:{lineno}"
           for path in sorted(src.glob("*.py"))
           for lineno, line in enumerate(path.read_text().splitlines(), start=1)
           if re.search(r"\braise ValueError\(", line)]
    assert raw == []
