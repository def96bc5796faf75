"""Every error the package raises on purpose is a typed EvreconError."""

import inspect
import pickle
import re
from pathlib import Path

import pytest

import evrecon
from evrecon import errors

# Constructor arguments of the errors whose __init__ takes more than a message.
_ARGS = {
    errors.DivergedTraining: (7, "non-finite loss", 2),
    errors.MalformedLine: (3, "x y", "bad"),
    errors.InvalidTimestamps: ("times must increase", 4),
}
_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.EvreconError)]


def test_no_untyped_value_errors_are_raised():
    src = Path(evrecon.__file__).parent
    raw = [f"{path.name}:{lineno}"
           for path in sorted(src.glob("*.py"))
           for lineno, line in enumerate(path.read_text().splitlines(), start=1)
           if re.search(r"\braise ValueError\(", line)]
    assert raw == []


def test_every_error_has_its_arguments_listed_or_takes_a_message():
    custom = [cls for cls in _ERRORS
              if any("__init__" in vars(c) for c in cls.__mro__ if issubclass(c, errors.EvreconError))]
    assert sorted(c.__name__ for c in custom) == sorted(c.__name__ for c in _ARGS)


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    """A worker process's error reaches the caller with its type, message
    and attributes."""
    error = cls(*_ARGS.get(cls, ("something went wrong",)))
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert str(again) == str(error)
    assert vars(again) == vars(error)
    assert again.args == error.args
