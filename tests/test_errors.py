import inspect

import pytest

from rmgcr import compose, errors, files, geogrid, ground, logic, rm
from rmgcr.errors import InputError


@pytest.mark.parametrize("module", [logic, rm, geogrid, ground, compose, files, errors], ids=lambda m: m.__name__)
def test_every_error_a_module_defines_is_an_input_error(module):
    # a new error class subclasses InputError, or the CLI would exit 4 on it, not 3
    defined = [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, Exception)
    ]
    assert defined
    for cls in defined:
        if not issubclass(cls, Warning) and cls is not rm.StepFromTerminalError:
            assert issubclass(cls, InputError), cls.__name__

