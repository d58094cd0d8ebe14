import inspect

import nestor
from nestor import errors


def test_every_error_is_exported():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.NestorError)
               and obj.__module__ == errors.__name__}
    assert "PivotBudgetExceeded" in defined
    assert defined <= set(nestor.__all__)
