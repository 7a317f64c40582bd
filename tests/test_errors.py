"""The package's error types are part of its public API."""

import inspect

import gcdlab
import gcdlab.errors


def test_every_error_type_is_exported():
    error_types = {
        name
        for name, value in vars(gcdlab.errors).items()
        if inspect.isclass(value) and issubclass(value, gcdlab.errors.GcdLabError)
    }
    assert "ZeroDenominator" in error_types
    assert error_types <= set(gcdlab.__all__)
    assert all(getattr(gcdlab, name) is getattr(gcdlab.errors, name) for name in error_types)
