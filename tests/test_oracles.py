"""The oracles' declarations: every function in tests/oracles.py is declared
independent or frozen, and every frozen one says why it is kept."""

import inspect

import oracles


def test_every_oracle_is_declared_once():
    defined = {
        name
        for name, fn in inspect.getmembers(oracles, inspect.isfunction)
        if fn.__module__ == oracles.__name__
    }
    defined |= {
        name
        for name, fn in vars(oracles).items()
        if hasattr(fn, "__wrapped__") and getattr(fn, "__module__", None) == oracles.__name__
    }
    assert not oracles.INDEPENDENT & set(oracles.FROZEN)
    assert defined == oracles.INDEPENDENT | set(oracles.FROZEN)


def test_every_frozen_oracle_gives_its_reason():
    for name, reason in oracles.FROZEN.items():
        assert isinstance(reason, str) and len(reason.split()) >= 5, name
