"""Package errors survive a pickle round trip, as the traces' child process sends them."""

import inspect
import pickle

import pytest

from dsbu import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, errors.DsbuError)]

#: Arguments and fields of the errors whose __init__ takes more than a message.
EXTRA = {
    errors.ConfigError: ((7, "unknown key 'nn'"), {"line": 7}),
    errors.NonConvergenceError: (("no convergence", (0.5, 0.25)),
                                 {"residual_history": [0.5, 0.25]}),
    errors.BlowupOverflowError: (("non-finite values", {"t": 0.5}), {"last_state": {"t": 0.5}}),
    errors.ResolutionError: (("grid too coarse", 0.125), {"min_abs_t": 0.125}),
}


def test_every_error_class_is_covered():
    assert len(CLASSES) == 10
    assert set(EXTRA) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_message_key_and_fields(cls):
    args, extra = EXTRA.get(cls, (("bad input",), {}))
    error = cls(*args)
    error.key = "n"
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert back.key == "n"
    for name, value in extra.items():
        assert getattr(back, name) == value
