"""Exception types survive pickling, as verify's workers send them."""

import inspect
import pickle

import pytest

from weakcomm import errors

ERRORS = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, Exception)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    if cls is errors.SamplerBudgetError:
        made = [cls("no pair", attempts=64), cls("no pair", 64, accepted=3)]
    else:
        made = [cls("no pair")]
    for exc in made:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)


def test_sampler_budget_error_keeps_its_counts():
    back = pickle.loads(pickle.dumps(errors.SamplerBudgetError("no pair", attempts=64)))
    assert (str(back), back.attempts, back.accepted) == ("no pair (attempts=64, accepted=0)", 64, 0)
