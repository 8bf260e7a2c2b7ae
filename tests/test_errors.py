"""Every error survives a pickle round trip, as a process pool hands it back
to the caller: the same type, message and attributes."""

import inspect
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from plumbtoric import errors, toric


def instances():
    """One instance of every exception class in ``errors``, built with the
    arguments its constructor takes."""
    special = {
        errors.NotConcaveCase: lambda: errors.NotConcaveCase("m", negative_definite=True),
        errors.InvalidItinerary: lambda: errors.InvalidItinerary([1]),
    }
    for _, cls in inspect.getmembers(errors, inspect.isclass):
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__:
            yield special.get(cls, lambda: cls("message"))()


@pytest.mark.parametrize("exc", list(instances()), ids=lambda e: type(e).__name__)
def test_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


def test_process_pool_hands_back_the_error():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        with pytest.raises(errors.NotConcaveCase) as caught:
            pool.submit(toric.classify, (-2, -3)).result(timeout=60)
    assert caught.value.negative_definite is True
    assert "not concave" in str(caught.value)
