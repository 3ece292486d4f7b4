import pytest

from fourier_hadamard import numtheory
from fourier_hadamard.numtheory import modulus_context


@pytest.fixture
def factorize_calls(monkeypatch):
    """The arguments of every factorize call the test makes, starting from
    an empty per-modulus memo."""
    calls = []
    original = numtheory.factorize

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(numtheory, "factorize", counting)
    modulus_context.cache_clear()
    return calls
