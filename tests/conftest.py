import pytest

from factorsim.primes import PrimeEngine
from factorsim.qsieve import ZetaZerosTable


@pytest.fixture(scope="session")
def engine():
    return PrimeEngine()


@pytest.fixture(scope="session")
def zeros():
    return ZetaZerosTable.bundled()


@pytest.fixture
def zero_scans(monkeypatch):
    """Every zero scan of the test, recorded as it runs through
    `spectral.refine_zeros`: a list of (f, qs, fs, zeros, rounds), where
    rounds counts the calls of f after the grid."""
    from factorsim import spectral

    seen = []
    refine = spectral.refine_zeros

    def recorded(f, qs, fs):
        rounds = []

        def counted(x):
            rounds.append(x.size)
            return f(x)

        zeros = refine(counted, qs, fs)
        seen.append((f, qs, fs, zeros, len(rounds)))
        return zeros

    monkeypatch.setattr(spectral, "refine_zeros", recorded)
    return seen
