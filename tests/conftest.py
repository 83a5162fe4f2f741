import pytest

from sigmalab import fem, generate_annulus, generate_disk, generate_rectangle


@pytest.fixture(scope="session")
def disk_mesh():
    return generate_disk((0.0, 0.0), 1.0, 0.1)


@pytest.fixture(scope="session")
def fine_disk_mesh():
    return generate_disk((0.0, 0.0), 1.0, 0.05)


@pytest.fixture(scope="session")
def annulus_mesh():
    return generate_annulus((0.0, 0.0), 0.2, 1.0, 0.05)


@pytest.fixture(scope="session")
def rect_mesh():
    return generate_rectangle((0.0, 0.0), 1.0, 1.0, 0.125)


@pytest.fixture
def fresh_factors():
    """No kept factor before the test or after it: the test's first solve and
    stream_function call on a mesh factor, and a factor it injects is not
    left for a later test on the same mesh."""
    fem._factors.clear()
    yield
    fem._factors.clear()


@pytest.fixture
def splu_calls(monkeypatch):
    """The matrices SuperLU factors, in order, through the real splu."""
    from scipy.sparse import linalg

    real, calls = linalg.splu, []

    def recording(A, *args, **kwargs):
        calls.append(A)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(linalg, "splu", recording)
    return calls
