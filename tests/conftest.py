import pytest

from sigmalab import fd, generate_annulus, generate_disk, generate_rectangle, mesh


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
def fresh_store():
    """Nothing kept per mesh before the test or after it: the test's first
    solve, stream_function call and drawing on a mesh build what they keep,
    and a factor the test injects is not left for a later test on the same
    mesh."""
    mesh._store.clear()
    yield
    mesh._store.clear()


@pytest.fixture
def fresh_grids():
    """No kept grid before the test or after it: the test's first grid
    builder call builds its grid, and a grid the test built is not handed
    to a later test."""
    fd._last_grid.clear()
    yield
    fd._last_grid.clear()


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
