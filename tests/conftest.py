import pytest

from sigmalab import analysis, generate_annulus, generate_disk, generate_rectangle


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
def fresh_stream_factor():
    """No cached stream-function factor before the test or after it: the test's
    first stream_function call factors, and a factor it injects is not left
    for a later test on the same mesh."""
    analysis._stream_laplacian.cache_clear()
    yield
    analysis._stream_laplacian.cache_clear()
