import pytest

from vaxcirc.celllib import default_library
from vaxcirc.harness import BenchmarkSpec, generate_benchmark


@pytest.fixture(scope="session")
def default_lib():
    return default_library()


@pytest.fixture(scope="session")
def rca4():
    return generate_benchmark(BenchmarkSpec("rca_adder", 4))


@pytest.fixture(scope="session")
def rca8():
    return generate_benchmark(BenchmarkSpec("rca_adder", 8))


@pytest.fixture(scope="session")
def mult4():
    return generate_benchmark(BenchmarkSpec("array_multiplier", 4))

