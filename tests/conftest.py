import pytest

import command_table
from ma_lab import models, verify


@pytest.fixture(scope="session")
def table_run(tmp_path_factory):
    # the command table, run once per session in a fresh process; the artifact
    # ledger and the reachability guard both read this run
    return command_table.fresh_run(tmp_path_factory.mktemp("table"))


@pytest.fixture(scope="session")
def radial():
    return models.radial_p2()


@pytest.fixture(scope="session")
def product():
    return models.product_p1p1()


@pytest.fixture(scope="session")
def toric32():
    return models.toric_p1p1(32)


@pytest.fixture(scope="session")
def corpus36():
    return verify.generate_corpus(0, 36)


@pytest.fixture(scope="session")
def corpus500():
    # shared by the inequality-suite and fitted-constant acceptance tests
    return verify.generate_corpus(0, 500)
