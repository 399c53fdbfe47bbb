import copy
import sys
import threading

import pytest

from viewfilter import documents, fixture
from viewfilter.service import create_server


@pytest.fixture(scope="session")
def workspace():
    return fixture.build_workspace()


@pytest.fixture(scope="session")
def model(workspace):
    return workspace.model


@pytest.fixture(scope="session")
def _model_doc_master():
    return documents.model_to_doc(fixture.cyclone_vessel_model())


@pytest.fixture()
def model_doc(_model_doc_master):
    return copy.deepcopy(_model_doc_master)


@pytest.fixture()
def seeded_store(tmp_path):
    return fixture.seed_store(tmp_path / "store")


@pytest.fixture()
def service(seeded_store):
    server = create_server(seeded_store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", seeded_store
    server.shutdown()
    server.server_close()


@pytest.fixture()
def long_number():
    """An integer literal one digit longer than ``int()`` parses."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python parses integers of any length")
    return "1" * (limit + 1)
