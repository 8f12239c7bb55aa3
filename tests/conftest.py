import pytest


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Run each test from its own directory.

    Runs without ``output.directory`` write to the default output directory
    under the working directory, which must not be the repository.
    """
    monkeypatch.chdir(tmp_path)
