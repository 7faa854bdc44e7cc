"""The example scripts run end to end through their ``main(argv)``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "name, argv",
    [
        ("mon_topologies", ["--n-max", "7", "--brute-force"]),
        ("ingest_demo", ["--groups", "3", "--noise-signals", "6"]),
    ],
)
def test_script_succeeds(name, argv, capsys):
    assert _main(name)(argv) == 0
    assert capsys.readouterr().out
