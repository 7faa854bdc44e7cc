"""The example scripts run end to end through their ``main(argv)``."""

import importlib.util
import os
import subprocess
import sys
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


def test_mon_topologies_times_brute_force_in_its_own_column(capsys):
    # greedy's time stays under secs, and brute force's gets exact_s
    assert _main("mon_topologies")(["--n-max", "3", "--brute-force"]) == 0
    header, _, first, *_ = capsys.readouterr().out.splitlines()
    columns = ["exact", "match", "exact_s", "selected", "secs"]
    assert header.split()[5:] == columns
    assert len(first.split()) == len(header.split())


def test_mon_topologies_stops_quietly_when_its_reader_leaves():
    # as `| head -n 3` does: the reader takes three lines and closes the
    # pipe while rows are still coming, unbuffered, one write per row
    env = dict(
        os.environ,
        PYTHONUNBUFFERED="1",
        PYTHONPATH=os.pathsep.join(
            [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
        ),
    )
    with subprocess.Popen(
        [sys.executable, str(SCRIPTS / "mon_topologies.py"), "--n-max", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert lines[0].split()[0] == b"family" and lines[2].startswith(b"chain")
    assert "Traceback" not in err and "Error" not in err


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (SCRIPTS.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends in a comment that gives its output
    said = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert said == ["observable", "(3, 4, 5) (4, 5, 6)"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == said
