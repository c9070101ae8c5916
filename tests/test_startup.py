"""What a fresh interpreter runs for ``import szegedtools`` and for each
command, and the package's lazily resolved public names.

The footprint checks run in child processes, so that the modules pytest and
the other tests have imported hide nothing, and compare ``sys.modules``
before and after, so that modules the host's ``site`` already loads do not
count. ``import szegedtools`` lists every submodule in ``sys.modules`` as a
lazy module, which stays a ``types.ModuleType`` subclass until its first
attribute read runs it; a submodule counts as run once its type is
``types.ModuleType`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import szegedtools

HEAVY = ("dataclasses", "fractions", "inspect")
NOT_FOR_COMPUTE = (
    "szegedtools.verify",
    "szegedtools.enumeration",
    "szegedtools.canon",
    "szegedtools.bounds",
)

PROBE = """
import json, sys, types
before = set(sys.modules)
{body}
added = set(sys.modules) - before
ran = [m for m in added if type(sys.modules[m]) is types.ModuleType]
print(json.dumps({{"added": sorted(added), "ran": sorted(ran)}}))
"""

RUN_MAIN = """
import contextlib, io
from szegedtools.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""

SUBMODULES = {
    f"szegedtools.{name}"
    for name in (
        "bounds",
        "canon",
        "enumeration",
        "errors",
        "families",
        "formats",
        "graphs",
        "indices",
        "verify",
    )
}


def footprint(body: str) -> tuple[set[str], set[str]]:
    """The modules a fresh interpreter adds to ``sys.modules`` while it
    runs ``body``, and those of them it has run."""
    src = str(Path(szegedtools.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    return set(found["added"]), set(found["ran"])


class TestImportFootprint:
    def test_import_runs_no_submodule(self):
        added, ran = footprint("import szegedtools")
        assert not added & set(HEAVY)
        assert ran == {"szegedtools"}
        # Code that finds the submodules through sys.modules, as the
        # benchmark's tracer does, still finds every one of them.
        assert added == {"szegedtools", *SUBMODULES}

    def test_a_name_runs_its_submodule(self):
        added, ran = footprint("import szegedtools\nszegedtools.edge_revised_szeged")
        assert {"szegedtools.graphs", "szegedtools.indices"} <= ran
        assert not ran & {"szegedtools.verify", "szegedtools.families"}
        assert not added & set(HEAVY)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--g6", "Bw"],
            ["compute", "--g6", "DQw", "--edges", "--format", "human"],
            ["compute", "--g6", "DQw", "--format", "csv"],
            ["build", "c1", "--n", "9", "--k", "2"],
            ["build", "bundle", "--lengths", "3,4", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_compute_and_build_skip_enumeration_and_verify(self, argv):
        added, ran = footprint(RUN_MAIN.format(argv=argv))
        assert "szegedtools.graphs" in ran
        assert not ran & set(NOT_FOR_COMPUTE)
        assert not added & set(HEAVY)

    def test_compute_runs_only_what_it_uses(self):
        _, ran = footprint(RUN_MAIN.format(argv=["compute", "--g6", "Bw"]))
        assert {m for m in ran if m.startswith("szegedtools")} == {
            "szegedtools",
            "szegedtools.cli",
            "szegedtools.errors",
            "szegedtools.formats",
            "szegedtools.graphs",
            "szegedtools.indices",
        }

    def test_verify_runs_verify(self):
        _, ran = footprint(RUN_MAIN.format(argv=["verify", "lemma2.1", "--max-n", "3"]))
        assert "szegedtools.verify" in ran


class TestPublicNames:
    def test_every_name_resolves_and_is_listed(self):
        listed = dir(szegedtools)
        assert len(set(szegedtools.__all__)) == len(szegedtools.__all__)
        for name in szegedtools.__all__:
            assert getattr(szegedtools, name) is not None
            assert name in listed

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            szegedtools.no_such_name  # noqa: B018
        assert not hasattr(szegedtools, "no_such_name")

    def test_star_import(self):
        namespace = {}
        exec("from szegedtools import *", namespace)
        assert set(szegedtools.__all__) <= set(namespace)
