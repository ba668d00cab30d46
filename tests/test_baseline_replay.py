"""The CLI answers of the benchmark pools are byte-identical to the ones
recorded in perfbench/baseline.json.

The benchmark gate hashes the stdout of every pool instance against that
file; replaying each CLI key here, in process, shows a changed answer in
the test suite before a benchmark run does.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from derhamz import cli

BASELINE = Path(__file__).resolve().parent.parent / "perfbench" / \
    "baseline.json"
# the other keys are library calls of the oracle workload
CLI_KEYS = [key for key in json.loads(BASELINE.read_text())
            if key.split()[0] in ("cohomology", "pages", "verify")]


def test_every_cli_command_is_replayed():
    assert {key.split()[0] for key in CLI_KEYS} == {"cohomology", "pages",
                                                    "verify"}


@pytest.mark.parametrize("key", CLI_KEYS)
def test_stdout_matches_the_recorded_hash(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(key.split())
    # verify --all exits 1 on the known criterion-8b failures
    assert code == (1 if key.startswith("verify") else 0), key
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == json.loads(BASELINE.read_text())[key], key
