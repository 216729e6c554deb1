"""Golden artifact digests: every command's files equal a committed table.

Every command runs once, in-process, on one small synthetic config, and the
SHA-256 of each file it writes is compared with ``tests/golden/numpy<N>.json``
for the installed numpy major N. A change that claims its outputs are
unchanged passes this test unedited; a change that alters outputs on purpose
rewrites the table and its diff names the files that changed.

Rewrite the table for the installed numpy with::

    PYTHONPATH=src python tests/test_golden.py

With ``RTCAST_GOLDEN_OUT=<path>`` set, the test also writes the table it
computed to that path, so a table for another numpy major can be made on a
machine that has it. Without a table for the installed major the test skips,
naming that major; with one, any difference fails.
"""
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rtcast import cli, gbm

CONFIG = """\
data.source = synth
synth.days = 40
model.n_trees = 30
"""

#: (output directory, argv) per command, in run order. The two ``explain
#: pffra`` protocols write a manifest of the same name, and the two ``ablate``
#: forms both write ``ablation.csv``, so each has its own directory; the
#: ``explain pffra`` runs read the model from ``out``.
COMMANDS = (
    ("out", ["synth"]),
    ("out", ["split"]),
    ("out", ["ingest", "--csv", "out/synthetic.csv"]),
    ("out", ["train"]),
    ("out", ["evaluate"]),
    ("pffra_static", ["explain", "pffra", "--feature", "MVART", "--model", "out/model.json"]),
    ("pffra_rolling", ["explain", "pffra", "--feature", "MVART", "--protocol", "rolling",
                       "--model", "out/model.json"]),
    ("out", ["explain", "shap", "--instance", "0"]),
    ("out", ["explain", "lime", "--instance", "0"]),
    ("out", ["explain", "importance"]),
    ("out", ["explain", "pdp"]),
    ("out", ["explain", "surrogate"]),
    ("out", ["diagnose", "adf"]),
    ("out", ["diagnose", "acf"]),
    ("out", ["diagnose", "pacf"]),
    ("out", ["diagnose", "hist"]),
    ("out", ["ablate", "--skip-sweeps"]),
    ("ablate", ["ablate"]),
)

NUMPY_MAJOR = int(np.__version__.split(".")[0])
TABLE = Path(__file__).parent / "golden" / f"numpy{NUMPY_MAJOR}.json"


def run_commands(root: Path) -> dict:
    """Run every command under ``root`` (the working directory, so the
    paths that manifests record are relative) and return the digest table:
    ``"<directory>/<file>"`` -> SHA-256, sorted by name."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("golden.ini").write_text(CONFIG)
        for out, argv in COMMANDS:
            code = cli.main(["--config", "golden.ini", "--out", out, "--quiet", *argv])
            assert code == 0, f"{' '.join(argv)} exited {code}"
        return {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for out in sorted({out for out, _ in COMMANDS})
            for path in sorted(Path(out).iterdir())
        }
    finally:
        os.chdir(cwd)


def write_table(path, digests: dict) -> None:
    doc = {"numpy_major": NUMPY_MAJOR, "artifacts": digests}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def differences(want: dict, got: dict) -> dict:
    """The names missing from ``got``, new in it, and with another digest."""
    return {
        "missing": sorted(want.keys() - got.keys()),
        "new": sorted(got.keys() - want.keys()),
        "changed": sorted(name for name in want.keys() & got.keys() if want[name] != got[name]),
    }


def test_every_artifact_matches_its_golden_digest(tmp_path):
    dump = os.environ.get("RTCAST_GOLDEN_OUT")
    if not TABLE.exists() and not dump:
        pytest.skip(f"no golden digest table for numpy {NUMPY_MAJOR}.x ({TABLE.name})")
    if dump:
        dump = os.path.abspath(dump)
    got = run_commands(tmp_path)
    if dump:
        write_table(dump, got)
    if not TABLE.exists():
        pytest.skip(f"no golden digest table for numpy {NUMPY_MAJOR}.x ({TABLE.name}); "
                    f"the computed one is in {dump}")
    assert differences(json.loads(TABLE.read_text())["artifacts"], got) \
        == {"missing": [], "new": [], "changed": []}


def test_every_artifact_matches_its_golden_digest_on_two_processes(tmp_path, monkeypatch):
    """The golden run trains on fewer rows than ``gbm.PARALLEL_ROWS``, so the
    test above grows every tree alone. Here every ``train`` shares its trees
    with a forked worker, and every artifact keeps its digest."""
    if not TABLE.exists():
        pytest.skip(f"no golden digest table for numpy {NUMPY_MAJOR}.x ({TABLE.name})")
    forks = []
    fork = gbm._Worker.fork
    monkeypatch.setattr(gbm._Worker, "fork",
                        classmethod(lambda cls, *arrays: forks.append(None) or fork(*arrays)))
    monkeypatch.setattr(gbm, "PARALLEL_ROWS", 0)
    monkeypatch.setattr(gbm, "_cpus", lambda: 2)
    got = run_commands(tmp_path)
    assert forks
    assert differences(json.loads(TABLE.read_text())["artifacts"], got) \
        == {"missing": [], "new": [], "changed": []}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = run_commands(Path(root))
    old = json.loads(TABLE.read_text())["artifacts"] if TABLE.exists() else {}
    for kind, names in differences(old, digests).items():
        print(f"{kind}: {', '.join(names) or '(none)'}", file=sys.stderr)
    TABLE.parent.mkdir(exist_ok=True)
    write_table(TABLE, digests)
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
