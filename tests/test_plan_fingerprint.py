import importlib.util
import pickle
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "plan_fingerprint", Path(__file__).parents[1] / "tools" / "plan_fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)


def test_compare_prints_the_largest_difference_of_a_numeric_field(tmp_path, capsys):
    """A field that differs in numbers only reads with its largest absolute
    difference, one that differs otherwise says so, and the last line and
    the exit code are those CI reads."""
    rec = {"status": "ok", "refine": {"qps": [("optimal", 25, np.array([1.0, 2.0]))],
                                      "residuals": [0.5, 0.25], "failure": None}}
    moved = {"status": "ok", "refine": {"qps": [("optimal", 25, np.array([1.0, 2.0 + 3e-9]))],
                                        "residuals": [0.5, 0.25], "failure": {"agent": 1}}}
    paths = []
    for name, records in (("a", {("w", 0): rec}), ("b", {("w", 0): moved})):
        paths.append(tmp_path / f"{name}.pkl")
        paths[-1].write_bytes(pickle.dumps(records))

    assert fingerprint.compare(paths[0], paths[0]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": identical")
    assert fingerprint.compare(*paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["differs: ('w', 0) refine.failure (not in numbers only)",
                     "differs: ('w', 0) refine.qps (largest |difference| 3e-09)",
                     "compared 1 instances: 2 differences"]
