"""The CLI's output bytes, exit codes and stderr equal the goldens in ``tests/golden``.

The goldens pin behaviour; they are not oracles.  ``python tests/golden/regen.py``
rewrites them and prints the worst relative change per numeric column.
"""

from pathlib import Path

from golden.regen import EXPECTED, run_cases


def test_outputs_match_goldens(tmp_path):
    run_cases(tmp_path, threads=(1, 2))
    expected = {path.name: path.read_bytes() for path in EXPECTED.iterdir()}
    assert len(expected) > 30
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        got = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(got) == sorted(expected), f"--threads {threads}"
        assert [name for name in sorted(expected) if got[name] != expected[name]] == [], f"--threads {threads}"
