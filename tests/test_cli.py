import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krrdeteq
import krrdeteq.cli as cli
from krrdeteq import harness, krr
from krrdeteq.cli import main
from krrdeteq.config import FIELD_TYPES, KIND_FIELDS

SUBCOMMANDS = ("simulate", "sphere", "gcv-sweep", "probe-functionals", "estimate", "deteq")
POWER_LAW = {"kind": "power_law", "exponent": 2.0, "size": 30}
SIMULATE = {"kind": "gaussian_curve", "spectrum": POWER_LAW, "n_grid": [8], "lambda": 0.1}
SPHERE = {"kind": "sphere_curve", "d": 10, "gap": 8.0, "levels": 2, "n_grid": [8], "lambda": 0.0}
GCV = {"kind": "gcv_sweep", "spectrum": POWER_LAW, "noise_variance": 0.1, "n": 12, "lambda_grid": [0.1, 1.0]}
PROBE = {"kind": "functional_probe", "spectrum": POWER_LAW, "lambda": 0.5, "n_grid": [5], "reps": 2}
ESTIMATE = {"kind": "estimate_and_predict", "spectrum": POWER_LAW, "holdout": 40, "n_grid": [8], "lambda": 0.05}
DETEQ = {
    "blocks": [[1.0, 30]],
    "alignment": [1.0],
    "residual_energy": 0.0,
    "noise_variance": 0.0,
    "lambda": 0.0,
    "n_grid": [10, 50],  # rank 30 <= 50: the second row fails
}

def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def check_contract(directory, args, doc=None):
    """Run ``main(args)`` in this process, with ``--config`` and ``--out`` appended when ``doc`` is a
    config document, and check the CLI's error contract; returns (exit code, stderr text).

    Warnings are recorded, repeats too, as pytest keeps them off stderr; an exception fails the
    test. Exit 0, 1 or 2 and no warning; exit 1 is one ``error:`` line and no table; otherwise a
    table whose failed rows set exit 2 and the one summary line, and whose ok rows hold no nan or
    inf (``deteq`` rows, with reps 0, have nan empirical columns by design).
    """
    out, stderr = directory / "rows.csv", io.StringIO()
    if doc is not None:
        args = [*args, "--config", str(write_config(directory, doc)), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(args)
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    assert not caught, [f"{w.category.__name__}: {w.message}" for w in caught]
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not out.exists()
        return code, err
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    ok = [row for row in rows if row.get("status", "ok") == "ok"]  # probe rows have no status
    failed = len(rows) - len(ok)
    assert (code, err) == ((2, f"{failed} row(s) failed; see status column\n") if failed else (0, ""))
    for row in ok:
        values = [row[k] for k in ("prediction", "lambda_star", "upsilon2")] if row.get("reps") == "0" else row.values()
        assert not {"nan", "inf", "-inf"} & set(values), row
    return code, err


def without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


HUGE = 10**400  # a JSON integer beyond the float range
PROBE_50 = {**PROBE, "spectrum": {**POWER_LAW, "size": 50}, "n_grid": [10, 20]}
U64 = "seed must be in [0, 2**64)"
# id -> (arguments, config document or None, needle or None). A document is written and passed
# with --config and --out after the arguments; leading NAME=value arguments set the environment,
# as in a shell. A needle means exit 1 with one error line that holds it.
CONTRACT = {
    # argv mistakes
    "argv-no-subcommand": ((), None, "the following arguments are required: command"),
    "argv-unknown-subcommand": (("frobnicate",), None, "invalid choice: 'frobnicate'"),
    "argv-no-config": (("simulate",), None, "the following arguments are required: --config"),
    "argv-missing-file": (("simulate", "--config", "missing.json"), None, "No such file"),
    "argv-threads-abc": (("simulate", "--threads", "abc"), SIMULATE, "argument --threads: invalid int value: 'abc'"),
    "argv-format-xml": (("simulate", "--format", "xml"), SIMULATE, "argument --format: invalid choice: 'xml'"),
    "argv-kind-mismatch": (("sphere",), {"kind": "gaussian_curve", "n_grid": [4], "reps": 1}, "does not match"),
    # one threads rule: the config's own check, whichever way the count arrives
    "argv-threads-0": (("simulate", "--threads", "0"), SIMULATE, "threads must be >= 1"),
    "argv-threads-negative": (("simulate", "--threads", "-2"), SIMULATE, "threads must be >= 1"),
    "env-threads-0": (("KRRDETEQ_THREADS=0", "simulate"), SIMULATE, "threads must be >= 1"),
    "env-threads-abc": (("KRRDETEQ_THREADS=abc", "simulate"), SIMULATE, "KRRDETEQ_THREADS must be an integer"),
    "simulate-threads-0": (("simulate",), {**SIMULATE, "threads": 0}, "threads"),
    # deteq has no workers, yet its count keeps the same rule
    "deteq-argv-threads-0": (("deteq", "--threads", "0"), DETEQ, "threads must be >= 1"),
    "deteq-env-threads-0": (("KRRDETEQ_THREADS=0", "deteq"), DETEQ, "threads must be >= 1"),
    "deteq-env-threads-abc": (("KRRDETEQ_THREADS=abc", "deteq"), DETEQ, "KRRDETEQ_THREADS must be an integer"),
    # a seed outside [0, 2**64) would name the stream of its residue mod 2**64
    "argv-seed-negative": (("simulate", "--seed", "-1"), SIMULATE, U64),
    "simulate-seed-past-u64": (("simulate",), {**SIMULATE, "seed": 2**64}, U64),
    "deteq-argv-seed-negative": (("deteq", "--seed", "-1"), DETEQ, U64),
    "deteq-seed-past-u64": (("deteq",), {**DETEQ, "seed": 2**64}, U64),
    # a negative target energy is a config error before any square root, so numpy gives no warning
    "simulate-negative-target": (
        ("simulate",),
        {**SIMULATE, "spectrum": {"kind": "blocks", "blocks": [[1, 2]]}, "target": {"kind": "energies", "values": [-1]}},
        "error: target values must be finite and >= 0\n",
    ),
    # malformed documents
    "simulate-not-object": (("simulate",), [1, 2], "JSON object"),
    "deteq-not-object": (("deteq",), [1, 2], "JSON object"),
    "simulate-reps-string": (("simulate",), {**SIMULATE, "reps": "3"}, "'reps'"),
    "simulate-negative-lambda": (("simulate",), {**SIMULATE, "lambda": -0.1}, "lambda"),
    "simulate-inf-lambda": (("simulate",), {**SIMULATE, "lambda": math.inf}, "lambda"),
    "simulate-nan-lambda": (("simulate",), {**SIMULATE, "lambda": math.nan}, "lambda"),
    "gcv-negative-lambda-grid": (("gcv-sweep",), {**GCV, "lambda_grid": [-0.1, 1.0]}, "lambda_grid"),
    "simulate-gap-field": (("simulate",), {**SIMULATE, "gap": 8.0}, "'gap'"),
    "simulate-holdout-field": (("simulate",), {**SIMULATE, "holdout": 100}, "'holdout'"),
    "simulate-n-grid-0": (("simulate",), {**SIMULATE, "n_grid": [0, 10]}, "n_grid"),
    "probe-n-grid-0": (("probe-functionals",), {**PROBE, "n_grid": [0, 10]}, "n_grid"),
    "estimate-truncation-past-holdout": (("estimate",), {**ESTIMATE, "truncation": 500, "holdout": 20}, "truncation"),
    "estimate-truncation-0": (("estimate",), {**ESTIMATE, "truncation": 0}, "truncation"),
    # an 800 TB request fails at once, before any memory is touched
    "simulate-huge-size": (("simulate",), {**SIMULATE, "spectrum": {**POWER_LAW, "size": 10**14}}, "error: Unable to allocate"),
    # sub-documents reject keys their kind does not read, as top-level configs do
    "simulate-spectrum-typo-field": (("simulate",), {**SIMULATE, "spectrum": {**POWER_LAW, "typo_field": 3}}, "'typo_field'"),
    "simulate-blocks-spectrum-size": (
        ("simulate",), {**SIMULATE, "spectrum": {"kind": "blocks", "blocks": [[1.0, 3]], "size": 3}}, "'size'"
    ),
    "simulate-target-bogus-field": (("simulate",), {**SIMULATE, "target": {"kind": "random_unit", "bogus": 1}}, "'bogus'"),
    "simulate-target-exponent-field": (
        ("simulate",), {**SIMULATE, "target": {"kind": "energies", "values": [1.0], "exponent": 1}}, "'exponent'"
    ),
    "simulate-boolean-exponent": (("simulate",), {**SIMULATE, "spectrum": {**POWER_LAW, "exponent": True}}, "'exponent'"),
    "simulate-spectrum-kind-list": (("simulate",), {**SIMULATE, "spectrum": {"kind": ["power_law"]}}, "spectrum kind"),
    "sphere-energies-word-key": (("sphere",), {**SPHERE, "energies": {"one": 1.0}}, "energies"),
    "sphere-energies-fraction-key": (("sphere",), {**SPHERE, "energies": {"1.5": 1.0}}, "energies"),
    "sphere-energies-duplicate-key": (("sphere",), {**SPHERE, "energies": {"1": 1.0, "01": 0.5}}, "energies"),
    # JSON booleans are not numbers, in block lists either
    "simulate-boolean-multiplicity": (
        ("simulate",), {**SIMULATE, "spectrum": {"kind": "blocks", "blocks": [[1.0, True]]}}, "booleans"
    ),
    "deteq-boolean-multiplicity": (("deteq",), {**DETEQ, "blocks": [[1.0, True]]}, "booleans"),
    "deteq-boolean-eigenvalue": (("deteq",), {**DETEQ, "blocks": [[True, 30]]}, "booleans"),
    "deteq-boolean-alignment": (("deteq",), {**DETEQ, "alignment": [True]}, "booleans"),
    # the deteq model document
    "deteq-no-alignment": (("deteq",), without(DETEQ, "alignment"), "'alignment'"),
    "deteq-no-blocks": (("deteq",), without(DETEQ, "blocks"), "'blocks'"),
    "deteq-no-n": (("deteq",), without(DETEQ, "n_grid"), "'n'"),
    "deteq-negative-lambda": (("deteq",), {**DETEQ, "lambda": -1}, "lambda"),
    "deteq-fractional-multiplicity": (("deteq",), {**DETEQ, "blocks": [[1.0, 2.7]]}, "multiplicities must be integers"),
    "deteq-n-grid-0": (("deteq",), {**DETEQ, "n_grid": [0, 10]}, "n_grid"),
    "deteq-negative-n": (("deteq",), {**without(DETEQ, "n_grid"), "n": -3}, "n_grid"),
    "deteq-rank-past-2-63": (
        ("deteq",), {**DETEQ, "blocks": [[1.0, 2**62], [0.5, 2**62 + 5]], "alignment": [1.0, 1.0]}, "2**63"
    ),
    # n_grid wins over n, even when it is empty
    "deteq-empty-n-grid": (("deteq",), {**DETEQ, "n_grid": []}, "n_grid must be nonempty"),
    "deteq-empty-n-grid-with-n": (("deteq",), {**DETEQ, "n": 5, "n_grid": []}, "n_grid must be nonempty"),
    # extreme values, which keep the contract whatever the exit code. A probe replication
    # fails: a non-finite functional, then zero predictions
    "probe-tiny-lambda": (("probe-functionals",), {**PROBE_50, "lambda": 1e-300}, None),
    "probe-huge-lambda": (("probe-functionals",), {**PROBE_50, "lambda": 1e308}, None),
    "probe-tiny-eigenvalue": (("probe-functionals",), {**PROBE_50, "spectrum": {"kind": "blocks", "blocks": [[1e-300, 50]]}, "lambda": 1.0}, None),
    # finite replications whose squared deviations overflow
    "simulate-huge-noise": (("simulate",), {**SIMULATE, "noise_variance": 1e300, "reps": 3}, None),
    "gcv-huge-noise": (("gcv-sweep",), {**GCV, "noise_variance": 1e300, "reps": 3}, None),
    "sphere-huge-noise": (("sphere",), {**SPHERE, "lambda": 0.1, "noise_variance": 1e300, "reps": 3}, None),
    "estimate-huge-noise": (("estimate",), {**ESTIMATE, "noise_variance": 1e300, "reps": 3}, None),
    # a number field that holds an integer too large for a float
    "simulate-huge-lambda": (("simulate",), {**SIMULATE, "lambda": HUGE}, None),
    "sphere-huge-lambda": (("sphere",), {**SPHERE, "lambda": HUGE}, None),
    "probe-huge-int-lambda": (("probe-functionals",), {**PROBE, "lambda": HUGE}, None),
    "estimate-huge-lambda": (("estimate",), {**ESTIMATE, "lambda": HUGE}, None),
    "deteq-huge-lambda": (("deteq",), {**DETEQ, "lambda": HUGE}, None),
    "gcv-huge-lambda-grid": (("gcv-sweep",), {**GCV, "lambda_grid": [0.1, HUGE]}, None),
    "gcv-huge-noise-variance": (("gcv-sweep",), {**GCV, "noise_variance": HUGE}, None),
    "simulate-huge-exponent": (("simulate",), {**SIMULATE, "spectrum": {**POWER_LAW, "exponent": HUGE}}, None),
    "simulate-huge-target": (
        ("simulate",),
        {**SIMULATE, "spectrum": {"kind": "blocks", "blocks": [[1.0, 30]]}, "target": {"kind": "energies", "values": [HUGE]}},
        None,
    ),
    "sphere-huge-gap": (("sphere",), {**SPHERE, "gap": HUGE}, None),
    "sphere-huge-energy": (("sphere",), {**SPHERE, "energies": {"1": HUGE}}, None),
    "deteq-huge-alignment": (("deteq",), {**DETEQ, "alignment": [HUGE]}, None),
    "deteq-huge-residual": (("deteq",), {**DETEQ, "residual_energy": HUGE}, None),
    # kernel coefficients whose squares overflow, with a finite prediction
    "sphere-huge-coefficient": (("sphere",), {**SPHERE, "d": 5, "levels": 3, "gap": 1e-100, "lambda": 0.1, "n_grid": [10]}, None),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_error_contract(tmp_path, monkeypatch, case):
    """Each hand-picked bad or extreme input keeps the CLI's error contract."""
    args, doc, needle = CONTRACT[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KRRDETEQ_THREADS", raising=False)
    env = list(itertools.takewhile(lambda arg: "=" in arg, args))
    for word in env:
        monkeypatch.setenv(*word.split("=", 1))
    code, err = check_contract(tmp_path, args[len(env):], doc)
    assert needle is None or (code == 1 and needle in err), err


@pytest.mark.parametrize("args", [["-h"], ["simulate", "--help"]])
def test_help_exits_0_on_stdout(capsys, args):
    assert main(args) == 0
    printed = capsys.readouterr()
    assert printed.out.startswith("usage: krrdeteq") and printed.err == ""


class TestDeteqCommand:
    def test_predictions_from_model_document(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "blocks": [[1.0, 200]],
                "alignment": [1.0],
                "residual_energy": 0.0,
                "noise_variance": 0.0,
                "lambda": 1.0,
                "n_grid": [100],
            },
        )
        out = tmp_path / "pred.csv"
        code = main(["deteq", "--config", str(config), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["lambda_star"]) == pytest.approx((101 + np.sqrt(10601)) / 200, rel=1e-10)
        assert float(row["prediction"]) == pytest.approx(0.50009, rel=1e-3)

    def test_no_nu_diagnostic(self, tmp_path, monkeypatch):
        """nu describes how replications concentrate; deteq rows have none, so it is never formed."""
        calls = []
        nu = harness.nu_diagnostic
        monkeypatch.setattr(harness, "nu_diagnostic", lambda *args: calls.append(args) or nu(*args))
        out, config = tmp_path / "pred.csv", write_config(tmp_path, {**DETEQ, "lambda": 0.1, "n_grid": [10, 20]})
        assert main(["deteq", "--config", str(config), "--out", str(out)]) == 0
        assert calls == []
        assert main(["simulate", "--config", str(write_config(tmp_path, SIMULATE)), "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_model_document_is_not_reserialized(self, tmp_path, monkeypatch):
        """The parsed config goes to model_from_json as is: no json.dumps on the deteq path."""
        config = write_config(tmp_path, {**DETEQ, "n_grid": [10]})

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called on the deteq path")

        monkeypatch.setattr(json, "dumps", refuse)
        assert main(["deteq", "--config", str(config), "--out", str(tmp_path / "pred.csv")]) == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_config_parse_restores_gc_state(self, tmp_path, capsys, monkeypatch, enabled):
        """The cyclic GC is paused only while the config parses, on success and on a malformed document."""
        good = write_config(tmp_path, {**DETEQ, "n_grid": [10]})
        bad = tmp_path / "bad.json"
        bad.write_text('{"blocks": [[1.0, 30]], "alignment": [1.0')
        during = []
        load = json.load

        def watched(handle):
            during.append(gc.isenabled())
            return load(handle)

        monkeypatch.setattr(json, "load", watched)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["deteq", "--config", str(good), "--out", str(tmp_path / "pred.csv")]) == 0
            assert gc.isenabled() is enabled
            assert main(["deteq", "--config", str(bad), "--out", str(tmp_path / "bad.csv")]) == 1
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False, False]
        assert capsys.readouterr().err.startswith("error: ")

    def test_output_independent_of_blas_threads(self, tmp_path):
        """The block sums stay out of threaded BLAS, whose long dot products split by thread count."""
        k = np.arange(1, 20001, dtype=float)
        doc = {
            "blocks": [[float(v), 1] for v in k**-2.0],
            "alignment": [float(v) for v in k**-2.0],
            "noise_variance": 0.25,
            "lambda": 1e-3,
            "n_grid": [10, 100, 1000, 10000],
        }
        config = write_config(tmp_path, doc)
        src = str(Path(krrdeteq.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"pred{threads}.csv"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            argv = [sys.executable, "-m", "krrdeteq.cli", "deteq", "--config", str(config), "--out", str(out)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestExperimentCommands:
    def test_seed_override_changes_output(self, tmp_path):
        doc = {
            "kind": "gaussian_curve",
            "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 40},
            "noise_variance": 0.1,
            "n_grid": [8],
            "lambda": 0.1,
            "reps": 2,
            "seed": 3,
        }
        config = write_config(tmp_path, doc)
        out1, out2, out3 = (tmp_path / f"c{i}.csv" for i in range(3))
        main(["simulate", "--config", str(config), "--out", str(out1)])
        main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "99"])
        main(["simulate", "--config", str(config), "--out", str(out3), "--seed", "3"])
        assert out1.read_bytes() != out2.read_bytes()
        assert out1.read_bytes() == out3.read_bytes()

    @pytest.mark.parametrize("command,doc,runner", [("simulate", SIMULATE, "run_experiment"), ("deteq", DETEQ, "_prediction_rows")])
    def test_missing_output_path_fails_before_the_run(self, tmp_path, monkeypatch, capsys, command, doc, runner):
        monkeypatch.setattr(cli, runner, lambda *args: pytest.fail("ran without an output path"))
        assert main([command, "--config", str(write_config(tmp_path, doc))]) == 1
        assert capsys.readouterr().err == "error: no output path: pass --out or set output_path in the config\n"

    @pytest.mark.parametrize(
        "command,doc",
        [
            (
                "sphere",
                {
                    "kind": "sphere_curve",
                    "d": 10,
                    "gap": 8.0,
                    "levels": 2,
                    "noise_variance": 0.1,
                    "n_grid": [8, 16],
                    "lambda": 0.0,
                    "reps": 2,
                    "seed": 0,
                },
            ),
            (
                "gcv-sweep",
                {
                    "kind": "gcv_sweep",
                    "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 30},
                    "noise_variance": 0.1,
                    "n": 12,
                    "lambda_grid": [0.1, 1.0],
                    "reps": 2,
                    "seed": 0,
                },
            ),
            (
                "estimate",
                {
                    "kind": "estimate_and_predict",
                    "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 20},
                    "noise_variance": 0.05,
                    "holdout": 100,
                    "n_grid": [8, 16],
                    "lambda": 0.05,
                    "reps": 2,
                    "seed": 0,
                },
            ),
            ("simulate", {**SIMULATE, "noise_variance": 0.1, "n_grid": [8, 16], "reps": 2, "seed": 0}),
            ("probe-functionals", {**PROBE, "n_grid": [5, 10], "reps": 2, "seed": 0}),
        ],
    )
    def test_each_subcommand_runs(self, tmp_path, command, doc):
        """Every sampled subcommand writes the same bytes on one worker thread and on three."""
        config = write_config(tmp_path, doc)
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"rows{threads}.csv"
            assert main([command, "--config", str(config), "--out", str(out), "--threads", threads]) == 0
            outputs.append(out.read_bytes())
        columns = harness.PROBE_COLUMNS if command == "probe-functionals" else harness.CURVE_COLUMNS
        assert outputs[0].decode().splitlines()[0] == ",".join(columns)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "config_threads,env,flag,expected",
        [
            (None, None, None, 1),
            (2, None, None, 2),
            (2, "3", None, 3),
            (2, "3", "1", 1),
        ],
    )
    def test_threads_precedence(self, tmp_path, monkeypatch, config_threads, env, flag, expected):
        """--threads, then KRRDETEQ_THREADS, then the config's threads, then 1."""
        seen = []
        run = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda config: seen.append(config.threads) or run(config))
        if env is None:
            monkeypatch.delenv("KRRDETEQ_THREADS", raising=False)
        else:
            monkeypatch.setenv("KRRDETEQ_THREADS", env)
        doc = SIMULATE if config_threads is None else {**SIMULATE, "threads": config_threads}
        argv = ["simulate", "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "c.csv")]
        assert main(argv + (["--threads", flag] if flag else [])) == 0
        assert seen == [expected]


# Any JSON value, built mostly from config field names and kind names so that
# documents reach the field checks; every size is at most 50.
_WORDS = sorted(KIND_FIELDS) + ["power_law", "blocks", "random_unit", "energies", "identity", "rank_one"]
_KEYS = st.sampled_from(sorted(FIELD_TYPES) + ["exponent", "size", "values"]) | st.text(max_size=3)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 50)
    | st.floats(-50, 50)
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.sampled_from(_WORDS)
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=12,
)


VALID = dict(zip(SUBCOMMANDS, (SIMULATE, SPHERE, GCV, PROBE, ESTIMATE, DETEQ)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(SUBCOMMANDS),
    doc=st.dictionaries(_KEYS, _VALUES, max_size=8) | _VALUES,
    on_valid=st.booleans(),
)
def test_any_json_document_exits_0_1_or_2(command, doc, on_valid):
    if on_valid and isinstance(doc, dict):
        doc = {**VALID[command], **doc}  # a valid config with some fields replaced
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(Path(tmp), [command], doc)


class TestRowFormat:
    """Failure rows hold only inputs, nan and the status text, so their bytes do not depend on BLAS."""

    def test_deteq_nonfinite_prediction_is_a_failed_row(self, tmp_path, capsys):
        doc = {"blocks": [[1.0, 1], [0.5, 1]], "alignment": [1e308, 1e308], "residual_energy": 1e308}
        doc |= {"lambda": 0.1, "n": 1}
        out = tmp_path / "pred.csv"
        assert main(["deteq", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        row = out.read_text().splitlines()[1]
        assert row.startswith("deteq,1,0.1,nan,") and "SpectrumError" in row and "not finite" in row
        assert capsys.readouterr().err == "1 row(s) failed; see status column\n"

    def test_nonfinite_replication_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(krr, "test_error_linear_exact", lambda *args: math.inf)
        out = tmp_path / "curve.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path, SIMULATE)), "--out", str(out)]) == 2
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert row["status"] == "error: non-finite value inf"
        assert (row["empirical_mean"], row["empirical_std"]) == ("nan", "nan")
        assert math.isfinite(float(row["prediction"]))
        assert capsys.readouterr().err == "1 row(s) failed; see status column\n"



BENCH = Path(__file__).resolve().parents[1] / "bench"
# one small config per benchmark workload, keyed by workload name
SPAN_CONFIGS = {"gcv-sweep": GCV, "sphere-curve": SPHERE, "deteq-grid": DETEQ, "probe-identity": PROBE}
# calls per span on each SPAN_CONFIGS entry, recorded with bench/tracing.py's monkeypatch
# tracer; a change that keeps the work keeps these counts
SPAN_CALLS = {
    "deteq-grid": {
        "cli.main": 1, "deteq.deterministic_equivalents": 1, "deteq.solve_effective_reg": 1,
        "harness.emit_results": 1, "spectrum.model_from_json": 1, "spectrum.trace_resolvents": 8,
    },
    "gcv-sweep": {
        "cli.main": 1, "deteq.deterministic_equivalents": 2, "deteq.solve_effective_reg": 2,
        "functionals.sample_gaussian_features": 1, "harness.emit_results": 1, "harness.run_experiment": 1,
        "krr.GramMatrix": 1, "krr.gcv": 2, "lapack.cho_factor": 2, "lapack.cho_solve": 2, "lapack.cholesky": 2,
        "lapack.solve_triangular": 2, "spectrum.nu_diagnostic": 2, "spectrum.trace_resolvents": 9,
    },
    "probe-identity": {
        "cli.main": 1, "deteq.solve_effective_reg": 2, "functionals.convergence_probe": 1,
        "functionals.deterministic_functionals": 2, "functionals.empirical_functionals": 2,
        "functionals.sample_gaussian_features": 2, "harness.emit_results": 1, "harness.run_experiment": 1,
        "lapack.cho_factor": 2, "lapack.cho_solve": 2, "spectrum.trace_resolvents": 8,
    },
    "sphere-curve": {
        "cli.main": 1, "deteq.deterministic_equivalents": 1, "deteq.solve_effective_reg": 1,
        "harness.emit_results": 1, "harness.run_experiment": 1, "krr.GramMatrix": 1,
        "krr.GramMatrix.eigendecomposition": 1, "krr.fit_krr": 1, "lapack.eigh": 1, "spectrum.nu_diagnostic": 1,
        "spectrum.trace_resolvents": 9, "sphere.SphereKernel.gram": 1, "sphere.exact_sphere_risk": 1,
        "sphere.sample_sphere": 1,
    },
}
# runs each (workload, config, out) subcommand with the benchmark's tracer installed once, as
# bench/child.py does, and prints per workload the declared spans that never fired and the calls per span
SPAN_SCRIPT = """
import json, sys
import krrdeteq.cli as cli
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
main = tracer.wrap("cli.main", cli.main)
report = {}
for name, config, out in json.loads(sys.argv[1]):
    tracer.spans.clear()
    main([workloads.WORKLOADS[name].subcommand, "--config", config, "--out", out])
    calls = {span: stats["calls"] for span, stats in tracing.summarize(tracer.spans).items()}
    report[name] = [[s for s in workloads.WORKLOADS[name].spans if s not in calls], calls]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def span_calls(tmp_path_factory):
    """One child interpreter runs every SPAN_CONFIGS workload under the benchmark's tracer."""
    tmp = tmp_path_factory.mktemp("spans")
    runs = [[name, str(write_config(tmp, doc, f"{name}.json")), str(tmp / f"{name}.csv")] for name, doc in SPAN_CONFIGS.items()]
    src = str(Path(krrdeteq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(BENCH)]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SPAN_SCRIPT, json.dumps(runs)], env=env, cwd=tmp, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", sorted(SPAN_CONFIGS))
def test_benchmark_spans_fire(span_calls, workload):
    """Every span the benchmark declares for a workload is still called by the CLI, as often as recorded."""
    missing, calls = span_calls[workload]
    assert missing == []
    assert calls == SPAN_CALLS[workload]


def test_config_module_loads_without_numpy():
    """``krrdeteq/config.py`` imports only the standard library: loaded by path, with no package
    ``__init__`` to run, it checks a document of each kind while numpy and scipy stay unloaded."""
    script = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("krrdeteq_config", sys.argv[1])
config = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclass looks its module up there
spec.loader.exec_module(config)
for command, doc in json.loads(sys.argv[2]):
    config.deteq_settings(doc) if command == "deteq" else config.ExperimentConfig.from_dict(doc)
print(sorted({"numpy", "scipy"} & set(sys.modules)))
"""
    path = str(Path(krrdeteq.__file__).resolve().parent / "config.py")
    proc = subprocess.run(
        [sys.executable, "-c", script, path, json.dumps(list(VALID.items()))], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_scipy_special():
    """The sphere kernel's normalization is closed form, so loading the CLI never loads scipy.special."""
    src = str(Path(krrdeteq.__file__).resolve().parents[1])
    script = "import sys, krrdeteq.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
