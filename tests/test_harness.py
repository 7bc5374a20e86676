import math
import weakref

import numpy as np
import pytest

from krrdeteq import functionals, krr
from krrdeteq.config import ConfigError, ExperimentConfig
from krrdeteq.harness import CURVE_COLUMNS, _prediction_rows, run_experiment
from krrdeteq.seeds import derive_rng, derive_seed, replicate
from krrdeteq.spectrum import Alignment, ModelSpec, NoiseModel, Spectrum


def tiny_gaussian_config(**overrides):
    doc = {
        "kind": "gaussian_curve",
        "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 60},
        "target": {"kind": "random_unit"},
        "noise_variance": 0.1,
        "n_grid": [10, 20],
        "lambda": 0.1,
        "reps": 3,
        "seed": 4,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestSeeds:
    def test_deterministic_and_key_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1) != derive_seed(2)

    def test_generators_independent_of_order(self):
        a = derive_rng(9, 0, 5).standard_normal(4)
        b = derive_rng(9, 1, 5).standard_normal(4)
        a2 = derive_rng(9, 0, 5).standard_normal(4)
        np.testing.assert_array_equal(a, a2)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_replicate_groups_streams_per_grid_entry(self, threads):
        """replicate returns reps results per grid entry; job (i, rep) sees derive_rng(seed, tag, i, rep)."""
        grid = [5, 8, 13]
        got = replicate(7, 42, grid, 4, lambda x, rng: (x, rng.random()), threads)
        want = [[((x, derive_rng(7, 42, i, rep).random()), None) for rep in range(4)] for i, x in enumerate(grid)]
        assert got == want

    @pytest.mark.parametrize("threads", [1, 3])
    def test_replicate_records_failures(self, threads):
        """A task that raises, or returns a value that is not all finite, gives (nan, error); the rest complete."""

        def task(x, rng):
            if x == "raise":
                raise KeyError("missing")
            return {"nan": math.nan, "inf": -math.inf, "tuple": (1.0, math.nan), "ok": (1.0, rng.random())}[x]

        got = replicate(3, 9, ["raise", "nan", "inf", "tuple", "ok"], 2, task, threads)
        messages = ["KeyError: 'missing'", "non-finite value nan", "non-finite value -inf", "non-finite value (1.0, nan)"]
        assert [[error for _, error in point] for point in got] == [[m, m] for m in messages] + [[None, None]]
        assert all(math.isnan(value) for point in got[:4] for value, _ in point)
        assert [value for value, _ in got[4]] == [(1.0, derive_rng(3, 9, 4, rep).random()) for rep in range(2)]

    def test_replicate_empty_grid_or_reps(self):
        def task(x, rng):
            raise AssertionError("no job expected")

        assert replicate(3, 1, [], 5, task, 3) == []
        assert replicate(3, 1, [10, 20], 0, task, 3) == [[], []]


class TestConfig:
    """The positive cases, an unknown kind, which the CLI cannot express (each subcommand fixes its kind),
    and the unknown-field and truncation checks on the config itself; the CONTRACT table in
    tests/test_cli.py holds the other malformed configs, each through the CLI."""

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "mystery", "reps": 1})

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            tiny_gaussian_config(typo_field=1)

    def test_lambda_alias(self):
        config = tiny_gaussian_config()
        assert config.lam == 0.1

    @pytest.mark.parametrize("truncation", [0, 21])
    def test_truncation_within_holdout(self, truncation):
        doc = {"kind": "estimate_and_predict", "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 9},
               "holdout": 20, "n_grid": [4], "lambda": 0.1, "truncation": truncation}
        with pytest.raises(ConfigError, match="truncation"):
            ExperimentConfig.from_dict(doc)
        assert ExperimentConfig.from_dict({**doc, "truncation": 20}).truncation == 20

    def test_overrides(self):
        config = tiny_gaussian_config().with_overrides(seed=99, threads=2)
        assert config.seed == 99 and config.threads == 2


class TestGaussianCurve:
    def test_rows_and_determinism(self):
        config = tiny_gaussian_config()
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        assert r1.rows == r2.rows
        assert [row["n"] for row in r1.rows] == [10, 20]
        for row in r1.rows:
            # emitted columns plus the in-memory nu diagnostic
            assert set(row) == set(CURVE_COLUMNS) | {"nu"}
            assert row["status"] == "ok"
            assert math.isfinite(row["prediction"])
            assert row["nu"] >= 1.0

    def test_nonfinite_replication_fails_its_row(self, monkeypatch):
        """A replication that returns nan is a failure, not a silently dropped value."""
        exact = krr.test_error_linear_exact
        calls = []

        def second_is_nan(*args):
            calls.append(args)
            return math.nan if len(calls) == 2 else exact(*args)

        monkeypatch.setattr(krr, "test_error_linear_exact", second_is_nan)
        first, rest = run_experiment(tiny_gaussian_config()).rows
        assert first["status"] == "error: non-finite value nan"
        assert math.isfinite(first["empirical_mean"]) and rest["status"] == "ok"

    def test_overflowing_std_is_scaled(self, monkeypatch):
        """Finite replications whose squared deviations (noise 1e300) or sum (noise 5e307) overflow
        still give an ok row: both statistics are taken on the values over a power of two."""
        exact, values = krr.test_error_linear_exact, []

        def recorded(*args):
            values.append(exact(*args))
            return values[-1]

        monkeypatch.setattr(krr, "test_error_linear_exact", recorded)
        spectrum = {"kind": "power_law", "exponent": 2.0, "size": 30}
        for noise, seed, overflowing in ((1e300, 4, np.std), (5e307, 0, np.mean)):
            values.clear()
            (row,) = run_experiment(tiny_gaussian_config(spectrum=spectrum, noise_variance=noise, n_grid=[8], seed=seed)).rows
            assert len(values) == 3 and row["status"] == "ok"
            with np.errstate(over="ignore"):
                assert overflowing(values) == math.inf
            scale = 2.0 ** (math.frexp(max(abs(v) for v in values))[1] - 1)
            assert row["empirical_mean"] == scale * float(np.mean(np.divide(values, scale)))
            assert row["empirical_std"] == scale * float(np.std(np.divide(values, scale), ddof=1))
            # scaling by the largest magnitude instead agrees to rounding
            largest = max(abs(v) for v in values)
            assert row["empirical_std"] == pytest.approx(largest * float(np.std(np.divide(values, largest), ddof=1)), rel=1e-15)
        assert row["empirical_mean"] == 8.902627145628714e307

    def test_row_statistics_are_plain_mean_and_std_on_ordinary_values(self):
        """The power-of-two scaling is exact: the row statistics are np.mean's and np.std's bits."""
        rng = np.random.default_rng(31)
        model = ModelSpec(n=8, lam=0.1, spectrum=Spectrum.from_blocks([(1.0, 10)]), alignment=Alignment([1.0]), noise=NoiseModel(0.1))
        for reps in (1, 2, 3, 5):
            base = 10.0 ** rng.uniform(-140, 140, size=(500, 1))
            spread = 10.0 ** rng.uniform(-8, 1, size=(500, 1))
            rows = base * (1.0 + spread * rng.standard_normal((500, reps)))
            outcomes = [[(float(v), None) for v in row] for row in rows]
            result = _prediction_rows("gaussian_curve", reps, 0, [(8, 0.1)] * 500, lambda n, lam: model, outcomes)
            for row, values in zip(result.rows, rows):
                assert row["status"] == "ok"
                assert row["empirical_mean"] == float(np.mean(values))
                assert row["empirical_std"] == (float(np.std(values, ddof=1)) if reps > 1 else 0.0)

    def test_failure_recorded_and_rest_completed(self):
        # rank 30 < n = 50 at lambda 0: both prediction and fits fail there
        config = tiny_gaussian_config(
            spectrum={"kind": "blocks", "blocks": [[1.0, 30]]},
            target={"kind": "energies", "values": [1.0]},
            n_grid=[10, 50],
            **{"lambda": 0.0},
        )
        result = run_experiment(config)
        assert result.n_failed == 1
        ok, bad = result.rows
        assert ok["status"] == "ok" and math.isfinite(ok["empirical_mean"])
        assert bad["status"].startswith("error:")


class TestSphereCurve:
    def test_empty_energies_is_a_zero_target(self):
        """Only absent or null energies mean the default k**-2 levels; an empty mapping is no energy at all."""
        doc = {"kind": "sphere_curve", "d": 10, "gap": 8.0, "levels": 2, "noise_variance": 0.1, "n_grid": [8, 16],
               "lambda": 0.1, "reps": 2, "seed": 3}
        empty, zero, default = (run_experiment(ExperimentConfig.from_dict({**doc, "energies": energies})).rows
                                for energies in ({}, {"1": 0.0}, None))
        assert all(row["status"] == "ok" for row in empty)
        assert empty == zero != default

    @pytest.mark.parametrize("doc, nu", [
        ({"kind": "sphere_curve", "d": 10, "gap": 8.0, "levels": 1, "n_grid": [4]}, math.nan),  # one level: no head is left
        # a tail far below one ulp of the trace: r_eff = n = 1, so nu = 1 + 0 / 1e-20
        ({"kind": "gaussian_curve", "spectrum": {"kind": "blocks", "blocks": [[1.0, 1], [1e-20, 1]]}, "n_grid": [1]}, 1.0),
    ], ids=["no-head", "tail-below-trace-ulp"])
    def test_ridgeless_nu_without_head_or_tail_is_nan(self, doc, nu):
        """At lam = 0 the last block is nu's tail.  Where no head is left nu is NaN; a tail that a difference from the
        trace would round to 0 is summed from its block, so nu is finite.  The row is ok."""
        (row,) = run_experiment(ExperimentConfig.from_dict({**doc, "lambda": 0.0})).rows
        assert row["status"] == "ok" and row["nu"] == pytest.approx(nu, nan_ok=True)


GCV_DOC = {
    "kind": "gcv_sweep",
    "spectrum": {"kind": "power_law", "exponent": 2.0, "size": 50},
    "noise_variance": 0.1,
    "n": 20,
    "lambda_grid": [0.01, 0.1, 1.0],
    "reps": 2,
    "seed": 1,
}


class TestGcvSweep:
    def test_failed_lambda_names_its_krr_error(self):
        """At lambda = 1e308 every replication's squared trace underflows: the row says so."""
        config = ExperimentConfig.from_dict(GCV_DOC | {"lambda_grid": [0.1, 1e308]})
        ok, bad = run_experiment(config).rows
        assert ok["status"] == "ok" and math.isfinite(ok["empirical_mean"])
        assert bad["status"] == (
            "error: KrrError: GCV score n ||alpha||^2 / Tr((K + lam)^-1)^2 is not a finite float at lambda = 1e+308"
        )
        assert math.isfinite(bad["prediction"]) and math.isnan(bad["empirical_mean"])

    def test_failed_gram_fails_every_lambda(self, monkeypatch):
        def refuse(entries):
            raise krr.KrrError("no Gram")

        monkeypatch.setattr(krr, "GramMatrix", refuse)
        rows = run_experiment(ExperimentConfig.from_dict(GCV_DOC)).rows
        assert [row["status"] for row in rows] == ["error: KrrError: no Gram"] * 3

    def test_features_freed_before_the_gram_is_built(self, monkeypatch):
        """Each replication's n x p features are gone before GramMatrix allocates its n x n check buffer,
        so the two never share the workload's memory peak."""
        features, built = [], []
        draw, gram = functionals.sample_gaussian_features, krr.GramMatrix

        def tracked_draw(*args, **kwargs):
            sample = draw(*args, **kwargs)
            features.append(weakref.ref(sample.matrix))
            return sample

        def checked_gram(entries):
            built.append(features[-1]() is None)
            return gram(entries)

        monkeypatch.setattr(functionals, "sample_gaussian_features", tracked_draw)
        monkeypatch.setattr(krr, "GramMatrix", checked_gram)
        rows = run_experiment(ExperimentConfig.from_dict(GCV_DOC | {"threads": 1})).rows
        assert all(row["status"] == "ok" for row in rows)
        assert built == [True] * GCV_DOC["reps"]


class TestEmission:
    def test_prediction_recomputable_from_model(self):
        # the prediction column depends only on the serialized model, not on
        # replication state
        from krrdeteq.deteq import deterministic_equivalents
        from krrdeteq.harness import _block_energies, _build_beta, _build_spectrum
        from krrdeteq.spectrum import Alignment, ModelSpec, NoiseModel

        config = tiny_gaussian_config()
        rows = run_experiment(config).rows
        spectrum = _build_spectrum(config.spectrum)
        beta = _build_beta(config.target, spectrum, config.seed)
        alignment = Alignment(_block_energies(spectrum, beta))
        for row in rows:
            spec = ModelSpec(
                n=row["n"],
                lam=config.lam,
                spectrum=spectrum,
                alignment=alignment,
                noise=NoiseModel(config.noise_variance),
            )
            assert deterministic_equivalents(spec).risk == row["prediction"]
