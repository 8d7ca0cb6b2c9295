import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kinfp import cli
from kinfp.fields import Grid, ScalarField
from kinfp.geometry import q_minus
from kinfp.inkspots import DiscreteSet


def write_config(tmp_path, body):
    p = tmp_path / "exp.ini"
    p.write_text(body)
    return str(p)


WEAK_HARNACK = """
[experiment]
kind = weak-harnack
seed = 5

[params]
count = 1
"""


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = solve\nbogus = 1\n")
        assert cli.run(path, out=str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()  # no partial outputs

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = nonsense\n")
        assert cli.run(path) == 2

    def test_unknown_kind_reported_before_bad_values(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nkind = nonsense\n\n[grid]\nd = abc\n")
        with pytest.raises(cli.ConfigError,
                           match="unknown experiment kind 'nonsense'"):
            cli.load_config(path)

    def test_missing_file(self):
        assert cli.run("/nonexistent/config.ini") == 2

    def test_out_of_range_parameter(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nkind = pop\n\n[params]\neps = 0.7\n")
        assert cli.run(path) == 2

    def test_defaults_loaded(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        cfg = cli.load_config(path)
        assert cfg.kind == "weak-harnack" and cfg.seed == 5
        assert cfg.params["omega"] == 1e-2

    def test_allowed_keys(self):
        assert cli._ALLOWED_KEYS == {
            "experiment": {"kind", "seed", "out"},
            "grid": {"d", "n_t", "n_x", "n_v"},
            "coefficients": {"kind", "lam", "lambda_max", "cell_size"},
            "params": {
                "theta", "eta", "omega", "m", "p", "eps", "mu", "r0", "c",
                "big_c", "count", "levels", "tolerance", "source_sup",
            },
        }

    def test_every_key_read_with_its_type(self, tmp_path):
        path = write_config(tmp_path, (
            "[experiment]\nkind = solve\nseed = 3\nout = elsewhere\n"
            "[grid]\nd = 2\nn_t = 5\nn_x = 6\nn_v = 7\n"
            "[coefficients]\nkind = random\nlam = 2\nlambda_max = 3\n"
            "cell_size = 0.5\n"
            "[params]\nm = 4\ncount = 2\nlevels = 3\neta = 1\n"))
        cfg = cli.load_config(path)
        assert cfg == cli.ExperimentConfig(
            kind="solve", seed=3, out="elsewhere", d=2, n_t=5, n_x=6, n_v=7,
            coeff_kind="random", lam=2.0, lambda_max=3.0, cell_size=0.5,
            params=dict(cli._PARAM_DEFAULTS, m=4, count=2, levels=3,
                        eta=1.0))
        for name in ("seed", "d", "n_t", "n_x", "n_v"):
            assert type(getattr(cfg, name)) is int
        for name in ("lam", "lambda_max", "cell_size"):
            assert type(getattr(cfg, name)) is float
        assert [k for k, v in cfg.params.items() if type(v) is int] == [
            "m", "count", "levels"]

    @pytest.mark.parametrize("section, key, value", [
        ("grid", "n_x", "2.5"), ("coefficients", "lam", "big"),
        ("params", "count", "1.0"), ("params", "eta", "half")])
    def test_bad_value_is_a_config_error(self, tmp_path, section, key, value):
        path = write_config(tmp_path, "[experiment]\nkind = solve\n"
                                      f"[{section}]\n{key} = {value}\n")
        with pytest.raises(cli.ConfigError, match="bad config value"):
            cli.load_config(path)


class TestRun:
    def test_weak_harnack_constant_row(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "id,seed,lhs,rhs,fitted_c,pass"
        first = rows[1].split(",")
        assert first[0].startswith("weak-harnack/")
        assert first[-1] == "pass"
        payload = json.loads((out / "report.json").read_text())
        rec = payload["reports"][0]
        assert rec["params"]["expected_c"] == pytest.approx(
            rec["fitted_c"], rel=1e-9)

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out=str(a)) == 0
        assert cli.run(path, out=str(b)) == 0
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(path, out=str(a)) == 0
        assert cli.run(path, seed=99, out=str(b)) == 0
        assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()

    def test_hypothesis_failure_exit_code(self, tmp_path, monkeypatch):
        from kinfp.report import HypothesisError

        def boom(cfg):
            raise HypothesisError("zero-set measure below 0.25")

        monkeypatch.setitem(cli._RUNNERS, "weak-harnack", boom)
        path = write_config(tmp_path, WEAK_HARNACK)
        assert cli.run(path, out=str(tmp_path / "out")) == 3
        assert not (tmp_path / "out").exists()

    def test_covering_hypothesis_failure_exit_code(self, tmp_path,
                                                    monkeypatch, caplog):
        real = cli.generate_hypothesis_pair

        def e_outside_f(*args, **kw):
            _, F = real(*args, **kw)
            g, region = F.grid, F.region
            return (DiscreteSet(g, region.contains(*g.open_coords), region),
                    DiscreteSet(g, np.zeros(g.shape, bool), region))

        monkeypatch.setattr(cli, "generate_hypothesis_pair", e_outside_f)
        path = write_config(
            tmp_path, "[experiment]\nkind = inkspots\n[params]\ncount = 1\n")
        with caplog.at_level("ERROR", logger="kinfp"):
            assert cli.run(path, out=str(tmp_path / "out")) == 3
        assert [r.getMessage() for r in caplog.records] == [
            "hypothesis failure: E is not contained in F meet Q_-"]

    def test_zero_set_failure_exit_code(self, tmp_path, monkeypatch, caplog):
        real = cli._ramp_fixture

        def positive(cfg, eta):
            f, H = real(cfg, eta)
            return ScalarField(f.grid, f.values + 1.0), H

        monkeypatch.setattr(cli, "_ramp_fixture", positive)
        path = write_config(tmp_path, "[experiment]\nkind = weak-poincare\n")
        with caplog.at_level("ERROR", logger="kinfp"):
            assert cli.run(path, out=str(tmp_path / "out")) == 3
        assert [r.getMessage() for r in caplog.records] == [
            "hypothesis failure: zero-set hypothesis fails: "
            "fraction 0.000 < 0.25"]

    def test_numerical_abort_exit_code(self, tmp_path, monkeypatch):
        from kinfp.fpsolver import NumericalAbort

        def boom(cfg):
            raise NumericalAbort("non-finite values at step 3")

        monkeypatch.setitem(cli._RUNNERS, "weak-harnack", boom)
        path = write_config(tmp_path, WEAK_HARNACK)
        assert cli.run(path, out=str(tmp_path / "out")) == 4

    def test_cfl_violation_exit_code(self, tmp_path):
        path = write_config(
            tmp_path, "[experiment]\nkind = solve\n\n[grid]\nn_t = 2\nn_x = 200\n")
        assert cli.run(path, out=str(tmp_path / "out")) == 4
        assert not (tmp_path / "out").exists()

    def test_unexpected_error_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise KeyError("missing table entry")

        monkeypatch.setitem(cli._RUNNERS, "weak-harnack", boom)
        path = write_config(tmp_path, WEAK_HARNACK)
        assert cli.run(path, out=str(tmp_path / "out")) == 5
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", range(8))
    def test_holder_runs_at_every_seed(self, tmp_path, seed):
        path = write_config(tmp_path, "[experiment]\nkind = holder\n")
        assert cli.run(path, seed=seed, out=str(tmp_path / "out")) in (0, 1)

    @pytest.mark.parametrize(
        "kind", ["geometry-check", "kernel-check", "solve", "holder"])
    def test_every_record_is_a_full_report(self, tmp_path, kind):
        path = write_config(
            tmp_path, f"[experiment]\nkind = {kind}\n\n[params]\ncount = 1\n")
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) in (0, 1)
        records = json.loads((out / "report.json").read_text())["reports"]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert records and len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert {"fitted_c", "degenerate", "refinement",
                    "details"} <= rec.keys()
            expected = rec["lhs"] / rec["rhs"] if rec["rhs"] > 0 else None
            assert rec["fitted_c"] == expected
            assert rec["degenerate"] == (expected is None)
            assert row.split(",")[4] == (
                "" if expected is None else repr(float(expected)))


class TestRecordedOutputs:
    """summary.csv is promised byte-identical: sha256 prefixes recorded
    before the stacking check and the ink-spots placement were batched; the
    solve rows before its initial slice moved to open coordinates; the
    ``all`` and ``pop-large-times`` rows when ``normalize_by_infimum`` came
    to normalise on ``N_LOCAL`` and ``local_norms`` to widen a cylinder's
    hull by a relative 2^-40 (only the pop and pop-large-times rows
    moved)."""

    DIGESTS = [
        ("all", 1, None, 0, "4ec4401d500854f0", 0),
        ("all", 1, None, 1, "0171a2c254876f18", 0),
        ("solve", 1, None, 0, "3a32b0f1947568c6", 0),
        ("solve", 1, None, 1, "8b4604a7a3e44c55", 0),
        ("geometry-check", 2, None, 0, "1402e3bf4d87b5ee", 0),
        ("inkspots", 2, None, 0, "2c8e0deddd392cf4", 0),
        # one row each: a d = 2 row samples 5.3M-cell local grids; the
        # weak-harnack constant row fails at d = 2 (see TestWeakHarnackConstantRow)
        ("pop-large-times", 2, 1, 0, "4a4105f53a3734a4", 0),
        ("weak-harnack", 2, 1, 0, "2dd612a0efe17e21", 1),
    ]

    # ids leave the digest out, so that re-recording one keeps the test name
    @pytest.mark.parametrize("kind, d, count, seed, digest, code", DIGESTS,
                             ids=["-".join(map(str, r[:4])) for r in DIGESTS])
    def test_summary_digest(self, tmp_path, kind, d, count, seed, digest, code):
        params = "" if count is None else f"[params]\ncount = {count}\n"
        path = write_config(
            tmp_path, f"[experiment]\nkind = {kind}\n[grid]\nd = {d}\n{params}")
        out = tmp_path / "out"
        assert cli.run(path, seed=seed, out=str(out)) == code
        summary = (out / "summary.csv").read_bytes()
        assert hashlib.sha256(summary).hexdigest()[:16] == digest


def small_config(kind, d=1, count=1):
    return cli.ExperimentConfig(
        kind=kind, d=d, params=dict(cli._PARAM_DEFAULTS, count=count))


class TestDimension:
    @pytest.mark.parametrize(
        "kind", ["pop", "minima-measure", "weak-harnack", "harnack"])
    def test_d2_kinds_check_d2_regions(self, kind, monkeypatch):
        # a constant mixture keeps sampling the d = 2 local grids cheap
        monkeypatch.setattr(
            cli, "make_kernel_mixture",
            lambda seed, d=1, **kw: (lambda T, X, V: np.full(np.shape(T), 2.0),
                                     {}))
        dims = []
        sample = Grid.sample

        def recording(grid, fn):
            dims.append(grid.d)
            return sample(grid, fn)

        monkeypatch.setattr(Grid, "sample", recording)
        rows = cli._RUNNERS[kind](small_config(kind, d=2))
        if kind == "weak-harnack":
            # the constant row counts the discs of Q_- about 2% short
            assert not rows[0]["passed"]
            rows = rows[1:]
        assert rows and all(r["passed"] for r in rows)
        assert dims and set(dims) == {2}

    def test_solve_runs_at_d2(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nkind = solve\n[grid]\n"
                                      "d = 2\nn_t = 4\nn_x = 6\nn_v = 6\n")
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 3


class TestRefusedAtD2:
    CELLS = {"weak-poincare": "64 x 128^2 x 24^2 = 603979776 cells",
             "all": "64 x 128^2 x 24^2 = 603979776 cells",
             "kernel-check": "2 x 160^2 x 160^2 = 1310720000 cells"}

    @pytest.mark.parametrize("kind", ["weak-poincare", "all", "kernel-check"])
    def test_refused_before_any_grid(self, tmp_path, kind, caplog,
                                     monkeypatch):
        grids = []
        init = Grid.__init__

        def recording(self, *args, **kw):
            grids.append(args)
            init(self, *args, **kw)

        monkeypatch.setattr(Grid, "__init__", recording)
        path = write_config(tmp_path, f"[experiment]\nkind = {kind}\n"
                                      "[grid]\nd = 2\n")
        with caplog.at_level("ERROR", logger="kinfp"):
            assert cli.run(path, out=str(tmp_path / "out")) == 2
        assert grids == [] and not (tmp_path / "out").exists()
        [message] = [r.getMessage() for r in caplog.records]
        assert self.CELLS[kind] in message


class TestWeakHarnackConstantRow:
    def test_ball_volume_row_fails_at_d2(self):
        # 24 nodes per axis count the two discs of Q_- about 2% short of
        # the ball volume pi^2 omega^10, far outside the tolerance 1e-10
        omega = cli._PARAM_DEFAULTS["omega"]
        rep = cli._run_weak_harnack(small_config("weak-harnack", 2, 0))[0]
        assert rep["params"]["expected_c"] == q_minus(omega, 2).volume()
        assert not rep["passed"]
        assert 0.97 < rep["fitted_c"] / rep["params"]["expected_c"] < 1.0

    @pytest.mark.parametrize("mutation", ["d1-volume", "double", "zero"])
    def test_wrong_volume_fails(self, mutation, monkeypatch):
        # the volume is 4e-12 at d = 1 and 9.9e-20 at d = 2, so an absolute
        # tolerance of 1e-10 would pass every one of these
        real = cli.verify_weak_harnack

        def mutated(f, **kw):
            if mutation == "d1-volume":
                return real(f, **{**kw, "d": 1})
            rep = real(f, **kw)
            rep.lhs *= 2.0 if mutation == "double" else 0.0
            return rep

        monkeypatch.setattr(cli, "verify_weak_harnack", mutated)
        d = 2 if mutation == "d1-volume" else 1
        rep = cli._run_weak_harnack(small_config("weak-harnack", d, 0))[0]
        assert not rep["passed"]


class TestFixturesKeepNoFullCoords:
    @pytest.fixture
    def grids(self, monkeypatch):
        made = []

        def recording(*args):
            made.append(Grid(*args))
            return made[-1]

        monkeypatch.setattr(cli, "Grid", recording)
        return made

    def test_solve(self, grids):
        cli._run_solve(cli.ExperimentConfig(kind="solve", n_t=8, n_x=16,
                                            n_v=16))
        assert grids and all("coords" not in g.__dict__ for g in grids)

    def test_ramp_fixture(self, grids):
        f, H = cli._ramp_fixture(cli.ExperimentConfig(kind="weak-poincare"),
                                 0.5)
        assert grids == [f.grid] and "coords" not in f.grid.__dict__
        assert f.values.flags.c_contiguous


def report_echo(**config):
    """A report.json text with the default config echo, changed by config,
    and no records."""
    echo = {"kind": "weak-harnack", "seed": 0, "d": 1, "grid": [16, 24, 24],
            "coefficients": {"kind": "constant", "lam": 1.0,
                             "lambda_max": 1.0, "cell_size": 0.25},
            "params": cli._PARAM_DEFAULTS}
    return json.dumps({"version": "0.1.0", "config": dict(echo, **config),
                       "reports": []})


class TestReplay:
    def test_fresh_report_replays(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) == 0
        assert cli.replay(str(out / "report.json")) is True

    def test_edited_lhs_detected(self, tmp_path, caplog):
        path = write_config(tmp_path, WEAK_HARNACK)
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) == 0
        payload = json.loads((out / "report.json").read_text())
        first = payload["reports"][0]
        lhs = first["lhs"]
        first["lhs"] += 1e-9
        (out / "report.json").write_text(json.dumps(payload))
        with caplog.at_level("ERROR", logger="kinfp"):
            assert cli.replay(str(out / "report.json")) is False
        assert [r.getMessage() for r in caplog.records] == [
            f"replay diverges at {first['id']}, key lhs: report "
            f"{first['lhs']!r}, rerun {lhs!r}"]

    @pytest.mark.parametrize("content, reason", [
        (None, "cannot read report"),
        ("{", "report is not valid JSON"),
        ('{"version": "0.1.0", "reports": []}',
         "report lacks a valid config or reports: KeyError('config')"),
        ('{"version": "0.1.0", "config": {}}',
         "report lacks a valid config or reports: KeyError('reports')"),
        (report_echo(kind="nonsense"),
         "report config is invalid: unknown experiment kind 'nonsense'"),
        (report_echo(grid=[1, 1, 1]),
         "report config is invalid: grid spec must have d >= 1 and "
         "resolutions >= 2"),
        (report_echo(kind="weak-poincare", d=2),
         "report config is invalid: kind weak-poincare at d = 2 needs"),
        (report_echo(kind="kernel-check", d=2),
         "report config is invalid: kind kernel-check at d = 2 needs"),
    ], ids=["missing", "malformed", "no-config", "no-reports", "bad-kind",
            "bad-grid", "weak-poincare-d2", "kernel-check-d2"])
    def test_unreadable_report_exits_2(self, tmp_path, caplog, content,
                                       reason):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content.replace("0.1.0", cli.__version__))
        with caplog.at_level("ERROR", logger="kinfp"):
            assert cli.main(["--replay", str(path)]) == 2
        errors = [r.getMessage() for r in caplog.records]
        assert len(errors) == 1 and errors[0].startswith(reason)
        assert "\n" not in errors[0] and not caplog.records[0].exc_info

    def test_version_mismatch_raises(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        out = tmp_path / "out"
        assert cli.run(path, out=str(out)) == 0
        payload = json.loads((out / "report.json").read_text())
        payload["version"] = "0.0.0"
        (out / "report.json").write_text(json.dumps(payload))
        with pytest.raises(RuntimeError):
            cli.replay(str(out / "report.json"))


class TestMain:
    def test_list_experiments(self, capsys):
        assert cli.main(["--list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "weak-harnack" in out and "inkspots" in out

    def test_requires_config(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_end_to_end(self, tmp_path):
        path = write_config(tmp_path, WEAK_HARNACK)
        code = cli.main(["--config", path, "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "summary.csv").exists()
