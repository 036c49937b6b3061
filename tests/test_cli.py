import csv
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vanetcov.analytic import p_assoc_sl
from vanetcov import analytic, cli, simulator, validate
from vanetcov.config import load_config

REF_DOC = {
    "lambda_l": 5.0, "mu": 5.0, "lambda_b": 5.0, "lambda_u": 200.0,
    "rho": 0.05, "alpha": 3.0, "p_b": 1.0, "p_v": 1.0,
    "epsilon": 1.0, "w_s": 0.5, "w_d": 0.5,
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(REF_DOC))
    return str(path)


def _read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_analytic_assoc_sweep_reproduces_curve(cfg_path, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
                   "--sweep", "mu=1,5,20", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    rows = [r for r in _read_rows(out) if r["metric"] == "assoc_sl"]
    assert len(rows) == 3
    for row in rows:
        want = p_assoc_sl(5.0, float(row["mu"]), 0.05)
        assert float(row["value"]) == pytest.approx(want, abs=1e-9)


def test_validate_mode_assoc_passes(cfg_path, tmp_path):
    out = tmp_path / "val.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "assoc",
                   "--samples", "100000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert {r["verdict"] for r in rows} == {"pass"}
    doc = json.loads(out.with_suffix(".json").read_text())
    assert "analytic_value" in doc["rows"][0]
    assert "z_score" in doc["rows"][0]


def test_validate_mode_coverage_small(cfg_path, tmp_path):
    out = tmp_path / "cov.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "dl_cov",
                   "--tau", "0.5,2", "--samples", "30000", "--seed", "11",
                   "--out", str(out), "--no-timestamp"])
    assert rc == 0
    rows = _read_rows(out)
    assert len(rows) == 2
    assert all(r["verdict"] == "pass" for r in rows)
    assert [float(r["tau_or_epsilon"]) for r in rows] == [0.5, 2.0]


@pytest.mark.parametrize("metric, links", [
    ("dl_cov", {False}), ("sl_cov", {True}), ("eff_rate", {False}),
    ("total_cov", {True, False}), ("utility", {True, False})])
def test_monte_carlo_requests_resolve_only_the_links_they_read(
        metric, links, cfg_path, tmp_path, monkeypatch):
    # the SIR kernel draws the rest of the window only for the rows of the
    # link a request reads: the downlink rows for dl_cov and the effective
    # rate, the sidelink rows for sl_cov and utility's sidelink term
    resolved = []
    real = simulator._window_rest

    def recording(cfg, R, rho_roads, chord, *args, **kwargs):
        resolved.append(chord is not None)
        return real(cfg, R, rho_roads, chord, *args, **kwargs)
    monkeypatch.setattr(simulator, "_window_rest", recording)
    out = tmp_path / "mc.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", metric,
                   "--tau", "1", "--samples", "3000", "--seed", "5", "--out", str(out)])
    assert rc == 0 and all(r["value"] for r in _read_rows(out))
    assert set(resolved) == links


def test_montecarlo_requires_seed(cfg_path, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", "assoc",
                   "--samples", "100", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_seed_env_fallback(cfg_path, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    out = tmp_path / "env.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", "assoc",
                   "--samples", "1000", "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0]["seed"] == "99"


def test_samples_floor(cfg_path, tmp_path):
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", "assoc",
                   "--samples", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_tau_must_be_positive(cfg_path, tmp_path):
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", "dl_cov",
                   "--tau", "0,10", "--samples", "10", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("mode", cli.MODES)
def test_nonpositive_tau_gives_an_error_row_in_every_mode(cfg_path, tmp_path, mode):
    # a request that bypasses the parser's check: no mode may report the
    # plain association fraction as coverage at a negative threshold
    req = cli.RunRequest(config_path=cfg_path, mode=mode, metric="dl_cov",
                         output_path=str(tmp_path / "x.csv"), tau_grid=(-1.0,),
                         seed=1, n_samples=2000, timestamp=False)
    (row,) = cli.run(req)
    assert row["error"].startswith("ValueError: tau must be")
    assert row["value"] == ""


def test_validate_utility_at_zero_epsilon_passes(cfg_path, tmp_path):
    # at epsilon = 0 the sidelink term is P(SIR > 0, SL), the association
    # probability, in both pipelines
    out = tmp_path / "u.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "utility",
                   "--sweep", "epsilon=0", "--samples", "4096", "--seed", "3",
                   "--out", str(out), "--no-timestamp"])
    assert rc == 0
    (row,) = _read_rows(out)
    assert row["verdict"] == "pass"
    assert float(row["value"]) > 0.5 * p_assoc_sl(5.0, 5.0, 0.05)


def test_db_threshold_conversion(cfg_path, tmp_path):
    out = tmp_path / "db.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "dl_cov",
                   "--tau=-10,0,10", "--db-thresholds", "--out", str(out),
                   "--no-timestamp"])
    assert rc == 0
    taus = [float(r["tau_or_epsilon"]) for r in _read_rows(out)]
    assert taus == pytest.approx([0.1, 1.0, 10.0], rel=1e-12)


def test_unknown_sweep_field(cfg_path, tmp_path):
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
                   "--sweep", "lambda_x=1,2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sweep_records_row_errors_and_continues(cfg_path, tmp_path):
    out = tmp_path / "err.csv"
    # alpha=2 violates the path-loss invariant; the other value is fine
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
                   "--sweep", "alpha=2,3", "--out", str(out), "--no-timestamp"])
    assert rc == 1
    rows = _read_rows(out)
    bad = [r for r in rows if r["error"]]
    good = [r for r in rows if not r["error"]]
    assert len(bad) == 1 and "alpha must exceed 2" in bad[0]["error"]
    assert len(good) == 2  # assoc_sl + assoc_dl for alpha=3


def test_error_text_with_commas_stays_one_csv_field(cfg_path, tmp_path, monkeypatch):
    def bad(*args):
        raise ValueError('bad, "value"')
    monkeypatch.setattr(cli.analytic, "_p_assoc_sl", bad)
    out = tmp_path / "err.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
                   "--sweep", "mu=1,5", "--out", str(out)])
    assert rc == 1
    with open(out, newline="") as fh:
        lines = [line for line in csv.reader(fh) if not line[0].startswith("#")]
    assert [len(line) for line in lines] == [len(cli._COLUMNS)] * 3
    assert [line[-1] for line in lines[1:]] == ['ValueError: bad, "value"'] * 2


@pytest.mark.parametrize("metric, alpha", [
    ("dl_cov", "2.001"), ("sl_cov", "2.001"),
    # the rate's range would need thresholds 2^x - 1 past the float range
    ("eff_rate", "60"),
], ids=["dl_cov", "sl_cov", "eff_rate-alpha60"])
def test_alpha_near_two_records_nonconvergence(cfg_path, tmp_path, metric, alpha):
    out = tmp_path / "a2.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", metric,
                   "--tau", "1", "--sweep", f"alpha={alpha}", "--out", str(out),
                   "--no-timestamp"])
    assert rc == 1
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["error"].startswith("NonConvergenceError")


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**REF_DOC, "lambd_l": 1.0}))
    rc = cli.main(["--config", str(bad), "--mode", "analytic", "--metric", "assoc",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_rerun_is_byte_identical_without_timestamp(cfg_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--config", cfg_path, "--mode", "montecarlo", "--metric", "assoc",
            "--samples", "5000", "--seed", "42", "--no-timestamp"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_mirror_matches_csv(cfg_path, tmp_path):
    out = tmp_path / "m.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
                   "--out", str(out), "--no-timestamp"])
    assert rc == 0
    csv_rows = _read_rows(out)
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["columns"][:3] == ["lambda_l", "mu", "lambda_b"]
    assert len(doc["rows"]) == len(csv_rows)
    for jrow, crow in zip(doc["rows"], csv_rows):
        assert float(jrow["value"]) == pytest.approx(float(crow["value"]), rel=1e-10)


def test_csv_and_json_share_one_timestamp(cfg_path, tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "nu",
                     "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    doc = json.loads((tmp_path / "t.json").read_text())
    assert header == "# generated " + doc["generated"]


def test_singleton_sweep_matches_plain_run(cfg_path, tmp_path):
    plain, single = tmp_path / "p.csv", tmp_path / "s.csv"
    base = ["--config", cfg_path, "--mode", "analytic", "--metric", "assoc",
            "--no-timestamp"]
    assert cli.main(base + ["--out", str(plain)]) == 0
    assert cli.main(base + ["--sweep", "mu=5", "--out", str(single)]) == 0
    assert plain.read_text().splitlines()[1:] == single.read_text().splitlines()[1:]


def test_eff_rate_validate_small(cfg_path, tmp_path):
    out = tmp_path / "rate.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "eff_rate",
                   "--samples", "20000", "--seed", "3", "--out", str(out),
                   "--no-timestamp"])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0]["verdict"] == "pass"


def test_failed_verdicts_report_chance_count(cfg_path, tmp_path, monkeypatch, capsys):
    # a wrong analytic association makes both assoc rows fail
    monkeypatch.setattr(cli.analytic, "_p_assoc_sl",
                        lambda *args: analytic.AnalyticResult(0.5, 0.0))
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "assoc",
                   "--samples", "1000", "--seed", "7",
                   "--out", str(tmp_path / "bad.csv")])
    assert rc == 1
    assert ("2 validation rows FAILED (about 0.0054 expected by chance: "
            "2 rows at 3 sigma)") in capsys.readouterr().err
    assert cli._chance_note(42) == "about 0.11 expected by chance: 42 rows at 3 sigma"


@pytest.mark.parametrize("metric", ["eff_rate", "utility", "total_rate"])
def test_undefined_effective_rate_gives_an_error_row(tmp_path, metric):
    # at lambda_l = mu = 20, rho = 1 every user is within rho of a vehicle:
    # P[bs assoc] rounds to 0 and the effective rate has no denominator
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({**REF_DOC, "mu": 20.0, "rho": 1.0}))
    assert p_assoc_sl(20.0, 20.0, 1.0) == 1.0
    out = tmp_path / "rate.csv"
    rc = cli.main(["--config", str(path), "--mode", "analytic", "--metric", metric,
                   "--sweep", "lambda_l=0,20", "--out", str(out), "--no-timestamp"])
    assert rc == 1
    with open(out, newline="") as fh:
        good, bad = csv.DictReader(fh)
    assert float(good["value"]) > 0 and not good["error"]
    assert bad["value"] == ""
    assert bad["error"].startswith("ValueError: P[base-station association] is 0")
    assert len(json.loads(out.with_suffix(".json").read_text())["rows"]) == 2


def test_montecarlo_zero_load_gives_an_error_row(cfg_path, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.simulator, "_zero_cell_loads",
                        lambda cfg, batches: np.zeros(sum(n for n, _ in batches)))
    out = tmp_path / "rate.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "montecarlo", "--metric", "eff_rate",
                   "--samples", "200", "--seed", "1", "--out", str(out),
                   "--no-timestamp"])
    assert rc == 1
    (row,) = _read_rows(out)
    assert row["error"].startswith("ValueError: no user is served by a base station")


@pytest.mark.parametrize("mode", ["analytic", "validate"])
def test_one_failing_threshold_keeps_the_others(cfg_path, tmp_path, mode, capsys):
    # at alpha = 2.06 the downlink integral converges at tau = 0.001, but at
    # tau = 0.01 the road sums' inner-grid ladder does not stabilise
    out = tmp_path / "a206.csv"
    rc = cli.main(["--config", cfg_path, "--mode", mode, "--metric", "dl_cov",
                   "--tau", "0.001,0.01", "--sweep", "alpha=2.06", "--samples", "2000",
                   "--seed", "5", "--out", str(out), "--no-timestamp"])
    assert rc == 1
    good, bad = json.loads(out.with_suffix(".json").read_text())["rows"]
    assert good["tau_or_epsilon"] == 0.001 and not good["error"]
    analytic_value = good["value"] if mode == "analytic" else good["analytic_value"]
    assert analytic_value == pytest.approx(0.700883, abs=1e-6)
    assert bad["tau_or_epsilon"] == 0.01
    assert bad["error"].startswith("NonConvergenceError")
    assert bad["verdict"] == ""
    if mode == "validate":
        assert good["verdict"] == "pass"
        assert 0.0 < bad["value"] < 1.0 and bad["n_samples"] == 2000
    else:
        assert bad["value"] == ""
    assert "1 rows recorded errors" in capsys.readouterr().err


def test_main_reports_failed_verdicts_and_error_rows(cfg_path, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(cli.analytic, "_p_assoc_sl",
                        lambda *args: analytic.AnalyticResult(0.5, 0.0))
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "assoc",
                   "--sweep", "alpha=2,3", "--samples", "1000", "--seed", "7",
                   "--out", str(tmp_path / "both.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2 validation rows FAILED" in err and "1 rows recorded errors" in err


@pytest.mark.parametrize("mode", cli.MODES)
def test_coverage_metric_without_tau_is_a_request_error(cfg_path, tmp_path, mode, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["--config", cfg_path, "--mode", mode, "--metric", "dl_cov",
                   "--sweep", "mu=1,5", "--samples", "100", "--seed", "1",
                   "--out", str(out)])
    assert rc == 2
    assert "metric dl_cov needs --tau values" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("metric", cli.METRICS)
def test_every_analytic_row_states_a_numeric_error(cfg_path, tmp_path, metric):
    out = tmp_path / "e.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", metric,
                   "--tau", "1", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    rows = _read_rows(out)
    assert rows
    for row in rows:
        assert 0.0 <= float(row["std_error_or_quad_error"]) < 1e-5, row


@pytest.mark.parametrize("metric", ["assoc", "dl_cov", "nu"])
def test_every_validate_row_states_a_numeric_analytic_error(cfg_path, tmp_path, metric):
    out = tmp_path / "v.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", metric,
                   "--tau", "1", "--samples", "500", "--seed", "2", "--out", str(out),
                   "--no-timestamp"])
    assert rc in (0, 1)
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    assert rows
    for row in rows:
        assert isinstance(row["analytic_error"], float), row


def test_json_mirror_is_strict_json_when_a_z_score_is_infinite(cfg_path, tmp_path):
    # at tau = 1e4 no sample is covered, so the Monte Carlo std error is 0
    # and the gap to the (positive) analytic value gives z = inf
    out = tmp_path / "z.csv"
    rows = cli.run(cli.RunRequest(config_path=cfg_path, mode="validate",
                                  metric="dl_cov", output_path=str(out),
                                  tau_grid=(1e4,), seed=3, n_samples=50))
    assert rows[0]["z_score"] == float("inf")

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    doc = json.loads(out.with_suffix(".json").read_text(), parse_constant=refuse)
    assert doc["rows"][0]["z_score"] is None


@pytest.mark.parametrize("mode", ["montecarlo", "validate"])
def test_coverage_rows_carry_the_window_bias_bound_in_the_json_mirror(cfg_path, tmp_path,
                                                                      mode):
    # the JSON mirror's coverage rows state the window's bias bound, Total's
    # being the two links' summed on the same samples; the CSV is unchanged
    bounds = {}
    for metric in ("dl_cov", "sl_cov", "total_cov"):
        out = tmp_path / f"{metric}.csv"
        rc = cli.main(["--config", cfg_path, "--mode", mode, "--metric", metric,
                       "--tau", "0.5,2", "--samples", "3000", "--seed", "5",
                       "--out", str(out), "--no-timestamp"])
        assert rc == 0
        assert out.read_text().splitlines()[0] == ",".join(cli._COLUMNS)
        rows = json.loads(out.with_suffix(".json").read_text())["rows"]
        bounds[metric] = [row["mc_bias_bound"] for row in rows]
        assert all(0.0 < b < 0.1 * row["std_error_or_quad_error"]
                   for b, row in zip(bounds[metric], rows))
    assert bounds["total_cov"] == pytest.approx(
        [d + s for d, s in zip(bounds["dl_cov"], bounds["sl_cov"])], rel=1e-12)
    out = tmp_path / "assoc.csv"
    assert cli.main(["--config", cfg_path, "--mode", mode, "--metric", "assoc",
                     "--samples", "1000", "--seed", "5", "--out", str(out)]) == 0
    assert all("mc_bias_bound" not in row
               for row in json.loads(out.with_suffix(".json").read_text())["rows"])


def test_json_mirror_is_written_as_json_dump_would(cfg_path, tmp_path):
    # one write of the whole document gives the bytes json.dump streams,
    # with non-finite floats as null
    out = tmp_path / "w.csv"
    req = cli.RunRequest(config_path=cfg_path, mode="validate", metric="dl_cov",
                         output_path=str(out), timestamp=False)
    cfg = load_config(cfg_path)
    rows = [cli._row(cfg, metric="dl_cov", tau_or_epsilon=0.5, value=0.25, seed=3,
                     z_score=float("inf"), analytic_value=0.2),
            cli._row(cfg, metric="dl_cov", tau_or_epsilon=2.0, value=1e-300,
                     z_score=float("nan"), error="NonConvergenceError: x, y")]
    cli._write_outputs(req, rows)
    want = io.StringIO()
    json.dump({"columns": cli._COLUMNS,
               "rows": [{**row, "z_score": None} for row in rows]},
              want, indent=1, default=str, allow_nan=False)
    assert out.with_suffix(".json").read_text(encoding="utf-8") == want.getvalue() + "\n"


def test_coverage_rows_take_one_downlink_call_per_config(cfg_path, tmp_path, monkeypatch):
    # the whole tau grid of a config is one dl_coverage call on one shared
    # outer rule; each row stays within its stated error of the scalar call
    calls = []
    real = analytic.dl_coverage

    def counted(cfg, tau, *args):
        calls.append(tau)
        return real(cfg, tau, *args)
    monkeypatch.setattr(analytic, "dl_coverage", counted)
    taus = tuple(float(t) for t in np.logspace(-2.0, 2.0, 7))
    out = tmp_path / "grid.csv"
    rc = cli.main(["--config", cfg_path, "--mode", "analytic", "--metric", "dl_cov",
                   "--tau", ",".join(map(repr, taus)), "--sweep", "mu=1,20",
                   "--out", str(out), "--no-timestamp"])
    assert rc == 0
    assert calls == [taus, taus]
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    assert [(r["mu"], r["tau_or_epsilon"]) for r in rows] == [
        (mu, tau) for mu in (1.0, 20.0) for tau in taus]
    base = load_config(cfg_path)
    for row in rows:
        want = real(validate(replace(base, mu=row["mu"])), row["tau_or_epsilon"])
        assert abs(row["value"] - want.value) <= row["std_error_or_quad_error"]


@pytest.mark.parametrize("config_text, args, env_seed", [
    (json.dumps(REF_DOC)[:-1], ["--tau", "1", "--seed", "7"], None),
    (json.dumps({**REF_DOC, "lambda_l": "5"}), ["--tau", "1", "--seed", "7"], None),
    (json.dumps(REF_DOC), ["--tau", "nan", "--seed", "7"], None),
    (json.dumps(REF_DOC), ["--tau", "inf", "--seed", "7"], None),
    (json.dumps(REF_DOC), ["--tau", "inf", "--db-thresholds", "--seed", "7"], None),
    (json.dumps(REF_DOC), ["--tau", "4000", "--db-thresholds", "--seed", "7"], None),
    (json.dumps(REF_DOC), ["--tau", "1", "--seed", "-1"], None),
    (json.dumps(REF_DOC), ["--tau", "1"], "-3"),
], ids=["malformed-json", "string-value", "tau-nan", "tau-inf", "tau-inf-db",
        "tau-db-overflow", "negative-seed", "negative-env-seed"])
def test_malformed_input_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                 config_text, args, env_seed):
    # one error line, no traceback, and no output file
    if env_seed is None:
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, env_seed)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_text)
    out = tmp_path / "x.csv"
    rc = cli.main(["--config", str(cfg), "--mode", "validate", "--metric", "dl_cov",
                   "--samples", "100", "--out", str(out)] + args)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("out_name", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_out_path_is_checked_before_any_work(cfg_path, tmp_path, monkeypatch, capsys,
                                             out_name):
    # an --out that cannot be a file is a request error: no config is
    # evaluated, one error line, and nothing written
    monkeypatch.setattr(cli, "_rows_for_config",
                        lambda *a: pytest.fail("a config was evaluated"))
    out = tmp_path / out_name
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "eff_rate",
                   "--samples", "100", "--seed", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
