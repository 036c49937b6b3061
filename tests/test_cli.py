import json
from pathlib import Path

import pytest

from vanetcov.analytic import p_assoc_sl
from vanetcov import cli

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
    monkeypatch.setattr(cli.analytic, "p_assoc_sl", lambda *args: 0.5)
    rc = cli.main(["--config", cfg_path, "--mode", "validate", "--metric", "assoc",
                   "--samples", "1000", "--seed", "7",
                   "--out", str(tmp_path / "bad.csv")])
    assert rc == 1
    assert ("2 validation rows FAILED (about 0.0054 expected by chance: "
            "2 rows at 3 sigma)") in capsys.readouterr().err
    assert cli._chance_note(42) == "about 0.11 expected by chance: 42 rows at 3 sigma"
