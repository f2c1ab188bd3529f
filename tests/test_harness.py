import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fkent.cli import _build_parser, main
from fkent.katok import katok_table
from fkent.local import local_entropy, reference_points, sample_measure
from fkent.matching import BOWEN, FK, KINDS, match_slack
from fkent.harness import (
    _BASE_STREAM,
    EXPERIMENTS,
    ExperimentConfig,
    _effective_workers,
    _fmt,
    _point_label,
    load_config,
    run_experiment,
)
from fkent.spanning import count_table, entropy_from_counts, katok_horizon, path_seeds
from fkent.systems import InvariantViolation, child_rng, sample_path


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


TINY = """
[system]
family = expanding
m = 2

[driving]
p = 1.0

[schedules]
n = 4, 6, 8
eps = 0.2, 0.1
delta = 0.2, 0.1

[budgets]
M = 4000
paths = 2
base_points = 3
candidate_target = 300
candidate_budget = 20000

[run]
seed = 5
outdir = {out}
"""

# a (2, 2) full shift on short schedules, for the word paths of every experiment
SHIFT = {"family": "shift", "m": (2, 2), "p": (0.5, 0.5), "n": (3, 4, 5), "eps": (0.4, 0.2), "delta": (0.4, 0.2)}


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()


def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, TINY.format(out=tmp_path / "out")))
    assert cfg.m == (2,)
    assert cfg.p == (1.0,)
    assert cfg.n == (4, 6, 8)
    assert cfg.eps == (0.2, 0.1)
    assert cfg.M == 4000
    assert cfg.paths == 2
    assert cfg.seed == 5
    # fields absent from the file keep their defaults
    assert cfg.workers == 1
    assert cfg.pair_budget == 20_000_000


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match=r"unknown config section \[simulation\]"):
        load_config(write_config(tmp_path, "[simulation]\nn = 4\n"))
    with pytest.raises(ValueError, match=r"unknown key 'q' in section \[driving\]"):
        load_config(write_config(tmp_path, "[driving]\nq = 0.5\n"))
    with pytest.raises(ValueError, match=r"bad value for \[budgets\] M"):
        load_config(write_config(tmp_path, "[budgets]\nM = many\n"))
    # keys are case-sensitive: lowercase m belongs to [system], not [budgets]
    with pytest.raises(ValueError, match=r"unknown key 'm' in section \[budgets\]"):
        load_config(write_config(tmp_path, "[budgets]\nm = 10\n"))
    # every run measures both orbit metrics, so there is no metrics key
    with pytest.raises(ValueError, match=r"unknown key 'metrics' in section \[run\]"):
        load_config(write_config(tmp_path, "[run]\nmetrics = fk\n"))
    with pytest.raises(ValueError, match="config file not found"):
        load_config(str(tmp_path / "missing.ini"))


def test_overrides_beat_file(tmp_path):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    cfg = load_config(path, {"M": 99, "eps": (0.5,)})
    assert cfg.M == 99
    assert cfg.eps == (0.5,)
    assert cfg.paths == 2


def test_validate_rejects_bad_fields():
    with pytest.raises(ValueError, match="family"):
        ExperimentConfig(family="weird").validate()
    with pytest.raises(ValueError, match="p"):
        ExperimentConfig(m=(2, 3), p=(1.0,)).validate()
    with pytest.raises(ValueError, match="eps"):
        ExperimentConfig(eps=()).validate()
    # non-finite radii are usage errors, not overflows deep in a kernel
    for bad in ({"eps": (math.inf,)}, {"eps": (0.1, math.nan)}, {"delta": (math.nan,)}):
        with pytest.raises(ValueError, match="eps and delta schedules must be positive and finite"):
            ExperimentConfig(**bad).validate()
    with pytest.raises(ValueError, match="workers"):
        ExperimentConfig(workers=0).validate()
    with pytest.raises(ValueError, match="n schedule exceeds 64"):
        ExperimentConfig(n=(8, 65)).validate()
    ExperimentConfig(n=(8, 64)).validate()


@pytest.mark.parametrize(
    "name", ["M", "paths", "base_points", "candidate_target", "candidate_budget", "pair_budget", "workers"]
)
def test_validate_rejects_zero_counts(name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
        ExperimentConfig(**{name: 0}).validate()


SECTIONS = ("system", "driving", "schedules", "budgets", "run")


def test_fields_declare_section_parser_and_help():
    for f in dataclasses.fields(ExperimentConfig):
        assert f.metadata["section"] in SECTIONS, f.name
        assert callable(f.metadata["parse"]), f.name
        assert f.metadata["help"].strip(), f.name
    parse = {f.name: f.metadata["parse"] for f in dataclasses.fields(ExperimentConfig)}
    assert parse["m"]("2, 3") == (2, 3)
    assert parse["eps"]("0.2,0.1") == (0.2, 0.1)
    assert parse["M"]("4000") == 4000
    assert parse["outdir"](" out ") == "out"


def test_every_experiment_offers_every_field_flag():
    parser = _build_parser()
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    argv = [arg for i, name in enumerate(names) for arg in ("--" + name.replace("_", "-"), str(i))]
    for experiment in EXPERIMENTS:
        args = vars(parser.parse_args([experiment] + argv))
        assert {name: args[name] for name in names} == {name: str(i) for i, name in enumerate(names)}


def test_readme_ini_example_names_every_field(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    cfg = load_config(write_config(tmp_path, block))
    assert cfg.M == 100_000 and cfg.seed == 7
    keys = set(re.findall(r"^(\w+) =", block, flags=re.MULTILINE))
    assert keys == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_digest_tracks_content_not_formatting(tmp_path):
    a = load_config(write_config(tmp_path, TINY.format(out=tmp_path / "out")))
    spaced = TINY.format(out=tmp_path / "out").replace("M = 4000", "M =   4000")
    b = load_config(write_config(tmp_path, spaced))
    assert a.digest() == b.digest()
    c = load_config(write_config(tmp_path, TINY.format(out=tmp_path / "out")), {"M": 4001})
    assert a.digest() != c.digest()


def test_effective_workers(monkeypatch):
    cfg = ExperimentConfig(workers=4)
    assert _effective_workers(cfg, 2) == 2
    assert _effective_workers(cfg, 100) == 4
    monkeypatch.setenv("FKENT_THREADS", "3")
    assert _effective_workers(cfg, 100) == 3
    monkeypatch.setenv("FKENT_THREADS", "soon")
    with pytest.raises(ValueError, match="FKENT_THREADS"):
        _effective_workers(cfg, 100)


def test_fmt_and_point_label():
    assert _fmt(True) == "1"
    assert _fmt(False) == "0"
    assert _fmt(7) == "7"
    assert _fmt(0.1) == "0.10000000000000001"
    assert _point_label(np.array([1, 0, 1]), True, 2) == "101"
    assert _point_label(np.array([1, 0, 11]), True, 12) == "1-0-11"
    assert _point_label(np.array([0.5]), False, 0) == "0.5"


def strip_comments(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def test_estimate_top_writes_artifacts(tmp_path):
    cfg = load_config(
        write_config(tmp_path, TINY.format(out=tmp_path / "out")),
        {"paths": 1, "M": 1000, "candidate_target": 200, "candidate_budget": 8000},
    )
    report_path = run_experiment("compare-top", cfg)["files"]["report"]
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["experiment"] == "compare-top"
    assert report["config"]["M"] == 1000
    assert report["meta"]["config_digest"] == cfg.digest()
    for metric in ("bowen", "fk"):
        est = report["results"]["estimates"][metric]
        assert math.isfinite(est["mean"])
        assert est["mean"] == pytest.approx(math.log(2.0), abs=0.25)
    oracle = report["results"]["oracle"]
    assert oracle["value"] == pytest.approx(math.log(2.0))
    csv_path = report["files"]["csv"]
    body = strip_comments(csv_path)
    assert body[0].rstrip("\n") == "omega_seed,n,eps,metric,estimator,count,window,candidates"
    # 1 path x 3 windows x 2 radii x 2 metrics
    assert len(body) == 1 + 12


def test_csv_bodies_reproducible(tmp_path):
    bodies = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = load_config(
            write_config(tmp_path, TINY.format(out=out)),
            {"paths": 1, "M": 800, "candidate_target": 150, "candidate_budget": 6000},
        )
        files = run_experiment("compare-top", cfg)
        bodies.append(strip_comments(files["files"]["csv"]))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("compare-local", {"M": 20_000, "base_points": 3}),
        ("compare-katok", {"M": 300, "paths": 3}),
        ("compare-local", dict(SHIFT, M=20_000, base_points=3)),
        ("compare-top", dict(SHIFT, paths=3)),
    ],
)
def test_csv_bodies_identical_across_worker_counts(tmp_path, monkeypatch, experiment, overrides):
    # local runs hand each worker one contiguous group of base points and
    # katok runs one path per task; the pooled run must match byte for byte
    monkeypatch.delenv("FKENT_THREADS", raising=False)
    bodies, results = [], []
    for workers in (1, 2):
        cfg = load_config(
            write_config(tmp_path, TINY.format(out=tmp_path / f"w{workers}")),
            dict(overrides, workers=workers),
        )
        report = run_experiment(experiment, cfg)
        assert report["meta"]["workers_used"] == workers
        bodies.append(strip_comments(report["files"]["csv"]))
        results.append(report["results"])
    assert len(bodies[0]) > 1
    assert bodies[0] == bodies[1]
    assert results[0] == results[1]


def test_library_averagers_match_harness(tmp_path):
    # the harness averages over paths the fits of the tables that the
    # library's table builders give on each path it draws
    for overrides in ({"M": 300}, dict(SHIFT, M=400)):
        cfg = load_config(
            write_config(tmp_path, TINY.format(out=tmp_path / "out")), dict(overrides, workers=1)
        )
        assert cfg.paths == 2
        system = cfg.system()
        paths = [
            sample_path(cfg.process(), katok_horizon(system, cfg.n, cfg.eps), seed)
            for seed in path_seeds(cfg.seed, cfg.paths)
        ]
        tables = {
            "compare-top": [
                count_table(system, path, cfg.n, cfg.eps, cfg.candidate_target, cfg.candidate_budget)
                for path in paths
            ],
            "compare-katok": [
                katok_table(sample_measure(system, path, cfg.M, path.seed), cfg.n, cfg.eps, cfg.pair_budget)
                for path in paths
            ],
        }
        for experiment, per_path in tables.items():
            estimates = run_experiment(experiment, cfg)["results"]["estimates"]
            for kind in KINDS:
                fits = [entropy_from_counts(table, kind) for table in per_path]
                assert estimates[kind]["slopes_per_path"] == [list(fit.slopes) for fit in fits]


def test_compare_local_gap_zero_on_band_zero(tmp_path):
    # both kinds fit at delta_used = 0.1, where every n <= 8 has slack band
    # 0 and the fk ball is identical to the bowen ball, so the gap is 0;
    # at delta = 0.2, n = 6 and 8 have slack 1 and fk counts may exceed
    # bowen's, but that column is not fitted
    cfg = load_config(
        write_config(tmp_path, TINY.format(out=tmp_path / "out")),
        {"n": (4, 6, 8), "M": 5000, "base_points": 2},
    )
    report = run_experiment("compare-local", cfg)
    gap = report["results"]["gap"]
    assert gap["max_abs"] == 0.0
    assert gap["vacuous"] is True
    estimates = report["results"]["estimates"]
    for kind in (BOWEN, FK):
        assert estimates[kind]["delta_used"] == [0.1, 0.1]
    assert [match_slack(n, 0.1) for n in cfg.n] == [0, 0, 0]
    assert [match_slack(n, 0.2) for n in cfg.n] == [0, 1, 1]
    body = strip_comments(report["files"]["csv"])
    assert body[0].rstrip("\n") == "omega_seed,x,n,delta,kind,ball_count,M,estimate,flagged"
    counts = {}
    for row in csv.DictReader(body):
        counts[(row["x"], int(row["n"]), float(row["delta"]), row["kind"])] = int(row["ball_count"])
    cells = {key[:3] for key in counts}
    assert len(cells) == 2 * 3 * 2
    for x, n, delta in cells:
        bowen, fk = counts[(x, n, delta, BOWEN)], counts[(x, n, delta, FK)]
        if match_slack(n, delta) == 0:
            assert fk == bowen
        else:
            assert fk >= bowen


def test_gap_not_vacuous_where_fk_fits_a_slack_band(tmp_path, capsys):
    # at delta = 0.2 the FK bands of n = 4..12 are 0, 1, 1, 1, 2: the FK
    # value pools the band-1 group, so the comparison can show something
    assert [match_slack(n, 0.2) for n in (4, 6, 8, 10, 12)] == [0, 1, 1, 1, 2]
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    flags = ["--n", "4,6,8,10,12", "--delta", "0.2", "--M", "200000", "--base-points", "2"]
    assert main(["compare-local", "--config", path, *flags]) == 0
    assert "(not vacuous)" in capsys.readouterr().out
    with open(tmp_path / "out" / "report.json") as fh:
        results = json.load(fh)["results"]
    assert results["gap"]["vacuous"] is False
    assert results["estimates"][FK]["delta_used"] == [0.2, 0.2]
    # the default delta schedule reads the value at 0.1, all band 0
    assert main(["compare-local", "--config", path, "--M", "20000"]) == 0
    assert "(vacuous: no fk value fits a slack band above 0)" in capsys.readouterr().out


def test_degenerate_radius_reports_null_slope(tmp_path):
    # at eps = 0.25 the FK bands of n = 4, 5, 9 are 0, 1, 2, no group of two
    # n: that FK slope is null in report.json, and the value, read at
    # eps = 0.1 (all band 0), stands
    assert [match_slack(n, 0.25) for n in (4, 5, 9)] == [0, 1, 2]
    cfg = load_config(
        write_config(tmp_path, TINY.format(out=tmp_path / "out")),
        {"n": (4, 5, 9), "eps": (0.25, 0.1), "M": 300, "paths": 1},
    )
    run_experiment("compare-katok", cfg)
    with open(tmp_path / "out" / "report.json") as fh:
        results = json.load(fh)["results"]
    fk, bowen = results["estimates"][FK], results["estimates"][BOWEN]
    assert fk["eps_order"] == [0.1, 0.25]
    assert fk["slopes_per_path"][0][1] is None and fk["slopes_per_path"][0][0] == fk["mean"]
    assert all(isinstance(v, float) for v in bowen["slopes_per_path"][0])
    assert results["gap"]["vacuous"] is True


# one toy run of every experiment on the circle and on the shift
TOY_RUNS = [
    ("compare-top", {"paths": 2, "M": 1000, "candidate_target": 200, "candidate_budget": 8000}),
    ("compare-top", dict(SHIFT, paths=2)),
    ("compare-katok", {"M": 300}),
    ("compare-katok", dict(SHIFT, M=300)),
    ("compare-local", {"M": 20_000}),
    ("compare-local", dict(SHIFT, M=20_000)),
]

PATH_KEYS = {
    "mean", "stderr", "per_path", "eps_order", "eps_used", "slopes_per_path", "fit_rms_per_path", "flagged_cells"
}
POINT_KEYS = {
    "mean", "stderr", "per_point", "delta_order", "delta_used", "slopes_per_point", "fit_rms_per_point",
    "flagged_cells",
}


@pytest.fixture(scope="module", params=TOY_RUNS, ids=lambda run: f"{run[0]}-{run[1].get('family', 'expanding')}")
def toy_run(request, tmp_path_factory):
    experiment, overrides = request.param
    tmp = tmp_path_factory.mktemp("toy")
    cfg = load_config(write_config(tmp, TINY.format(out=tmp / "out")), dict(overrides, workers=1))
    return experiment, cfg, run_experiment(experiment, cfg)["results"]


def nulled(values):
    return [None if math.isnan(v) else v for v in values]


def test_every_report_writes_one_estimate_block(toy_run):
    # every kind of every experiment reports the same block, over paths
    # or base points, and every slope and fit residual per path or point
    experiment, cfg, results = toy_run
    local = experiment == "compare-local"
    over, radius, count = ("point", "delta", cfg.base_points) if local else ("path", "eps", cfg.paths)
    for kind in KINDS:
        block = results["estimates"][kind]
        assert set(block) == (POINT_KEYS if local else PATH_KEYS)
        assert block[f"{radius}_order"] == sorted(getattr(cfg, radius))
        assert len(block[f"per_{over}"]) == len(block[f"slopes_per_{over}"]) == count
        assert all(len(s) == len(block[f"{radius}_order"]) for s in block[f"fit_rms_per_{over}"])
        assert block[f"per_{over}"] == [
            s[block[f"{radius}_order"].index(r)] for s, r in zip(block[f"slopes_per_{over}"], block[f"{radius}_used"])
        ]
        if not local:
            assert block["flagged_cells"] == 0
    if local:
        system = cfg.system()
        path = sample_path(cfg.process(), katok_horizon(system, cfg.n, cfg.delta), path_seeds(cfg.seed, 1)[0])
        base = reference_points(system, path, cfg.base_points, child_rng(cfg.seed, _BASE_STREAM))
        measure = sample_measure(system, path, cfg.M, path.seed)
        for i, x in enumerate(base):
            fits = local_entropy(measure, x, cfg.n, cfg.delta)[1]
            for kind in KINDS:
                assert results["estimates"][kind]["slopes_per_point"][i] == nulled(fits[kind].slopes)


def test_readme_names_every_estimate_key(toy_run):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    outputs = readme[readme.index("### Outputs") : readme.index("### Exit codes")]
    named = set(re.findall(r"`(\w+)`", outputs))
    _, _, results = toy_run
    unnamed = {key for block in results["estimates"].values() for key in block} - named
    assert unnamed == set()


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ValueError, match="experiment"):
        run_experiment("estimate-everything", ExperimentConfig())
    with pytest.raises(ValueError, match="experiment"):
        run_experiment("estimate-top", ExperimentConfig())


def test_cli_oracle_values(capsys):
    assert main(["oracle", "stirling", "--eps", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.6931"
    assert main(["oracle", "expected-entropy", "--m", "2,3", "--p", "0.5,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.8959"
    assert main(["oracle", "match-bound", "--n", "6", "--k", "4"]) == 0
    assert capsys.readouterr().out.strip().isdigit()


def test_cli_oracle_missing_flag(capsys):
    assert main(["oracle", "stirling"]) == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["inf", "nan", "2", "-0.5"])
def test_cli_binomial_rate_rejects_eps_outside_unit_interval(eps, capsys):
    assert main(["oracle", "binomial-rate", "--n", "8", "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: eps must lie in [0, 1]"]


def test_cli_bad_override(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    assert main(["compare-top", "--config", path, "--M", "many"]) == 2
    assert "bad value for --M" in capsys.readouterr().err


def test_cli_rejects_n_beyond_mask_width(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    assert main(["compare-top", "--config", path, "--n", "8,65"]) == 2
    assert "n schedule exceeds 64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config(capsys):
    assert main(["compare-top", "--config", "/nonexistent/run.ini"]) == 2


def test_compare_top_refuses_a_config_without_oracle_before_any_scan(tmp_path, capsys, monkeypatch):
    # an expanding factor of 1 has no entropy oracle; compare-top says so
    # before it scans a single path, not after scanning every one
    calls = []

    def scan(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a path was scanned before the oracle check")

    monkeypatch.setattr("fkent.harness.count_table", scan)
    text = TINY.replace("m = 2", "m = 1, 2").replace("p = 1.0", "p = 0.5, 0.5")
    path = write_config(tmp_path, text.format(out=tmp_path / "out"))
    with pytest.raises(ValueError, match="expanding factors >= 2"):
        run_experiment("compare-top", load_config(path))
    assert main(["compare-top", "--config", path]) == 2
    assert "expanding factors >= 2" in capsys.readouterr().err
    assert calls == []


def test_cli_maps_invariant_violation(tmp_path, capsys, monkeypatch):
    import fkent.cli as cli_module

    def boom(experiment, cfg):
        raise InvariantViolation("fk ball count fell below the bowen count")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    assert main(["compare-local", "--config", path]) == 3
    assert "fell below" in capsys.readouterr().err


def test_cli_resource_cap(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    code = main(["compare-katok", "--config", path, "--M", "4000", "--pair-budget", "1000"])
    assert code == 4
    assert "pair" in capsys.readouterr().err


def test_cli_word_enumeration_cap(tmp_path, capsys):
    # on the (2, 2) shift, n = 5 at eps = 0.1 enumerates 2^8 = 256 words
    text = TINY.replace("family = expanding", "family = shift").replace("m = 2", "m = 2, 2")
    text = text.replace("p = 1.0", "p = 0.5, 0.5").replace("n = 4, 6, 8", "n = 3, 4, 5")
    path = write_config(tmp_path, text.format(out=tmp_path / "out"))
    code = main(["compare-top", "--config", path, "--paths", "1", "--candidate-budget", "100"])
    assert code == 4
    assert "budget 100" in capsys.readouterr().err


def test_cli_estimate_top_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    code = main(
        [
            "compare-top",
            "--config",
            path,
            "--paths",
            "1",
            "--M",
            "800",
            "--candidate-target",
            "150",
            "--candidate-budget",
            "6000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bowen:" in out and "fk:" in out and "gap fk-bowen:" in out and "wrote" in out


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith("selftest passed (7 checks)")
