"""Command line front end.

Exit codes: 0 success, 2 configuration or usage error, 3 a numerical
invariant failed, 4 a resource cap was exceeded.  Estimation subcommands
write report.json plus one CSV into the configured output directory and
print a short summary; `oracle` prints a single closed-form value;
`selftest` runs the fast exactness checks and exits 0 when they hold.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .harness import EXPERIMENTS, ExperimentConfig, load_config, run_experiment
from .matching import (
    FK,
    bowen_ball_batch,
    bowen_distance,
    brute_force_match,
    brute_force_match_matrix,
    fk_ball_batch,
    fk_distance,
    in_fk_ball,
    max_match_batch,
    max_match_size,
    slack_band,
)
from .oracles import (
    binomial_rate,
    expected_entropy,
    match_count_bound,
    stirling_rate,
)
from .systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    ResourceCapExceeded,
    shift_system,
)

__all__ = ["main"]

# the config fields `oracle expected-entropy` reads: the system and its driving law
_ORACLE_FIELDS = [f for f in fields(ExperimentConfig) if f.metadata["section"] in ("system", "driving")]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkent",
        description="entropy estimation for random dynamical systems "
        "under synchronized and match-based orbit metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", metavar="FILE", help="INI config file")
        for f in fields(ExperimentConfig):
            sp.add_argument(_flag(f.name), dest=f.name, metavar="V", help=f.metadata["help"])

    orc = sub.add_parser("oracle", help="print a closed-form reference value")
    orc.add_argument(
        "kind",
        choices=["stirling", "binomial-rate", "match-bound", "expected-entropy"],
    )
    orc.add_argument("--eps", metavar="V")
    orc.add_argument("--n", metavar="V")
    orc.add_argument("--k", metavar="V")
    for f in _ORACLE_FIELDS:
        orc.add_argument(_flag(f.name), dest=f.name, metavar="V")

    sub.add_parser("selftest", help="fast exactness checks; exit 0 when all hold")
    return parser


def _overrides(args: argparse.Namespace, config_fields) -> dict:
    """The given config fields' flag values, parsed by their declared parsers."""
    out = {}
    for f in config_fields:
        raw = getattr(args, f.name)
        if raw is None:
            continue
        try:
            out[f.name] = f.metadata["parse"](raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {_flag(f.name)}: {exc}") from None
    return out


def _print_report(report: dict) -> None:
    results = report["results"]
    for metric in sorted(results["estimates"]):
        block = results["estimates"][metric]
        print(f"{metric}: {block['mean']:.4f} +/- {block['stderr']:.4f}")
    if "oracle" in results:
        orc = results["oracle"]
        print(f"oracle[{orc['derivation']}]: {orc['value']:.4f}")
    gap = results["gap"]
    vacuous = "vacuous: no fk value fits a slack band above 0" if gap["vacuous"] else "not vacuous"
    print(f"gap fk-bowen: mean {gap['mean']:.4f} max|.| {gap['max_abs']:.4f} ({vacuous})")
    print(f"wrote {report['files']['csv']} {report['files']['report']}")


def _require(args: argparse.Namespace, kind: str, *names: str) -> list[str]:
    values = []
    for name in names:
        v = getattr(args, name, None)
        if v is None:
            raise ValueError(f"oracle {kind} needs --{name}")
        values.append(v)
    return values


def _run_oracle(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "stirling":
        (eps,) = _require(args, kind, "eps")
        print("%.4f" % stirling_rate(float(eps)))
    elif kind == "binomial-rate":
        n, eps = _require(args, kind, "n", "eps")
        print("%.4f" % binomial_rate(int(n), float(eps)))
    elif kind == "match-bound":
        n, k = _require(args, kind, "n", "k")
        print(match_count_bound(int(n), int(k)))
    else:
        cfg = load_config(None, _overrides(args, _ORACLE_FIELDS))
        oracle = expected_entropy(cfg.system(), cfg.process())
        print("%.4f" % oracle.value)
    return 0


def _segment(points: np.ndarray) -> OrbitSegment:
    return OrbitSegment(points.shape[0], points=points)


def _selftest() -> int:
    rng = np.random.default_rng(20260819)

    for trial in range(150):
        n = int(rng.integers(1, 8))
        compat = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        got = int(max_match_batch(compat)[0])
        want = brute_force_match_matrix(compat)
        if got != want:
            raise InvariantViolation(f"match DP {got} != brute force {want} on matrix {trial}")
    print("ok: match DP equals brute force on 150 synthetic matrices")

    for trial in range(100):
        n = int(rng.integers(2, 8))
        a = _segment(rng.random(n))
        b = _segment(rng.random(n))
        eps = float(rng.uniform(0.05, 0.6))
        got = max_match_size(a, b, eps)
        want = brute_force_match(a, b, eps)
        if got != want:
            raise InvariantViolation(f"match DP {got} != brute force {want} on orbit pair {trial}")
    print("ok: match DP equals brute force on 100 orbit pairs")

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a = _segment(rng.random(n))
        b = _segment(rng.random(n))
        fk = fk_distance(a, b, tol=1e-9).value
        fk_rev = fk_distance(b, a, tol=1e-9).value
        worst = max(worst, abs(fk - fk_rev))
        if fk > bowen_distance(a, b) + 1e-9:
            raise InvariantViolation("FK distance exceeded the synchronized distance")
    if worst > 1e-9:
        raise InvariantViolation(f"FK symmetry violated by {worst}")
    print("ok: FK symmetric and dominated by the synchronized metric on 200 pairs")

    for trial in range(20):
        n = int(rng.integers(1, 13))
        # grid points put pair gaps exactly at delta, where open and closed balls differ
        others = rng.integers(0, 16, size=(n + 1, 300)) / 16.0
        picks = rng.choice(300, size=6, replace=False)
        delta = int(rng.integers(1, 8)) / 16.0
        orbits = [_segment(others[:n, j]) for j in range(300)]
        dist = np.array([[bowen_distance(orbits[c], b) for b in orbits] for c in picks])
        for closed in (False, True):
            want = dist <= delta if closed else dist < delta
            stacked = bowen_ball_batch(OrbitSegment(n, points=others[:, picks]), others, delta, closed=closed)
            single = [bowen_ball_batch(orbits[c], others, delta, closed=closed) for c in picks]
            if not (np.array_equal(stacked, want) and np.array_equal(single, want)):
                raise InvariantViolation(f"Bowen ball kernel differs from bowen_distance on circle stack {trial}")
    print("ok: Bowen ball kernel equals pairwise distances on 20 circle stacks")

    M = 40_000
    for trial in range(8):
        n = int(rng.integers(4, 13))
        delta = float(rng.choice([k / 16 for k in range(1, 6) if slack_band(FK, n, k / 16) in (1, 2)]))
        # samples lag 8 grid centers by 0 or 1 steps with a few steps nudged by
        # 1/16, so balls at slack 1-2 hold some and miss others, and gaps fall
        # exactly at delta; M samples span several recurrence chunks both for
        # one center and for the stack
        base = rng.integers(0, 16, size=(n + 1, 8))
        grid = base[np.arange(n)[:, None] + rng.integers(0, 2, size=M), rng.integers(0, 8, size=M)]
        nudge = rng.integers(-1, 2, size=grid.shape) * (rng.random(grid.shape) < 0.15)
        others = (grid + nudge) % 16 / 16.0
        centers = base[:n] / 16.0
        for closed in (False, True):
            for stack in (centers[:, 0], centers):
                got = fk_ball_batch(_segment(stack), others, delta, closed=closed).reshape(-1, M)
                # up to 24 pairs inside the balls and 24 outside
                inside, outside = np.flatnonzero(got), np.flatnonzero(~got)
                picks = [rng.choice(f, size=min(24, f.size), replace=False) for f in (inside, outside)]
                for c, j in zip(*np.divmod(np.concatenate(picks), M)):
                    if got[c, j] != in_fk_ball(_segment(centers[:, c]), _segment(others[:, j]), delta, closed=closed):
                        raise InvariantViolation(f"FK ball kernel differs from in_fk_ball on circle stack {trial}")
    print("ok: FK ball kernel equals in_fk_ball on 8 circle stacks of 40,000 samples")

    gap = abs(binomial_rate(10_000, 0.5) - stirling_rate(0.5))
    if gap > 1e-3:
        raise InvariantViolation(f"binomial rate off by {gap}")
    print("ok: binomial rate matches its limit at n = 10^4")

    # 3-bit symbols pack 5 columns per key, so 12 columns fill 3 keys,
    # the last one short; a quarter of the rows repeat earlier ones
    system = shift_system((2, 3, 5))
    path = OmegaPath(rng.integers(0, 3, size=12))
    words = rng.integers(0, system.factor_along(path, 12), size=(4000, 12))
    words[3000:] = words[rng.integers(0, 3000, size=1000)]
    order, shared = EmpiricalMeasure(system, path, words).prefix_index
    want = np.lexsort(words.T[::-1])
    ranked = words[want]
    differ = np.concatenate([ranked[1:] != ranked[:-1], np.ones((3999, 1), dtype=bool)], axis=1)
    if not (np.array_equal(order, want) and np.array_equal(shared, differ.argmax(axis=1))):
        raise InvariantViolation("word prefix index differs from np.lexsort on the symbols")
    print("ok: word prefix index equals np.lexsort on 4,000 mixed-alphabet words")

    print("selftest passed (7 checks)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "selftest":
            return _selftest()
        cfg = load_config(args.config, _overrides(args, fields(ExperimentConfig)))
        report = run_experiment(args.command, cfg)
        _print_report(report)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
