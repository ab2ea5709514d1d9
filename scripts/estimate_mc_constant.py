"""Empirical check of the trial-count rule against the exact oracle.

Samples sparse polynomials at a small variable count, computes their exact
positive proportions, then runs many seeded Monte-Carlo estimates at several
trial budgets.  For each budget the script reports the observed error
quantiles and the fraction of runs whose error exceeds the target gap, side
by side with the failure probability the trial-count rule was solved for.

Example:
    python3 scripts/estimate_mc_constant.py --trials 500,1000,3023 --runs 200
"""

import argparse
import random
import statistics

from cubesign.automorphisms import sample_sparse
from cubesign.counting import estimate_positive_proportion, exact_value_counts
from cubesign.params import SchemeParams


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--nvars", type=int, default=10, help="variables per polynomial")
    parser.add_argument("--polys", type=int, default=25, help="distinct polynomials")
    parser.add_argument("--runs", type=int, default=100, help="estimates per trial budget")
    parser.add_argument("--epsilon", type=float, default=0.03, help="target error gap")
    parser.add_argument(
        "--trials", default="756,3023,12089",
        help="comma-separated trial budgets to compare",
    )
    args = parser.parse_args(argv)

    budgets = [int(tok) for tok in args.trials.split(",") if tok.strip()]
    targets = []
    for i in range(args.polys):
        sp = SchemeParams(n=args.nvars, t=2 + i % 4, b=3, trials=max(budgets))
        p = sample_sparse(sp, sp.n, random.Random(args.seed + i))
        targets.append((p, exact_value_counts(p).positive / (1 << sp.n)))

    print(f"{'trials':>8} {'mean_err':>9} {'p50_err':>9} {'p95_err':>9} {'max_err':>9}"
          f" {'exceed':>7}")
    for budget in budgets:
        errors = []
        for run in range(args.runs):
            p, exact = targets[run % len(targets)]
            rng = random.Random(args.seed + 10_000 * budget + run)
            est = estimate_positive_proportion(p, budget, rng)
            errors.append(abs(est - exact))
        errors.sort()
        exceed = sum(1 for e in errors if e > args.epsilon)
        print(f"{budget:>8} {statistics.mean(errors):>9.5f}"
              f" {errors[len(errors) // 2]:>9.5f}"
              f" {errors[int(len(errors) * 0.95)]:>9.5f} {errors[-1]:>9.5f}"
              f" {exceed:>4}/{args.runs}")
    print(f"(exceed: runs with error above epsilon={args.epsilon};"
          f" {args.polys} polynomials at n={args.nvars})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
