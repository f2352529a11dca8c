"""Regenerate bench/coverage_reference.csv, the table the coverage and oracle
sweeps are checked against:

    python3 bench/make_reference.py

Each row is ``analytics.coverage_probability`` at one point of the
coverage_sweep grid, written with full precision.
"""
from run import use_checkout_sources

use_checkout_sources()

from udngc import analytics  # noqa: E402

from workloads import REFERENCE, coverage_grid, coverage_params  # noqa: E402


def main() -> None:
    lines = [
        "# analytics.coverage_probability on the coverage_sweep grid (eta1 = 2)",
        "# generated by: python3 bench/make_reference.py",
        "tau_db,m,eta2,lambda_bs,d_critical,coverage",
    ]
    for key in coverage_grid():
        value = analytics.coverage_probability(coverage_params(*key))
        lines.append(",".join(map(repr, key + (value,))))
    REFERENCE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
