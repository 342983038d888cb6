"""F3 — Figure 3: assignment of register banks for stacks and frames.

Regenerates the figure's exact table: the events "begin X, call A,
return, call B, call C, return, call D, return" over four banks, with
the stack bank renamed into each callee's local bank, and the manager's
Lbank and Sbank read after each (``repro.banks.renaming.figure3``).
Paper row values (1-indexed): Lbank = 1,2,1,3,2,3,4,3 and
Sbank = 2,3,3,2,4,4,2,2.
"""

from __future__ import annotations

from repro.analysis.report import banner, format_table
from repro.banks.bankfile import BankFile
from repro.banks.renaming import figure3

PAPER_LBANK = [1, 2, 1, 3, 2, 3, 4, 3]
PAPER_SBANK = [2, 3, 3, 2, 4, 4, 2, 2]


def report() -> str:
    banks = BankFile(4, 16)
    rows = []
    for (event, lbank, sbank), paper_l, paper_s in zip(
        figure3(banks), PAPER_LBANK, PAPER_SBANK, strict=True
    ):
        rows.append([event, paper_l, lbank, paper_s, sbank])
        assert lbank == paper_l and sbank == paper_s
    assert banks.stats.overflows == 0  # 4 banks suffice, as drawn
    table = format_table(
        ["event", "Lbank (paper)", "Lbank (us)", "Sbank (paper)", "Sbank (us)"], rows
    )
    return banner("F3 / Figure 3: bank assignment under renaming") + "\n" + table


def test_f3_matches_paper_exactly():
    report()  # the asserts inside are the test


def test_bench_renaming_sequence(benchmark):
    benchmark(figure3)


if __name__ == "__main__":
    print(report())
