"""Competition-style scoring and the independent series approximation.

Each instance carries a solution purse (split among solvers that solve it)
and a speed purse (split by speed factor); each series of related
instances carries one series purse split among solvers that crack any of
them. The series purse couples instances, so learning targets use a
conservative per-instance approximation instead.
"""

from zfolio import (
    PurseConfig,
    RunRecord,
    RuntimeMatrix,
    competition_score,
    score_labels,
    speed_factor,
)
from zfolio.scoring import score_report_csv

purse = PurseConfig(solution_purse=1000, speed_purse=1000, series_purse=300,
                    time_limit=1200)

print("speed factor discounts small runtime differences:")
for t in (0, 1, 10, 599, 1199):
    print(f"  SF(1200, {t:>4}) = {speed_factor(1200, t):8.2f}")

# two series of two instances each, three solvers with mixed luck
matrix = RuntimeMatrix(1200.0)
runs = [
    ("quick", "a1", 2.0, "sat"), ("quick", "a2", 1200.0, "timeout"),
    ("quick", "b1", 5.0, "unsat"), ("quick", "b2", 3.0, "sat"),
    ("steady", "a1", 80.0, "sat"), ("steady", "a2", 90.0, "sat"),
    ("steady", "b1", 110.0, "unsat"), ("steady", "b2", 1200.0, "timeout"),
    ("flaky", "a1", 1200.0, "timeout"), ("flaky", "a2", 1200.0, "timeout"),
    ("flaky", "b1", 1.0, "unsat"), ("flaky", "b2", 1200.0, "timeout"),
]
for sid, iid, t, status in runs:
    matrix.add(RunRecord(sid, iid, t, status))
series = {"a1": "series-a", "a2": "series-a", "b1": "series-b", "b2": "series-b"}

totals = competition_score(matrix, purse, series)
print("\nexact competition scores:")
print(score_report_csv(totals))

# per-instance training labels for one solver: solution + speed shares are
# exact, the series share uses SeriesP / (N * n), a lower bound
runs = matrix.dense()
labels = dict(zip(runs.instances, score_labels(runs, purse, series)[runs.solver_index["steady"]]))
print("independent per-instance labels for 'steady':")
for iid in sorted(labels):
    print(f"  {iid}: {labels[iid]:8.2f}")
approx_total = sum(labels.values())
print(f"label sum {approx_total:.2f} <= exact total {totals['steady'].total:.2f} "
      "(the approximation never overpays)")
