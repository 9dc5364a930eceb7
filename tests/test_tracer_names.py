"""The names the perfbench tracer patches exist, and a build reaches them.

The tracer wraps module and class attributes by name. A renamed attribute,
or a call that bypasses the patched name, would otherwise show only as a
per-layer metric reading zero in a traced perfbench run.
"""

from pathlib import Path

from zfolio.evaluation import drop_unsolvable, split_data
from zfolio.portfolio import BuildSettings, build_portfolio
from zfolio.synthetic import generate_benchmark

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_are_wrapped_and_reached(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer, install_zfolio_tracing

    tracer = Tracer()
    try:
        install_zfolio_tracing(tracer)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert current is not original and current.__wrapped__ is original, attr

        bench = generate_benchmark(num_instances=30, seed=0)
        kept, _ = drop_unsolvable(bench.matrix)
        train, valid, _ = split_data(kept, seed=0)
        settings = BuildSettings(objective="max_score", hierarchy="sat2", cv_folds=5,
                                 max_raw_terms=4, max_expanded_terms=6)
        build_portfolio(train, valid, bench.features,
                        bench.matrix.restrict(instances=[*train, *valid]),
                        bench.descriptors, settings, bench.purse, bench.series)
        spans = tracer.span_totals()
        for name in ("hierarchy.fit_gating", "learning.select_basis", "scoring.score_labels",
                     "portfolio.choose_backup", "portfolio.simulator_init",
                     "portfolio.subset_search"):
            assert spans.get(name, {}).get("calls", 0) > 0, name
    finally:
        tracer.uninstall()
