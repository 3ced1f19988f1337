"""T1 — performance tuning as a tool: configuration choice and the
section-4.4 upgrade ladder (the paper's title, quantified)."""

from repro.io import format_table
from repro.perfmodel import best_configuration, crossover_table, tuning_ladder

from .conftest import anchor, emit


def test_configuration_choice(benchmark):
    def rank():
        return {n: best_configuration(n)[0].label for n in (2_000, 50_000, 1_500_000)}

    winners = benchmark(rank)
    emit(
        "Best configuration per problem size (model)",
        format_table(["N", "fastest configuration"], sorted(winners.items())),
    )
    # the paper's operating guidance: small problems on small machines
    assert "node" in winners[2_000] and "16" not in winners[2_000]
    assert "16 nodes" in winners[1_500_000]


def test_crossover_cheat_sheet(benchmark):
    rows = benchmark(crossover_table)
    emit(
        "Upgrade crossovers (constant softening)",
        format_table(["upgrade", "pays off above N"], rows),
    )
    values = dict(rows)
    # in-cluster upgrades pay off early; cluster upgrades very late
    assert values["2 nodes > 1 node"] < 10_000
    assert values["8 nodes (2 clusters) > 4 nodes (1 cluster)"] > 80_000


def test_tuning_ladder_headline(benchmark):
    rows = benchmark(tuning_ladder, 1_800_000)
    emit(
        "Section 4.4 tuning ladder at N = 1.8M [Tflops]",
        format_table(["system", "Tflops"], [(l, f"{t:.1f}") for l, t in rows]),
    )
    speeds = dict(rows)
    base = speeds["NS 83820 + Athlon (original)"]
    tuned = speeds["Intel 82540EM + P4 2.85 (the paper's tuned system)"]
    myri = speeds["Myrinet + P4 (unaffordable that year)"]
    # the paper's measured ordering and headline
    assert base < tuned
    headline = anchor("fig19")
    assert tuned == headline.reproduced and headline.within_band
    # the title: "towards 40 'real' Tflops" — the Myrinet rung gets close
    assert myri > tuned
    assert myri > 35.0
