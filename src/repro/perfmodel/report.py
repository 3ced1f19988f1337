"""Machine-readable reproduction report: every paper anchor vs the
model, in one structure.

EXPERIMENTS.md's table, regenerable: each :class:`Anchor` carries the
paper's statement, the paper's value, the reproduced value and the
acceptance band, so the whole reproduction status can be printed (or
asserted) in one call.  ``python -m repro.perfmodel.report`` prints it.
The figure anchors are stated beside their figure in
:data:`repro.figures.FIGURES`; this module evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..figures import FIGURES, Figure, application_rows


@dataclass(frozen=True)
class Anchor:
    """One quantitative claim of the paper and its reproduction."""

    figure: str
    statement: str
    paper_value: float
    reproduced: float
    rel_tolerance: float

    @property
    def ratio(self) -> float:
        return self.reproduced / self.paper_value if self.paper_value else float("nan")

    @property
    def within_band(self) -> bool:
        return abs(self.reproduced - self.paper_value) <= self.rel_tolerance * abs(
            self.paper_value
        )


def check_figure(figure: Figure) -> list[Anchor]:
    """The figure's anchors (:data:`repro.figures.FIGURES`) evaluated."""
    return [
        Anchor(f"fig{figure.number}", claim.statement, claim.paper_value,
               claim.reproduce(figure), claim.rel_tolerance)
        for claim in figure.anchors
    ]


def build_report() -> list[Anchor]:
    """Evaluate every headline anchor; returns the full list."""
    anchors = [a for figure in FIGURES.values() for a in check_figure(figure)]
    runs = application_rows()
    for column, kind, tolerance in (
        ("tflops_accounting", "accounting", 0.01),
        ("tflops_model", "model prediction", 0.25),
    ):
        anchors += [
            Anchor("sec5", f"{run['run']} sustained [Tflops] ({kind})",
                   run["tflops_paper"], run[column], tolerance)
            for run in runs
        ]
    return anchors


def all_anchors_hold(report: list[Anchor] | None = None) -> bool:
    return all(a.within_band for a in (report if report is not None else build_report()))


def format_report(report: list[Anchor] | None = None) -> str:
    from ..io.tables import format_table

    rows = []
    for a in report if report is not None else build_report():
        rows.append(
            (
                a.figure,
                a.statement,
                a.paper_value,
                a.reproduced,
                f"{a.ratio:.2f}",
                "OK" if a.within_band else "DEVIATES",
            )
        )
    return format_table(
        ("figure", "anchor", "paper", "reproduced", "ratio", "status"), rows
    )


def main() -> int:  # pragma: no cover - thin CLI
    report = build_report()
    print(format_report(report))
    print()
    print("all anchors hold:", all_anchors_hold(report))
    return 0 if all_anchors_hold(report) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
