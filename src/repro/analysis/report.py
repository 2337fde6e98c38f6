"""One-command evaluation report.

``python -m repro report`` regenerates a configurable set of artifacts from
:data:`repro.analysis.EXPERIMENTS` and assembles them into a single
markdown document.  The default selection covers the calibrated hardware
tables, Table V and the analytic ablations; pass ``artifacts=("all",)`` or
an explicit list to include the training-based tables and figures at the
chosen scale.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import List, Sequence

from .experiments import ExperimentTable
from .presets import FAST, ExperimentScale
from .registry import EXPERIMENTS

#: artifacts cheap enough to regenerate on every report by default
DEFAULT_ARTIFACTS = ("table3", "table4", "table5", "dse", "irdrop")

REPORT_HEADER = """\
# FORMS reproduction — generated evaluation report

Paper: *FORMS: Fine-grained Polarized ReRAM-based In-situ Computation for
Mixed-signal DNN Accelerator* (ISCA 2021, arXiv:2106.09144).

Regenerated by ``python -m repro report``.  Absolute values are not expected
to match the paper (scaled models, synthetic data, analytic timing); the
claims each table must satisfy are the checks of ``python -m repro <name>``
(``repro/analysis/registry.py``).
"""


@dataclass
class ReportSection:
    """One regenerated artifact inside the report."""

    name: str
    description: str
    table: ExperimentTable
    elapsed_s: float

    def rendered(self) -> str:
        return (f"## {self.name} — {self.description}\n\n"
                f"```\n{self.table.rendered}\n```\n\n"
                f"_regenerated in {self.elapsed_s:.1f}s_\n")


def generate_report(artifacts: Sequence[str] = DEFAULT_ARTIFACTS,
                    scale: ExperimentScale = FAST,
                    seed: int = 0) -> str:
    """Regenerate the selected artifacts and return the markdown report."""
    names = sorted(EXPERIMENTS) if list(artifacts) == ["all"] else list(artifacts)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown artifacts: {unknown}; "
                         f"options: {sorted(EXPERIMENTS)}")
    sections: List[ReportSection] = []
    for name in names:
        entry = EXPERIMENTS[name]
        start = time.perf_counter()
        table = entry.driver(scale, seed)
        sections.append(ReportSection(name=name,
                                      description=entry.description,
                                      table=table,
                                      elapsed_s=time.perf_counter() - start))
    body = "\n".join(section.rendered() for section in sections)
    total = sum(section.elapsed_s for section in sections)
    footer = (f"---\n{len(sections)} artifacts regenerated "
              f"at scale {scale.name} in {total:.1f}s.\n")
    return f"{REPORT_HEADER}\n{body}\n{footer}"


def write_report(path: pathlib.Path | str,
                 artifacts: Sequence[str] = DEFAULT_ARTIFACTS,
                 scale: ExperimentScale = FAST, seed: int = 0) -> pathlib.Path:
    """Generate and save the report; returns the written path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(artifacts, scale, seed))
    return path
