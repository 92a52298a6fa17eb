"""Figure 3: TPFTL's CMT hit ratio as the cache grows (random reads).

The paper shows that even a CMT holding 50 % of all page mappings only reaches
a ~26 % hit ratio under random reads: growing the cache cannot fix the
double-read problem, which motivates compressing the mapping table instead.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import FTLConfig
from repro.experiments.runner import ExperimentResult, Scale, ScaleSpec, prepare_ssd
from repro.workloads.fio import FioJob

__all__ = ["run"]

#: CMT capacities (fraction of the full mapping table) swept by the paper.
DEFAULT_RATIOS: Sequence[float] = (0.001, 0.03, 0.10, 0.30, 0.50)


def run(
    scale: Scale | str = Scale.DEFAULT,
    *,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    ftl_name: str = "tpftl",
) -> ExperimentResult:
    """Reproduce Figure 3 (CMT hit ratio vs CMT space ratio)."""
    spec = ScaleSpec.for_scale(scale)
    result = ExperimentResult(
        name="fig03",
        description="TPFTL CMT hit ratio vs CMT space under random and sequential reads",
    )
    for ratio in ratios:
        config = FTLConfig(cmt_ratio=ratio)
        row: dict[str, object] = {"cmt_space_pct": round(ratio * 100, 2)}
        for pattern in ("randread", "seqread"):
            ssd = prepare_ssd(ftl_name, spec, config=config, warmup="steady")
            job = FioJob.from_name(pattern, spec.read_requests)
            ssd.run(job.requests(spec.geometry), threads=spec.threads)
            row[f"{pattern}_cmt_hit"] = round(ssd.stats.cmt_hit_ratio(), 4)
        result.rows.append(row)
    result.notes.append(
        "Expected shape: the random-read hit ratio grows sub-linearly with cache size "
        "and stays far below the sequential-read hit ratio until the CMT approaches the "
        "full mapping table."
    )
    return result


def warm_ups(
    spec: ScaleSpec, *, ratios: Sequence[float] = DEFAULT_RATIOS, ftl_name: str = "tpftl"
) -> list[dict]:
    """The ``prepare_ssd`` keyword arguments of each warm-up :func:`run` makes."""
    return [dict(ftl_name=ftl_name, spec=spec, config=FTLConfig(cmt_ratio=r)) for r in ratios]
