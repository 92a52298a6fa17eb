"""Figure 19: RocksDB (db_bench) performance on each FTL design.

The store is filled with ``fillseq`` + ``overwrite`` (to 80 % of the usable
capacity) and then ``readrandom`` and ``readseq`` measure read performance with
a single thread.  Expected shape: LearnedFTL outperforms DFTL/TPFTL/LeaFTL on
readrandom (the paper reports 1.3-1.4x) thanks to model hits replacing double
reads, and is at least as good on readseq.
"""

from __future__ import annotations

from repro.analysis.latency import normalize
from repro.experiments.runner import ALL_FTLS, ExperimentResult, Scale, ScaleSpec, observe_device
from repro.ssd.device import SSD
from repro.workloads.rocksdb import DbBench, MiniLSM

__all__ = ["run"]

#: The orchestrator runs one task per FTL.
SHARD_AXES = {"ftls": ALL_FTLS}


def run(
    scale: Scale | str = Scale.DEFAULT, *, ftls: tuple[str, ...] = ALL_FTLS
) -> ExperimentResult:
    """Reproduce Figure 19 (db_bench readrandom / readseq plus hit ratios)."""
    scale = Scale.parse(scale)
    spec = ScaleSpec.for_scale(scale)
    # Size the key space so the live store fills roughly a third of the device:
    # whole-level compactions briefly hold both the old and the new tables, so
    # the peak footprint is about twice the live size.
    entries_per_page = 16
    num_keys = int(spec.geometry.num_logical_pages * 0.35 * entries_per_page)
    read_ops = spec.read_requests // 4 if scale is not Scale.TINY else 2_000
    result = ExperimentResult(
        name="fig19",
        description="RocksDB db_bench readrandom/readseq on each FTL (single thread)",
    )
    hit_rows: list[dict[str, object]] = []
    random_tput: dict[str, float] = {}
    seq_tput: dict[str, float] = {}
    for ftl_name in ftls:
        ssd = SSD.create(ftl_name, spec.geometry)
        lsm = MiniLSM(
            ssd,
            memtable_entries=max(256, num_keys // 64),
            entries_per_page=entries_per_page,
        )
        bench = DbBench(lsm, num_keys=num_keys)
        bench.fillseq()
        bench.overwrite(num_keys // 2)
        lsm.flush_memtable()
        # Measure the read phases with clean statistics.
        ssd.reset_stats()
        observe_device(ftl_name, ssd)
        rand_result = bench.readrandom(read_ops)
        rand_stats = ssd.reset_stats()
        seq_result = bench.readseq()
        seq_stats = ssd.stats
        random_tput[ftl_name] = rand_result.ops_per_second
        seq_tput[ftl_name] = seq_result.ops_per_second
        result.rows.append(
            {
                "ftl": ftl_name,
                "readrandom_ops_s": round(rand_result.ops_per_second, 0),
                "readseq_ops_s": round(seq_result.ops_per_second, 0),
            }
        )
        for phase, stats in (("readrandom", rand_stats), ("readseq", seq_stats)):
            hit_rows.append(
                {
                    "ftl": ftl_name,
                    "phase": phase,
                    "cmt_hit": round(stats.cmt_hit_ratio(), 3),
                    "model_hit": round(stats.model_hit_ratio(), 3),
                    "single_read_fraction": round(stats.single_read_fraction(), 3),
                }
            )
    result.raw["readrandom_ops_s"] = random_tput
    result.raw["readseq_ops_s"] = seq_tput
    result.extra_tables["fig19b: CMT and model hit ratios"] = hit_rows
    result.notes.append(
        "Expected shape: learnedftl's readrandom_normalized exceeds dftl/tpftl/leaftl and "
        "approaches ideal."
    )
    return finish(result)


def finish(result: ExperimentResult) -> ExperimentResult:
    """Add the columns normalized to DFTL, when DFTL's run is among the rows."""
    random_tput = result.raw["readrandom_ops_s"]
    seq_tput = result.raw["readseq_ops_s"]
    if "dftl" in random_tput:
        random_norm = normalize(random_tput, baseline="dftl")
        seq_norm = normalize(seq_tput, baseline="dftl")
        for row in result.rows:
            row["readrandom_normalized"] = round(random_norm[row["ftl"]], 3)
            row["readseq_normalized"] = round(seq_norm[row["ftl"]], 3)
    return result
