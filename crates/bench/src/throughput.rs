//! Farm throughput measurement (experiment E13).
//!
//! Sweeps the coprocessor farm over shard count × issue batch size for
//! two workloads — the arithmetic batch and χ-sort — and reports
//! aggregate throughput in *simulated* time: N shards are N boards
//! running concurrently, so the farm finishes when its slowest shard
//! does ([`fu_host::Farm::makespan_cycles`]).
//!
//! Every measured configuration is *verified*: the parallel run must be
//! bit-identical to the serial run, or the harness panics.

use fu_host::{Driver, Farm, FarmConfig, Job, LinkModel};
use fu_rtm::{CoprocConfig, FunctionalUnit};
use rtl_sim::StallFuzzer;
use xi_sort::{XiConfig, XiSortAdapter};

use crate::FPGA_MHZ;

/// One measured farm configuration.
#[derive(Debug, Clone)]
pub struct FarmRun {
    /// Workload label (`"arith"` or `"xi-sort"`).
    pub workload: &'static str,
    /// Shards (worker threads / simulated boards).
    pub shards: usize,
    /// Operations per job (instructions for arith, elements for χ-sort);
    /// one barrier round-trip per job, so larger batches amortise it.
    pub batch: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Total operations across all jobs.
    pub ops: u64,
    /// Simulated makespan: max shard cycles (boards run concurrently).
    pub makespan_cycles: u64,
    /// Summed shard cycles (the serial-equivalent simulated cost).
    pub total_cycles: u64,
}

impl FarmRun {
    /// Aggregate operations per second at the modelled FPGA clock.
    pub fn ops_per_sec(&self) -> f64 {
        if self.makespan_cycles == 0 {
            0.0
        } else {
            self.ops as f64 / (self.makespan_cycles as f64 / (FPGA_MHZ * 1e6))
        }
    }

    /// Simulated cycles per operation (CPI for the arith workload).
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.makespan_cycles as f64 / self.ops as f64
        }
    }
}

/// Independent arithmetic jobs: `total` instructions split into
/// `batch`-sized programs (one sync round-trip per program). The stream
/// rotates destinations so instructions within a job overlap in the
/// pipeline instead of serialising on interlocks.
pub fn arith_jobs(total: usize, batch: usize, seed: u64) -> Vec<Job> {
    let mut rng = StallFuzzer::new(seed, 0.0);
    let ops = ["ADD", "SUB", "XOR", "OR", "AND"];
    let mut jobs = Vec::new();
    let mut emitted = 0usize;
    while emitted < total {
        let n = batch.min(total - emitted);
        let mut lines = Vec::with_capacity(n);
        for i in 0..n {
            let op = ops[rng.below(ops.len() as u64) as usize];
            let d = (i % 4) as u8; // rotate r0..r3 as destinations
            let a = 4 + rng.below(4) as u8; // read r4..r7
            let b = 4 + rng.below(4) as u8;
            let f = (i % 4) as u8;
            lines.push(format!("{op} r{d}, r{a}, r{b}, f{f}"));
        }
        emitted += n;
        jobs.push(Job::Program {
            source: lines.join("\n"),
            reads: Vec::new(),
        });
    }
    jobs
}

/// χ-sort jobs: `total` elements split into `batch`-element sorts.
pub fn xi_jobs(total: usize, batch: usize, seed: u64) -> Vec<Job> {
    let mut rng = StallFuzzer::new(seed, 0.0);
    let mut jobs = Vec::new();
    let mut emitted = 0usize;
    while emitted < total {
        let n = batch.min(total - emitted).max(1);
        let values: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        emitted += n;
        jobs.push(Job::XiSort(values));
    }
    jobs
}

/// A farm for the arithmetic workload.
pub fn arith_farm(shards: usize, seed: u64) -> Farm {
    Farm::standard(
        FarmConfig {
            shards,
            seed,
            ..FarmConfig::default()
        },
        CoprocConfig::default(),
        LinkModel::pcie_like(),
    )
}

/// A farm of χ-sort coprocessors with `n_cells`-element sorters.
pub fn xi_farm(shards: usize, n_cells: u32, seed: u64) -> Farm {
    Farm::new(
        FarmConfig {
            shards,
            seed,
            ..FarmConfig::default()
        },
        move |_ctx| {
            let cfg = CoprocConfig::default();
            let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(XiSortAdapter::new(
                XiConfig::new(n_cells),
                cfg.word_bits,
            ))];
            fu_host::System::new(cfg, units, LinkModel::pcie_like())
        },
    )
}

/// Run `jobs` through `farm` serially and in parallel, assert the result
/// streams are bit-identical, and return the measurements.
///
/// # Panics
/// Panics when the parallel stream diverges from the serial stream or
/// when any job fails — both are correctness bugs, not data points.
pub fn run_verified(
    farm: &mut Farm,
    workload: &'static str,
    batch: usize,
    jobs: &[Job],
    ops: u64,
) -> FarmRun {
    let shard_cycles = |farm: &Farm| farm.shards().iter().map(Driver::cycles).collect::<Vec<_>>();
    let serial = farm.run_serial(jobs).expect("serial farm run");
    let serial_cycles = shard_cycles(farm);

    let parallel = farm.run_parallel(jobs).expect("parallel farm run");

    assert_eq!(
        serial,
        parallel,
        "parallel result stream diverged from serial ({workload}, {} shards)",
        farm.config().shards
    );
    let parallel_cycles = shard_cycles(farm);
    assert_eq!(serial_cycles, parallel_cycles, "per-shard cycles diverged");
    for r in &parallel {
        assert!(
            r.output.is_ok(),
            "job {} failed on shard {}: {:?}",
            r.job,
            r.shard,
            r.output
        );
    }

    FarmRun {
        workload,
        shards: farm.config().shards,
        batch,
        jobs: jobs.len(),
        ops,
        makespan_cycles: farm.makespan_cycles(),
        total_cycles: farm.total_cycles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_amortises_the_sync_round_trip() {
        let seed = 11;
        let mut f1 = arith_farm(1, seed);
        let one = run_verified(&mut f1, "arith", 1, &arith_jobs(32, 1, seed), 32);
        let mut f2 = arith_farm(1, seed);
        let big = run_verified(&mut f2, "arith", 32, &arith_jobs(32, 32, seed), 32);
        assert!(
            big.cycles_per_op() < one.cycles_per_op() / 2.0,
            "batch=32 CPI {:.1} should be far below batch=1 CPI {:.1}",
            big.cycles_per_op(),
            one.cycles_per_op()
        );
    }

    #[test]
    fn shards_scale_aggregate_throughput() {
        let seed = 12;
        let jobs = arith_jobs(64, 8, seed);
        let mut f1 = arith_farm(1, seed);
        let one = run_verified(&mut f1, "arith", 8, &jobs, 64);
        let mut f4 = arith_farm(4, seed);
        let four = run_verified(&mut f4, "arith", 8, &jobs, 64);
        assert!(
            four.ops_per_sec() > 2.0 * one.ops_per_sec(),
            "4 shards {:.0} ops/s should double 1 shard {:.0} ops/s",
            four.ops_per_sec(),
            one.ops_per_sec()
        );
    }

    #[test]
    fn xi_farm_sorts_correctly_at_scale() {
        let jobs = xi_jobs(24, 8, 3);
        let mut f = xi_farm(2, 16, 3);
        let out = run_verified(&mut f, "xi-sort", 8, &jobs, 24);
        assert_eq!(out.jobs, jobs.len());
    }
}
