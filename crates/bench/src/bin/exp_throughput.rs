//! E13 — farm throughput: shards × batch size.
//!
//! The ROADMAP's north star is a system that scales like hardware: more
//! boards, more throughput. This experiment sweeps the coprocessor farm
//! over shard count and issue batch size for the arithmetic and χ-sort
//! workloads, verifying on every configuration that the threaded run is
//! bit-identical to the serial run (the harness panics otherwise — CI
//! runs this binary as the farm check).
//!
//! Throughput is aggregate *simulated* operations per second at the
//! 50 MHz prototype clock: N shards are N boards running concurrently,
//! so the farm's makespan is its slowest shard.
//!
//! ```text
//! cargo run --release -p bench --bin exp_throughput
//! ```

use bench::report::{self, Obj};
use bench::throughput::{arith_farm, arith_jobs, run_verified, xi_farm, xi_jobs, FarmRun};
use bench::{Table, FPGA_MHZ};

/// Fixed seed so runs (and the CI check) are reproducible.
const SEED: u64 = 0x7489_0075;
const SHARDS: &[usize] = &[1, 2, 4, 8];
const BATCHES: &[usize] = &[1, 8, 64];

/// Total operations per configuration, per workload.
const ARITH_TOTAL: usize = 1024;
const XI_TOTAL: usize = 192;
/// χ-sort cells: they bound the batch (a sort job must fit the sorter).
const XI_CELLS: u32 = 64;

fn sweep() -> Vec<FarmRun> {
    let mut runs = Vec::new();
    for &shards in SHARDS {
        for &batch in BATCHES {
            let jobs = arith_jobs(ARITH_TOTAL, batch, SEED);
            let mut farm = arith_farm(shards, SEED);
            runs.push(run_verified(
                &mut farm,
                "arith",
                batch,
                &jobs,
                ARITH_TOTAL as u64,
            ));

            let jobs = xi_jobs(XI_TOTAL, batch, SEED);
            let mut farm = xi_farm(shards, XI_CELLS, SEED);
            runs.push(run_verified(
                &mut farm,
                "xi-sort",
                batch,
                &jobs,
                XI_TOTAL as u64,
            ));
        }
    }
    runs
}

/// Makespan of the 1-shard run with the same workload and batch — the
/// serial baseline every other shard count is compared against.
fn baseline_makespan(runs: &[FarmRun], workload: &str, batch: usize) -> u64 {
    runs.iter()
        .find(|r| r.workload == workload && r.batch == batch && r.shards == 1)
        .expect("the sweep always includes shards=1")
        .makespan_cycles
}

fn main() {
    println!("E13 — farm throughput, shards {SHARDS:?} × batch {BATCHES:?}, seed {SEED:#x}");
    println!(
        "aggregate ops/sec in simulated time at 50 MHz; every cell verified parallel == serial\n"
    );

    let runs = sweep();

    let mut scenarios = Vec::new();
    for workload in ["arith", "xi-sort"] {
        println!("workload: {workload}");
        let mut t = Table::new([
            "shards",
            "batch",
            "jobs",
            "ops",
            "makespan cyc",
            "cyc/op",
            "Mops/s",
            "speedup",
        ]);
        for r in runs.iter().filter(|r| r.workload == workload) {
            let speedup =
                baseline_makespan(&runs, workload, r.batch) as f64 / r.makespan_cycles as f64;
            t.row([
                r.shards.to_string(),
                r.batch.to_string(),
                r.jobs.to_string(),
                r.ops.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.1}", r.cycles_per_op()),
                format!("{:.3}", r.ops_per_sec() / 1e6),
                format!("{speedup:.2}x"),
            ]);
            scenarios.push(
                Obj::default()
                    .val("workload", r.workload)
                    .val("shards", r.shards)
                    .val("batch", r.batch)
                    .val("jobs", r.jobs)
                    .val("ops", r.ops)
                    .val("makespan_cycles", r.makespan_cycles)
                    .val("total_cycles", r.total_cycles)
                    .fixed("cycles_per_op", r.cycles_per_op(), 2)
                    .fixed("ops_per_sec", r.ops_per_sec(), 1)
                    .fixed("speedup_vs_serial", speedup, 3)
                    .val("identical", true),
            );
        }
        t.print();
        println!();
    }

    // Acceptance gates (enforced in CI).
    let find = |w: &str, s: usize, b: usize| {
        runs.iter()
            .find(|r| r.workload == w && r.shards == s && r.batch == b)
            .expect("swept configuration")
    };
    let arith_speedup =
        find("arith", 1, 8).makespan_cycles as f64 / find("arith", 4, 8).makespan_cycles as f64;
    assert!(
        arith_speedup >= 2.0,
        "4 shards must at least double 1-shard arithmetic throughput, got {arith_speedup:.2}x"
    );
    let cpi_1 = find("arith", 1, 1).cycles_per_op();
    let cpi_64 = find("arith", 1, 64).cycles_per_op();
    assert!(
        cpi_64 < cpi_1,
        "batch=64 must beat batch=1 on single-system CPI ({cpi_64:.1} vs {cpi_1:.1})"
    );
    println!(
        "gates: arith 4-shard speedup {arith_speedup:.2}x (>= 2.0), \
         single-system CPI batch=64 {cpi_64:.1} < batch=1 {cpi_1:.1}"
    );

    let doc = Obj::default()
        .val("bench", "farm_throughput")
        .val("seed", SEED)
        .fixed("clock_mhz", FPGA_MHZ, 1)
        .list("scenarios", scenarios);
    report::write("BENCH_throughput.json", &doc);
}
