//! E12 — the reliable transport under injected link faults.
//!
//! The paper's framing layer "is exactly what a different transceiver
//! would replace"; this experiment swaps in the reliable transceiver and
//! measures what loss recovery costs. The same arithmetic batch runs over
//! each link preset while frames are dropped, corrupted and duplicated at
//! a swept rate; every faulty run must reproduce the fault-free response
//! stream bit for bit (the harness panics otherwise — CI runs this binary
//! as the fault-injection smoke test).
//!
//! ```text
//! cargo run --release -p bench --bin exp_faults [-- --seed N]
//! ```
//!
//! `--seed` (decimal or `0x`-hex) overrides the default seed; CI runs
//! the sweep under a small seed matrix so one lucky schedule cannot
//! hide a recovery bug.

use bench::faults::fault_sweep_verified;
use bench::report::{self, Obj};
use bench::Table;
use fu_host::LinkModel;

/// Fault rate per class (drop, corrupt, duplicate), in permille.
const RATES: &[u32] = &[0, 10, 20, 50, 100, 200];
/// Default seed (overridable with `--seed`) so runs are reproducible.
const SEED: u64 = 0x00F4_0175;
/// Dependent adds per batch.
const N_ADDS: usize = 32;

fn parse_seed() -> Option<u64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().expect("--seed needs a value");
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            return Some(parsed.unwrap_or_else(|e| panic!("bad --seed {v:?}: {e}")));
        }
    }
    None
}

fn main() {
    let seed = parse_seed().unwrap_or(SEED);
    println!("E12 — goodput and completion time vs injected fault rate");
    println!("workload: {N_ADDS} dependent ADDs + read-back + sync, seed {seed:#x}\n");
    let mut scenarios = Vec::new();
    for link in [
        LinkModel::tightly_coupled(),
        LinkModel::pcie_like(),
        LinkModel::prototyping(),
    ] {
        println!("link: {}", link.name);
        let mut t = Table::new([
            "faults ‰/class",
            "cycles",
            "retx",
            "dropped",
            "corrupted",
            "dup",
            "wire frames",
            "goodput (frm/kcyc)",
            "efficiency",
        ]);
        for (rate, run) in fault_sweep_verified(link, seed, N_ADDS, RATES) {
            let s = &run.stats;
            t.row([
                rate.to_string(),
                run.cycles.to_string(),
                s.retransmits.to_string(),
                s.frames_dropped.to_string(),
                s.frames_corrupted.to_string(),
                s.frames_duplicated.to_string(),
                (run.wire_to_dev + run.wire_to_host).to_string(),
                format!("{:.2}", run.goodput_per_kcycle()),
                format!("{:.3}", run.efficiency()),
            ]);
            scenarios.push(
                Obj::default()
                    .val("link", link.name)
                    .val("fault_permille", rate)
                    .val("cycles", run.cycles)
                    .val("retransmits", s.retransmits)
                    .val("dropped", s.frames_dropped)
                    .val("corrupted", s.frames_corrupted)
                    .val("duplicated", s.frames_duplicated)
                    .val("wire_frames", run.wire_to_dev + run.wire_to_host)
                    .val("delivered", s.delivered)
                    .fixed("goodput_per_kcycle", run.goodput_per_kcycle(), 3)
                    .fixed("efficiency", run.efficiency(), 4),
            );
        }
        t.print();
        println!();
    }
    let doc = Obj::default()
        .val("bench", "fault_sweep")
        .val("seed", seed)
        .val("n_adds", N_ADDS)
        .list("scenarios", scenarios);
    report::write("BENCH_fault_sweep.json", &doc);
    println!(
        "Every faulty run reproduced the fault-free response stream bit for\n\
         bit; reliability costs cycles, never answers."
    );
}
