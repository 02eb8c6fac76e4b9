//! χ-sort measurements (experiments E6/E7/E9, ablation A4).

use fu_host::baseline::{self, CpuModel};
use fu_host::{Driver, LinkModel, System};
use fu_rtm::CoprocConfig;
use xi_sort::reference::SoftwareXiSort;
use xi_sort::{XiConfig, XiOp, XiSortAdapter, XiSortCore};

/// Per-operation cycle counts for the core primitives (E6 rows).
#[derive(Debug, Clone, Copy)]
pub struct PerOpRow {
    /// Array size.
    pub n: u32,
    /// Cycles for one sort refinement round.
    pub step_cycles: u64,
    /// Cycles for a count-imprecise query.
    pub count_cycles: u64,
    /// Cycles for a positional read.
    pub read_cycles: u64,
    /// Software element-visits for one refinement round.
    pub sw_step_visits: u64,
}

/// A core configured by `cfg` that holds `values`, its bounds initialised.
pub fn loaded_core(cfg: XiConfig, values: &[u32]) -> XiSortCore {
    let mut core = XiSortCore::new(cfg);
    core.dispatch(XiOp::Reset, 0);
    for &v in values {
        core.dispatch(XiOp::Push, v);
    }
    core.dispatch(XiOp::InitBounds, 0);
    core.run_to_completion(1_000_000);
    core
}

/// Measure the per-operation costs on an `n`-cell core.
pub fn per_op(n: u32, registered_tree: bool) -> PerOpRow {
    let values = baseline::workload(9, n as usize, 1 << 24);
    let cfg = XiConfig::new(n).with_registered_tree(registered_tree);
    let mut core = loaded_core(cfg, &values);
    core.dispatch(XiOp::CountImprecise, 0);
    core.run_to_completion(1_000_000);
    let count_cycles = core.op_cycles();

    core.dispatch(XiOp::SortStep, 0);
    core.run_to_completion(1_000_000);
    let step_cycles = core.op_cycles();

    // Finish the sort so a positional read is legal.
    core.dispatch(XiOp::Sort, 0);
    core.run_to_completion(2_000_000_000);
    core.dispatch(XiOp::ReadAt, 0);
    core.run_to_completion(1_000_000);
    let read_cycles = core.op_cycles();

    let mut sw = SoftwareXiSort::new(&values);
    let p = sw.find_pivot(None).expect("imprecise");
    sw.visits = 0;
    sw.partition_step(p);

    PerOpRow {
        n,
        step_cycles,
        count_cycles,
        read_cycles,
        sw_step_visits: sw.visits,
    }
}

/// End-to-end comparison row (E7).
#[derive(Debug, Clone, Copy)]
pub struct EndToEndRow {
    /// Array size.
    pub n: usize,
    /// FPGA cycles for load + sort + readout over the given link.
    pub fpga_cycles: u64,
    /// FPGA time at 50 MHz, µs.
    pub fpga_us: f64,
    /// Software χ-sort element visits.
    pub sw_visits: u64,
    /// Modelled CPU time for the software χ-sort, µs.
    pub sw_xi_us: f64,
    /// Quicksort comparisons (for scale).
    pub quicksort_cmps: u64,
}

/// Measure one end-to-end row.
pub fn end_to_end(n: usize, link: LinkModel, cpu: CpuModel) -> EndToEndRow {
    let values = baseline::workload(n as u64, n, 1 << 24);
    let sys = System::new(
        CoprocConfig::default(),
        vec![Box::new(XiSortAdapter::new(XiConfig::new(n as u32), 32))],
        link,
    )
    .expect("valid config");
    let mut d = Driver::new(sys, 8_000_000_000);
    d.xi_load(&values, 1).expect("load");
    d.xi_sort(2).expect("sort");
    let got = d.xi_read_sorted(n, 1, 2).expect("readout");
    let mut expect = values.clone();
    expect.sort_unstable();
    assert_eq!(got, expect);
    let fpga_cycles = d.cycles();

    let sw = baseline::software_xi_sort(&values);
    let qs = baseline::software_quicksort(&values);

    EndToEndRow {
        n,
        fpga_cycles,
        fpga_us: fpga_cycles as f64 / crate::FPGA_MHZ,
        sw_visits: sw.visits,
        sw_xi_us: cpu.visits_to_us(sw.visits),
        quicksort_cmps: qs,
    }
}

/// Parallelism accounting for E9: components vs critical-path depth.
#[derive(Debug, Clone, Copy)]
pub struct ParallelismRow {
    /// Cell count.
    pub n: u32,
    /// Parallel components (LEs + FFs) of the engine.
    pub components: u64,
    /// Combinational depth in LUT levels.
    pub depth: u64,
    /// The paper's parallelism ratio.
    pub ratio: f64,
}

/// Measure the component/critical-path ratio of an `n`-cell engine.
pub fn parallelism(n: u32) -> ParallelismRow {
    let core = XiSortCore::new(XiConfig::new(n));
    let area = core.area();
    let depth = core.critical_path().levels.max(1);
    ParallelismRow {
        n,
        components: area.components(),
        depth,
        ratio: area.components() as f64 / depth as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_fixed_in_n() {
        let a = per_op(16, false);
        let b = per_op(256, false);
        assert_eq!(a.step_cycles, b.step_cycles, "E6: fixed step cost");
        assert_eq!(a.count_cycles, b.count_cycles);
        assert_eq!(a.read_cycles, b.read_cycles);
        assert!(b.sw_step_visits > 10 * a.sw_step_visits, "software is Θ(n)");
    }

    #[test]
    fn registered_tree_costs_log_latency() {
        let comb = per_op(256, false);
        let reg = per_op(256, true);
        assert!(reg.step_cycles > comb.step_cycles);
        assert!(
            reg.step_cycles < comb.step_cycles * 12,
            "latency grows only logarithmically"
        );
    }

    #[test]
    fn end_to_end_row_is_consistent() {
        let row = end_to_end(32, LinkModel::tightly_coupled(), CpuModel::desktop_2010());
        assert!(row.fpga_cycles > 0);
        assert!(row.sw_visits > 32);
        assert!(row.fpga_us > 0.0 && row.sw_xi_us > 0.0);
        assert!(row.quicksort_cmps > 0);
    }

    #[test]
    fn parallelism_ratio_grows_into_papers_band() {
        let small = parallelism(8);
        let big = parallelism(4096);
        assert!(big.ratio > small.ratio);
        assert!(
            big.ratio >= 1000.0,
            "a 4096-cell engine should reach the paper's 10^3..10^5 band, got {}",
            big.ratio
        );
    }
}
