//! The χ-sort core: cell array + tree + microcode controller.
//!
//! "The controller is implemented as a simple finite state machine having
//! only two states" (thesis Figure 3.10): **Idle**, waiting for a
//! dispatch, and **Run**, executing a microcode program. The controller
//! also owns the shift-load path: "It is able to load a single value
//! received from the functional unit adapter … into the first SIMD cell,
//! at the same time shifting the data of all SIMD cells to the respective
//! following \[cell\]."
//!
//! [`XiSortCore::step`] executes one microinstruction per clock cycle;
//! tree folds and scans additionally wait out the tree's latency when the
//! levels are registered (ablation A4). Cycle counts reported by
//! [`XiSortCore::op_cycles`] are therefore the numbers experiment E6
//! tabulates.

use crate::cell::{Broadcast, CellArena, CellCmd, SimdCell};
use crate::interval::IndexInterval;
use crate::microcode::{self, MicroInstr, OperandSel, Scratch, N_SCRATCH};
use crate::tree::TreeNetwork;
use rtl_sim::{AreaEstimate, CriticalPath, SatCounter};

/// Configuration of one χ-sort core (the VHDL generics of the case
/// study).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XiConfig {
    /// Number of SIMD cells (array capacity).
    pub n_cells: u32,
    /// Pipeline the tree levels (latency for clock rate — A4).
    pub registered_tree: bool,
}

impl XiConfig {
    /// A combinational-tree core with `n_cells` cells.
    pub fn new(n_cells: u32) -> XiConfig {
        assert!(n_cells >= 1, "the cell array needs at least one cell");
        XiConfig {
            n_cells,
            registered_tree: false,
        }
    }

    /// Builder-style registered-tree toggle.
    pub fn with_registered_tree(mut self, on: bool) -> XiConfig {
        self.registered_tree = on;
        self
    }
}

/// Operations the core accepts (the functional unit's variety codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XiOp {
    /// Clear the array: all cells inert, load counter zero.
    Reset,
    /// Shift-load one value (the operand) into the array.
    Push,
    /// Give the loaded prefix the unknown interval `⟨0, m-1⟩` (operand
    /// ignored; uses the internal load counter).
    InitBounds,
    /// One sort refinement round; result = remaining imprecise cells.
    SortStep,
    /// Sort to completion inside the controller; result = rounds used.
    Sort,
    /// One selection refinement round for index `k` (operand); result =
    /// imprecise cells still containing `k`.
    SelectStep,
    /// Full selection of index `k` (operand); result = the k-th smallest
    /// element.
    SelectK,
    /// Read the element whose final position is `k` (operand); requires
    /// that position to be precise.
    ReadAt,
    /// Count imprecise intervals.
    CountImprecise,
}

impl XiOp {
    /// Variety-code encoding of the operation (for the instruction word).
    pub fn variety(&self) -> u8 {
        match self {
            XiOp::Reset => 0,
            XiOp::Push => 1,
            XiOp::InitBounds => 2,
            XiOp::SortStep => 3,
            XiOp::Sort => 4,
            XiOp::SelectStep => 5,
            XiOp::SelectK => 6,
            XiOp::ReadAt => 7,
            XiOp::CountImprecise => 8,
        }
    }

    /// Decode a variety code.
    pub fn from_variety(v: u8) -> Option<XiOp> {
        Some(match v {
            0 => XiOp::Reset,
            1 => XiOp::Push,
            2 => XiOp::InitBounds,
            3 => XiOp::SortStep,
            4 => XiOp::Sort,
            5 => XiOp::SelectStep,
            6 => XiOp::SelectK,
            7 => XiOp::ReadAt,
            8 => XiOp::CountImprecise,
            _ => return None,
        })
    }

    /// Does the operation return a data result?
    pub fn returns_data(&self) -> bool {
        !matches!(self, XiOp::Reset | XiOp::Push)
    }
}

/// The two-state controller FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CoreState {
    Idle,
    Run {
        pc: usize,
        /// Remaining wait cycles for a registered-tree operation.
        wait: u32,
    },
}

/// The χ-sort core.
#[derive(Debug, Clone)]
pub struct XiSortCore {
    cfg: XiConfig,
    cells: CellArena,
    tree: TreeNetwork,
    scratch: [u32; N_SCRATCH],
    program: Vec<MicroInstr>,
    state: CoreState,
    /// Completed result (taken by the adapter).
    result: Option<u32>,
    /// Elements shift-loaded since the last reset.
    loaded: u32,
    /// Load overflow happened (reported as the error flag).
    overflow: bool,
    /// Cycles spent in `Run` for the last completed operation.
    last_op_cycles: u64,
    op_cycle_counter: u64,
    micro_executed: SatCounter,
    tree_ops: SatCounter,
}

impl XiSortCore {
    /// A core with every cell inert.
    pub fn new(cfg: XiConfig) -> XiSortCore {
        let inert = SimdCell::new(0, IndexInterval::precise(u32::MAX));
        XiSortCore {
            cells: CellArena::new(cfg.n_cells as usize, inert),
            tree: TreeNetwork::new(cfg.n_cells, cfg.registered_tree),
            scratch: [0; N_SCRATCH],
            program: Vec::new(),
            state: CoreState::Idle,
            result: None,
            loaded: 0,
            overflow: false,
            last_op_cycles: 0,
            op_cycle_counter: 0,
            micro_executed: SatCounter::default(),
            tree_ops: SatCounter::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &XiConfig {
        &self.cfg
    }

    /// Elements currently loaded.
    pub fn loaded(&self) -> u32 {
        self.loaded
    }

    /// Did a load overflow the array?
    pub fn overflow(&self) -> bool {
        self.overflow
    }

    /// Is the controller in `Idle` with no unread result?
    pub fn is_idle(&self) -> bool {
        self.state == CoreState::Idle && self.result.is_none()
    }

    /// Is a microcode program currently executing?
    pub fn is_running(&self) -> bool {
        matches!(self.state, CoreState::Run { .. })
    }

    /// Can a new operation be dispatched?
    pub fn can_dispatch(&self) -> bool {
        self.is_idle()
    }

    /// Take the completed result.
    pub fn take_result(&mut self) -> Option<u32> {
        self.result.take()
    }

    /// Cycles the last completed operation spent in `Run` (E6's metric).
    pub fn op_cycles(&self) -> u64 {
        self.last_op_cycles
    }

    /// An upper bound on the cycles the last dispatched program runs
    /// before its `Halt`. Every refinement round makes at least its pivot
    /// precise and no round makes a cell imprecise, so a looping program
    /// passes through its body at most `n_cells + 1` times; a pass runs
    /// each microinstruction at most once, each waiting out at most the
    /// tree latency.
    pub(crate) fn cycle_bound(&self) -> u64 {
        let per_instr = 1 + u64::from(self.tree.op_latency());
        (u64::from(self.cfg.n_cells) + 1) * self.program.len() as u64 * per_instr
    }

    /// `(microinstructions, tree operations)` executed since creation.
    pub fn counters(&self) -> (u64, u64) {
        (self.micro_executed.get(), self.tree_ops.get())
    }

    /// Materialised view of the cells (tests and diagnostics). The
    /// arena keeps inert cells as a uniform-tail summary; this expands
    /// them back into the cell-by-cell picture.
    pub fn cells(&self) -> Vec<SimdCell> {
        self.cells.cells()
    }

    /// The struct-of-arrays arena itself (diagnostics; `live()` reports
    /// how many cells have diverged from the inert tail).
    pub fn arena(&self) -> &CellArena {
        &self.cells
    }

    /// Dispatch an operation with its operand ("Dispatch / I/O operation"
    /// edge of the FSM).
    ///
    /// # Panics
    /// Panics when the controller is busy — the adapter checks
    /// [`XiSortCore::can_dispatch`] first.
    pub fn dispatch(&mut self, op: XiOp, operand: u32) {
        assert!(self.can_dispatch(), "dispatch to busy χ-sort core");
        self.op_cycle_counter = 0;
        match op {
            XiOp::Reset => {
                let inert = SimdCell::new(0, IndexInterval::precise(u32::MAX));
                self.cells.fill(inert);
                self.loaded = 0;
                self.overflow = false;
                self.result = None;
                self.last_op_cycles = 1;
                // Reset is a single-cycle I/O operation, no program run.
                return;
            }
            XiOp::Push => {
                // Shift chain: each cell takes its left neighbour; cell 0
                // takes the input. One cycle, no program. The arena only
                // moves the live prefix — inert cells shift onto
                // themselves.
                if self.loaded == self.cfg.n_cells {
                    self.overflow = true;
                } else {
                    self.cells
                        .push_front(SimdCell::new(operand, IndexInterval::precise(u32::MAX)));
                    self.loaded += 1;
                }
                self.last_op_cycles = 1;
                return;
            }
            XiOp::InitBounds => {
                self.program = microcode::init_bounds();
                self.scratch[Scratch::K as usize] = self.loaded;
            }
            XiOp::SortStep => {
                self.program = microcode::sort_step();
            }
            XiOp::Sort => {
                self.program = microcode::sort_full();
            }
            XiOp::SelectStep => {
                self.program = microcode::select_step();
                self.scratch[Scratch::K as usize] = operand;
            }
            XiOp::SelectK => {
                self.program = microcode::select_full();
                self.scratch[Scratch::K as usize] = operand;
            }
            XiOp::ReadAt => {
                self.program = microcode::read_at();
                self.scratch[Scratch::K as usize] = operand;
            }
            XiOp::CountImprecise => {
                self.program = microcode::count_imprecise();
            }
        }
        if op == XiOp::InitBounds && self.loaded == 0 {
            // Nothing loaded: complete immediately with zero.
            self.result = Some(0);
            self.last_op_cycles = 1;
            return;
        }
        self.state = CoreState::Run { pc: 0, wait: 0 };
    }

    fn broadcast(&self, sel: OperandSel) -> Broadcast {
        let read = |s: Option<Scratch>| s.map_or(0, |r| self.scratch[r as usize]);
        Broadcast {
            data: read(sel.data),
            lo: read(sel.lo),
            hi: read(sel.hi),
        }
    }

    /// Advance one clock cycle ("Run microcode program").
    pub fn step(&mut self) {
        let CoreState::Run { pc, wait } = self.state.clone() else {
            return;
        };
        self.op_cycle_counter += 1;
        if wait > 0 {
            self.state = CoreState::Run { pc, wait: wait - 1 };
            return;
        }
        let instr = self.program[pc];
        self.micro_executed.bump();
        let mut next_pc = pc + 1;
        let mut tree_wait = 0;
        match instr {
            MicroInstr::Cell(cmd, sel) => {
                let b = self.broadcast(sel);
                debug_assert!(cmd != CellCmd::Load, "Load is not a program instruction");
                self.cells.apply_all(cmd, b);
            }
            MicroInstr::TreeCount(dst) => {
                self.scratch[dst as usize] = self.tree.count_selected_arena(&self.cells);
                self.tree_ops.bump();
                tree_wait = self.tree.op_latency();
            }
            MicroInstr::TreeLeftmost => {
                self.tree_ops.bump();
                tree_wait = self.tree.op_latency();
                match self.tree.leftmost_selected_arena(&self.cells) {
                    Some(l) => {
                        self.scratch[Scratch::PivotData as usize] = l.data;
                        self.scratch[Scratch::PivotLo as usize] = l.lo;
                        self.scratch[Scratch::PivotHi as usize] = l.hi;
                        self.scratch[Scratch::Tmp as usize] = 1;
                    }
                    None => self.scratch[Scratch::Tmp as usize] = 0,
                }
            }
            MicroInstr::TreeRetrieve(dst) => {
                self.scratch[dst as usize] = self.tree.retrieve_arena(&self.cells);
                self.tree_ops.bump();
                tree_wait = self.tree.op_latency();
            }
            MicroInstr::TreeScanAssign => {
                self.tree_ops.bump();
                tree_wait = self.tree.op_latency();
                let base = self.scratch[Scratch::Base as usize];
                self.tree.scan_assign_arena(&mut self.cells, base);
            }
            MicroInstr::Add(dst, a, b) => {
                self.scratch[dst as usize] =
                    self.scratch[a as usize].wrapping_add(self.scratch[b as usize]);
            }
            MicroInstr::AddConst(dst, a, k) => {
                self.scratch[dst as usize] = self.scratch[a as usize].wrapping_add(k as u32);
            }
            MicroInstr::Set(dst, v) => {
                self.scratch[dst as usize] = v;
            }
            MicroInstr::JumpIfZero(reg, target) => {
                if self.scratch[reg as usize] == 0 {
                    next_pc = target;
                }
            }
            MicroInstr::Jump(target) => {
                next_pc = target;
            }
            MicroInstr::Halt => {
                self.result = Some(self.scratch[Scratch::Out as usize]);
                self.last_op_cycles = self.op_cycle_counter;
                self.state = CoreState::Idle;
                return;
            }
        }
        self.state = CoreState::Run {
            pc: next_pc,
            wait: tree_wait,
        };
    }

    /// Advance up to `max` cycles, stopping early at `Idle`; returns the
    /// cycles consumed. Wait states of registered-tree operations are
    /// collapsed in bulk — the counters end up exactly as if [`step`]
    /// had been called once per cycle.
    ///
    /// [`step`]: XiSortCore::step
    pub fn step_n(&mut self, max: u64) -> u64 {
        let mut done = 0;
        while done < max {
            let CoreState::Run { pc, wait } = self.state.clone() else {
                break;
            };
            if wait > 0 {
                // A waiting cycle only decrements `wait` and counts a
                // cycle, so a whole stretch can be retired at once.
                let k = (wait as u64).min(max - done);
                self.op_cycle_counter += k;
                self.state = CoreState::Run {
                    pc,
                    wait: wait - k as u32,
                };
                done += k;
            } else {
                self.step();
                done += 1;
            }
        }
        done
    }

    /// Run until the controller returns to `Idle`; returns the result.
    /// Test/driver convenience — each iteration is one clock cycle.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Option<u32> {
        let mut budget = max_cycles;
        while !matches!(self.state, CoreState::Idle) {
            assert!(budget > 0, "χ-sort program exceeded {max_cycles} cycles");
            budget -= self.step_n(budget);
        }
        self.take_result()
    }

    /// Area: cells (registers + comparator + muxes each) plus the tree
    /// plus the controller (scratch registers, ROM, FSM).
    pub fn area(&self) -> AreaEstimate {
        let per_cell = AreaEstimate::register(32 + 16 + 16 + 2)
            + AreaEstimate::comparator(32)
            + AreaEstimate::comparator(16)
            + AreaEstimate::mux2(32 + 32);
        let cells = AreaEstimate {
            les: per_cell.les * self.cfg.n_cells as u64,
            ffs: per_cell.ffs * self.cfg.n_cells as u64,
            bram_bits: 0,
        };
        let controller = AreaEstimate::register(N_SCRATCH as u64 * 32)
            + AreaEstimate::adder(32)
            + AreaEstimate {
                les: 60,
                ffs: 8,
                bram_bits: 64 * 40, // microcode ROM
            };
        cells + self.tree.area() + controller
    }

    /// Critical path: the tree (dominant for combinational
    /// configurations) against the cell and controller logic.
    pub fn critical_path(&self) -> CriticalPath {
        self.tree
            .critical_path()
            .max(CriticalPath::adder(32).then(CriticalPath::of(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_core(values: &[u32]) -> XiSortCore {
        let mut core = XiSortCore::new(XiConfig::new(values.len().max(1) as u32));
        load(&mut core, values);
        core
    }

    fn load(core: &mut XiSortCore, values: &[u32]) {
        core.dispatch(XiOp::Reset, 0);
        for &v in values {
            core.dispatch(XiOp::Push, v);
        }
        core.dispatch(XiOp::InitBounds, 0);
        core.run_to_completion(1000);
    }

    fn op(core: &mut XiSortCore, o: XiOp, operand: u32) -> u32 {
        core.dispatch(o, operand);
        core.run_to_completion(5_000_000).unwrap_or(0)
    }

    fn read_all(core: &mut XiSortCore, n: usize) -> Vec<u32> {
        (0..n).map(|k| op(core, XiOp::ReadAt, k as u32)).collect()
    }

    #[test]
    fn push_shifts_into_cell_zero() {
        let mut core = XiSortCore::new(XiConfig::new(4));
        core.dispatch(XiOp::Push, 10);
        core.dispatch(XiOp::Push, 20);
        assert_eq!(core.cells()[0].data, 20);
        assert_eq!(core.cells()[1].data, 10);
        assert_eq!(core.loaded(), 2);
    }

    #[test]
    fn overflow_flagged() {
        let mut core = XiSortCore::new(XiConfig::new(2));
        core.dispatch(XiOp::Push, 1);
        core.dispatch(XiOp::Push, 2);
        assert!(!core.overflow());
        core.dispatch(XiOp::Push, 3);
        assert!(core.overflow());
        assert_eq!(core.loaded(), 2);
    }

    #[test]
    fn init_bounds_marks_loaded_prefix_unknown() {
        let mut core = XiSortCore::new(XiConfig::new(8));
        load(&mut core, &[5, 6, 7]);
        let cells = core.cells();
        for c in &cells[..3] {
            assert_eq!(c.interval, IndexInterval::new(0, 2));
        }
        for c in &cells[3..] {
            assert!(c.interval.is_precise());
            assert!(
                c.interval.lo >= 3,
                "inert cells sit beyond the loaded prefix"
            );
        }
        assert_eq!(op(&mut core, XiOp::CountImprecise, 0), 3);
    }

    #[test]
    fn sort_step_partitions_leftmost_group() {
        let mut core = loaded_core(&[30, 10, 20]);
        // Pivot = leftmost imprecise = cell 0 (data 30, the last-pushed
        // element is 20 at cell 0 — order after shifting: [20, 10, 30]).
        let remaining = op(&mut core, XiOp::SortStep, 0);
        // Pivot 20: L=1 ({10} -> ⟨0,0⟩ precise), E=1 (20 -> ⟨1,1⟩),
        // G=1 ({30} -> ⟨2,2⟩ precise). Everything resolved in one round.
        assert_eq!(remaining, 0);
        assert_eq!(read_all(&mut core, 3), vec![10, 20, 30]);
    }

    #[test]
    fn full_sort_program() {
        let values = [9, 3, 7, 1, 8, 2, 6, 4];
        let mut core = loaded_core(&values);
        let rounds = op(&mut core, XiOp::Sort, 0);
        assert!(rounds >= 1);
        let mut expect = values.to_vec();
        expect.sort_unstable();
        assert_eq!(read_all(&mut core, values.len()), expect);
        assert_eq!(op(&mut core, XiOp::CountImprecise, 0), 0);
    }

    #[test]
    fn duplicates_resolve_via_scan() {
        let values = [5, 5, 5, 1, 5, 9, 5];
        let mut core = loaded_core(&values);
        op(&mut core, XiOp::Sort, 0);
        let mut expect = values.to_vec();
        expect.sort_unstable();
        assert_eq!(read_all(&mut core, values.len()), expect);
    }

    #[test]
    fn all_equal_sorts_in_one_round() {
        let values = [4, 4, 4, 4];
        let mut core = loaded_core(&values);
        let rounds = op(&mut core, XiOp::Sort, 0);
        assert_eq!(
            rounds, 1,
            "a single scan-assign resolves an all-equal array"
        );
        assert_eq!(read_all(&mut core, 4), vec![4, 4, 4, 4]);
    }

    #[test]
    fn select_k_returns_kth_smallest() {
        let values = [42, 17, 99, 3, 65, 23, 8, 71];
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for (k, &expect) in sorted.iter().enumerate() {
            let mut core = loaded_core(&values);
            assert_eq!(op(&mut core, XiOp::SelectK, k as u32), expect, "k = {k}");
        }
    }

    #[test]
    fn select_step_host_driven_loop() {
        // The host-driven variant: issue SelectStep until the result
        // reports zero imprecise groups containing k, then ReadAt.
        let values = [42u32, 17, 99, 3, 65, 23, 8, 71];
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let k = 5u32;
        let mut core = loaded_core(&values);
        let mut rounds = 0;
        loop {
            let remaining = op(&mut core, XiOp::SelectStep, k);
            rounds += 1;
            assert!(rounds < 100, "selection failed to converge");
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(op(&mut core, XiOp::ReadAt, k), sorted[k as usize]);
    }

    #[test]
    fn selection_leaves_other_groups_unrefined() {
        // Selection refines only groups containing k, so most intervals
        // stay imprecise — the work saving over a full sort.
        let values: Vec<u32> = (0..32).rev().collect();
        let mut core = loaded_core(&values);
        let v = op(&mut core, XiOp::SelectK, 0);
        assert_eq!(v, 0);
        let imprecise = op(&mut core, XiOp::CountImprecise, 0);
        assert!(
            imprecise > 0,
            "a selection must not have sorted the whole array"
        );
    }

    #[test]
    fn step_cycles_independent_of_n_with_combinational_tree() {
        // E6's core claim: a refinement round costs the same number of
        // cycles at n=8 and n=1024.
        let mut small = loaded_core(&(0..8).rev().collect::<Vec<u32>>());
        op(&mut small, XiOp::SortStep, 0);
        let c_small = small.op_cycles();
        let mut big = loaded_core(&(0..1024).rev().collect::<Vec<u32>>());
        op(&mut big, XiOp::SortStep, 0);
        let c_big = big.op_cycles();
        assert_eq!(
            c_small, c_big,
            "fixed cycles per operation, independent of n"
        );
        assert!(c_small < 40, "a step is a couple dozen cycles");
    }

    #[test]
    fn registered_tree_adds_logarithmic_latency() {
        let values: Vec<u32> = (0..64).rev().collect();
        let mut comb = loaded_core(&values);
        op(&mut comb, XiOp::SortStep, 0);
        let mut reg = XiSortCore::new(XiConfig::new(64).with_registered_tree(true));
        load(&mut reg, &values);
        reg.dispatch(XiOp::SortStep, 0);
        reg.run_to_completion(100_000);
        assert!(
            reg.op_cycles() > comb.op_cycles(),
            "registered tree pays latency per fold"
        );
        // But its combinational depth is flat in n.
        assert!(reg.critical_path() < comb.critical_path());
    }

    #[test]
    fn sort_rounds_scale_linearly() {
        // One group is refined per round, so a random permutation needs
        // Θ(n) rounds (each of O(1) cycles) — the shape behind E7.
        let mk = |n: u32| {
            let mut vals: Vec<u32> = (0..n).collect();
            // Deterministic shuffle.
            for i in 0..n as usize {
                let j = (i * 7 + 3) % n as usize;
                vals.swap(i, j);
            }
            let mut core = loaded_core(&vals);
            op(&mut core, XiOp::Sort, 0) as f64
        };
        let r64 = mk(64);
        let r256 = mk(256);
        let ratio = r256 / r64;
        assert!(
            (2.0..8.0).contains(&ratio),
            "rounds should grow ~linearly: {r64} -> {r256}"
        );
    }

    #[test]
    fn read_at_requires_idle_machine_state() {
        let mut core = loaded_core(&[2, 1]);
        op(&mut core, XiOp::Sort, 0);
        assert_eq!(op(&mut core, XiOp::ReadAt, 0), 1);
        assert_eq!(op(&mut core, XiOp::ReadAt, 1), 2);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn dispatch_while_running_panics() {
        let mut core = loaded_core(&[3, 1, 2]);
        core.dispatch(XiOp::Sort, 0);
        core.dispatch(XiOp::SortStep, 0);
    }

    #[test]
    fn arena_tail_stays_summarised_through_a_full_sort() {
        // The scheduling claim behind the SoA arena: with a lightly
        // loaded array, the controller's per-microinstruction work is
        // bounded by the live prefix, not the configured capacity — the
        // 16k inert cells are never materialised.
        let mut core = XiSortCore::new(XiConfig::new(1 << 14));
        load(&mut core, &[9, 3, 7, 1]);
        op(&mut core, XiOp::Sort, 0);
        assert_eq!(read_all(&mut core, 4), vec![1, 3, 7, 9]);
        assert!(
            core.arena().live() <= 4,
            "inert tail was materialised: live = {}",
            core.arena().live()
        );
    }

    #[test]
    fn every_op_halts_within_the_cycle_bound() {
        // The adapter runs each program at dispatch, capped at
        // `cycle_bound`; a program past the cap would hang its unit until
        // a watchdog quarantines it. Clock every operation per cycle from
        // empty, single, partial and full loads, with and without
        // InitBounds (and with a push after it), at edge operands.
        let ops = [
            XiOp::Reset,
            XiOp::Push,
            XiOp::InitBounds,
            XiOp::SortStep,
            XiOp::Sort,
            XiOp::SelectStep,
            XiOp::SelectK,
            XiOp::ReadAt,
            XiOp::CountImprecise,
        ];
        for n in [1u32, 4, 64] {
            for registered in [false, true] {
                let cfg = XiConfig::new(n).with_registered_tree(registered);
                let mut states = Vec::new();
                for loaded in [0, 1, n / 2, n] {
                    // Groups of duplicates, or all keys distinct.
                    for keys in [5, u32::MAX] {
                        let mut core = XiSortCore::new(cfg);
                        for i in 0..loaded {
                            core.dispatch(XiOp::Push, i.wrapping_mul(2_654_435_761) % keys);
                        }
                        states.push(core.clone());
                        core.dispatch(XiOp::InitBounds, 0);
                        core.run_to_completion(u64::MAX);
                        states.push(core.clone());
                        core.dispatch(XiOp::Push, 2);
                        states.push(core);
                    }
                }
                for (s, base) in states.iter().enumerate() {
                    for op in ops {
                        for operand in [0, 1, n - 1, n, n + 1, u32::MAX] {
                            let mut core = base.clone();
                            core.dispatch(op, operand);
                            let bound = core.cycle_bound();
                            let mut cycles = 0;
                            while core.is_running() {
                                assert!(
                                    cycles < bound,
                                    "{op:?}({operand}) from state {s} at n {n}, registered \
                                     {registered}: still running after {bound} cycles"
                                );
                                core.step();
                                cycles += 1;
                            }
                            assert_eq!(core.op_cycles(), cycles.max(1));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn area_scales_with_cells() {
        let small = XiSortCore::new(XiConfig::new(8)).area();
        let big = XiSortCore::new(XiConfig::new(256)).area();
        assert!(big.components() > 10 * small.components());
    }
}
