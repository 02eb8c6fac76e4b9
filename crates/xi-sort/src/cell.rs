//! The SIMD cell (paper Figure 9 / thesis Figure 3.12).
//!
//! "A cell corresponds to a word of memory, but it contains a small amount
//! of computational hardware as well as storage. … The cell circuit
//! contains a small amount of storage, enough to hold one data element and
//! its index interval. The cell also contains a simple arithmetic circuit
//! that can perform comparisons and additions."
//!
//! Registers (from the schematic): `reg_data`, `reg_lower_bound`,
//! `reg_upper_bound`, `reg_selected`, `reg_saved_state`. Command inputs:
//! `cmd_load`, `cmd_save`, `cmd_restore`, `cmd_select_all`,
//! `cmd_select_imprecise`, `cmd_match_data_{lt,eq,gt}`,
//! `cmd_match_{lower,upper}_bound[_i]`, `cmd_set_{lower,upper}_bound`,
//! `cmd_set_bounds`, plus broadcast data/bound inputs.
//!
//! Every cell executes the same command in the same cycle — "the entire
//! set of cells comprises an extremely fine grain data parallel
//! architecture". The `_i` bound matches are reconstructed as inequality
//! matches (see the crate docs).

use crate::interval::IndexInterval;

/// One broadcast command, applied to every cell in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellCmd {
    /// Shift-load: cell 0 takes `data` with interval `bounds`; every other
    /// cell takes its left neighbour's state (handled by the array).
    Load,
    /// `saved_state ← selected`.
    Save,
    /// `selected ← saved_state`.
    Restore,
    /// `selected ← true`.
    SelectAll,
    /// `selected ← (lo ≠ hi)` — the imprecise-interval flag.
    SelectImprecise,
    /// `selected ← selected ∧ (data < broadcast)`.
    MatchDataLt,
    /// `selected ← selected ∧ (data = broadcast)`.
    MatchDataEq,
    /// `selected ← selected ∧ (data > broadcast)`.
    MatchDataGt,
    /// `selected ← selected ∧ (lo = broadcast)`.
    MatchLowerBound,
    /// `selected ← selected ∧ (hi = broadcast)`.
    MatchUpperBound,
    /// `selected ← selected ∧ (lo ≤ broadcast)` (inequality form).
    MatchLowerBoundLe,
    /// `selected ← selected ∧ (hi ≥ broadcast)` (inequality form).
    MatchUpperBoundGe,
    /// Selected cells: `lo ← broadcast_lo`.
    SetLowerBound,
    /// Selected cells: `hi ← broadcast_hi`.
    SetUpperBound,
    /// Selected cells: `lo ← broadcast_lo; hi ← broadcast_hi`.
    SetBounds,
    /// Selected cells: `lo ← hi ← broadcast_lo + prefix`, where `prefix`
    /// is the tree's prefix count of selection flags strictly to the
    /// cell's left (the scan-based duplicate resolution).
    AssignScanPosition,
}

/// Broadcast operands accompanying a [`CellCmd`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Broadcast {
    /// Data comparand (`input_data` in the schematic).
    pub data: u32,
    /// Lower-bound operand (`load_lower_bound`).
    pub lo: u32,
    /// Upper-bound operand (`load_upper_bound`).
    pub hi: u32,
}

/// One SIMD cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdCell {
    /// The stored data element.
    pub data: u32,
    /// Its index interval.
    pub interval: IndexInterval,
    /// The selection flag.
    pub selected: bool,
    /// The saved selection state.
    pub saved: bool,
}

impl SimdCell {
    /// A cell holding `data` with the given interval, deselected.
    pub fn new(data: u32, interval: IndexInterval) -> SimdCell {
        SimdCell {
            data,
            interval,
            selected: false,
            saved: false,
        }
    }

    /// Apply one command. `prefix` is this cell's scan input (prefix
    /// count of selection flags to its left), used only by
    /// [`CellCmd::AssignScanPosition`]; [`CellCmd::Load`] is handled by
    /// the array's shift chain, not here.
    pub fn apply(&mut self, cmd: CellCmd, b: Broadcast, prefix: u32) {
        match cmd {
            CellCmd::Load => unreachable!("Load is applied by the cell array's shift chain"),
            CellCmd::Save => self.saved = self.selected,
            CellCmd::Restore => self.selected = self.saved,
            CellCmd::SelectAll => self.selected = true,
            CellCmd::SelectImprecise => self.selected = !self.interval.is_precise(),
            CellCmd::MatchDataLt => self.selected &= self.data < b.data,
            CellCmd::MatchDataEq => self.selected &= self.data == b.data,
            CellCmd::MatchDataGt => self.selected &= self.data > b.data,
            CellCmd::MatchLowerBound => self.selected &= self.interval.lo == b.lo,
            CellCmd::MatchUpperBound => self.selected &= self.interval.hi == b.hi,
            CellCmd::MatchLowerBoundLe => self.selected &= self.interval.lo <= b.lo,
            CellCmd::MatchUpperBoundGe => self.selected &= self.interval.hi >= b.hi,
            CellCmd::SetLowerBound => {
                if self.selected {
                    self.interval = IndexInterval::new(b.lo, self.interval.hi);
                }
            }
            CellCmd::SetUpperBound => {
                if self.selected {
                    self.interval = IndexInterval::new(self.interval.lo, b.hi);
                }
            }
            CellCmd::SetBounds => {
                if self.selected {
                    self.interval = IndexInterval::new(b.lo, b.hi);
                }
            }
            CellCmd::AssignScanPosition => {
                if self.selected {
                    self.interval = IndexInterval::precise(b.lo + prefix);
                }
            }
        }
    }
}

/// Struct-of-arrays arena for the whole cell array.
///
/// The hardware broadcasts every command to all `n` cells at once; a
/// faithful software model that loops over `n` `SimdCell` structs pays
/// for that breadth on every microinstruction, even though most cells of
/// a lightly-loaded array are *inert* — they all hold the identical
/// never-pushed state and every broadcast command maps identical states
/// to identical states. `CellArena` exploits exactly that invariant:
///
/// * The **live prefix** (cells that have diverged since the last reset)
///   is stored as parallel `data` / `lo` / `hi` / `selected` / `saved`
///   arrays, so each command touches only the one or two arrays it
///   actually reads and writes — cache-dense, branch-light loops instead
///   of 16-byte struct strides.
/// * The **uniform tail** is represented by a single [`SimdCell`]
///   summary plus its population count. Broadcast commands apply to the
///   summary once — O(1) for the entire tail — and the tree folds add
///   the tail's contribution analytically.
///
/// One wrinkle: the `init_bounds` microprogram scan-numbers *every*
/// cell by physical position, which makes the tail non-uniform — but
/// only in a structured way: tail cell `i` holds the precise interval
/// `⟨i + offset⟩`. The summary therefore tracks the interval either as
/// a shared [`IndexInterval`] or as that *affine* form, and every
/// broadcast command is resolved against the summary in O(1). Commands
/// whose outcome genuinely differs from cell to cell (e.g. a scan
/// assignment over a partially-selected tail, or an equality bound
/// match landing inside an affine tail) materialise the tail first, so
/// the observable state is bit-identical to the cell-by-cell model in
/// every case. [`CellArena::push_front`] models the shift-load chain
/// and grows the live prefix by exactly one — the paper's "shifting the
/// data of all SIMD cells" costs O(live), not O(n), because a shift
/// maps a uniform tail onto itself and an affine tail onto
/// `offset - 1`.
#[derive(Debug, Clone)]
pub struct CellArena {
    n: usize,
    data: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    selected: Vec<bool>,
    saved: Vec<bool>,
    /// Shared state of every cell at index `>= live()`.
    tail: TailState,
}

/// Interval summary of the uniform tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TailInterval {
    /// Every tail cell holds the same interval.
    Uniform(IndexInterval),
    /// Tail cell at absolute index `i` holds `precise(i + offset)`
    /// (wrapping) — the state `init_bounds`' position-numbering scan
    /// leaves behind.
    Affine { offset: u32 },
}

/// Summary state shared by every cell beyond the live prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailState {
    data: u32,
    interval: TailInterval,
    selected: bool,
    saved: bool,
}

/// Outcome of resolving one broadcast command against the tail summary.
enum TailPlan {
    /// The whole tail moves to this summary state.
    Set(TailState),
    /// The command's outcome differs between tail cells; expand the
    /// summary into the live prefix first.
    Materialize,
}

impl TailState {
    fn interval_at(&self, i: usize) -> IndexInterval {
        match self.interval {
            TailInterval::Uniform(iv) => iv,
            TailInterval::Affine { offset } => {
                IndexInterval::precise(offset.wrapping_add(i as u32))
            }
        }
    }

    fn cell_at(&self, i: usize) -> SimdCell {
        SimdCell {
            data: self.data,
            interval: self.interval_at(i),
            selected: self.selected,
            saved: self.saved,
        }
    }
}

impl CellArena {
    /// An arena of `n` cells, all holding `inert`.
    pub fn new(n: usize, inert: SimdCell) -> CellArena {
        assert!(n >= 1, "the cell array needs at least one cell");
        CellArena {
            n,
            data: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            selected: Vec::new(),
            saved: Vec::new(),
            tail: TailState {
                data: inert.data,
                interval: TailInterval::Uniform(inert.interval),
                selected: inert.selected,
                saved: inert.saved,
            },
        }
    }

    /// Total number of cells (live prefix + uniform tail).
    pub fn len(&self) -> usize {
        self.n
    }

    /// An arena is never empty (`n >= 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Length of the materialised (diverged) prefix. Everything at or
    /// beyond this index is summarised by one shared cell state.
    pub fn live(&self) -> usize {
        self.data.len()
    }

    /// Reset every cell to `cell` — collapses the arena back to a pure
    /// tail summary in O(1) array work.
    pub fn fill(&mut self, cell: SimdCell) {
        self.data.clear();
        self.lo.clear();
        self.hi.clear();
        self.selected.clear();
        self.saved.clear();
        self.tail = TailState {
            data: cell.data,
            interval: TailInterval::Uniform(cell.interval),
            selected: cell.selected,
            saved: cell.saved,
        };
    }

    /// The state of cell `i`.
    pub fn get(&self, i: usize) -> SimdCell {
        assert!(i < self.n, "cell index {i} out of range (n = {})", self.n);
        if i < self.data.len() {
            SimdCell {
                data: self.data[i],
                interval: IndexInterval::new(self.lo[i], self.hi[i]),
                selected: self.selected[i],
                saved: self.saved[i],
            }
        } else {
            self.tail.cell_at(i)
        }
    }

    /// Materialise the full array (tests, diagnostics, and tree-fold
    /// reference checks).
    pub fn cells(&self) -> Vec<SimdCell> {
        (0..self.n).map(|i| self.get(i)).collect()
    }

    /// The shift-load chain: cell 0 takes `cell`, every other cell takes
    /// its left neighbour. A uniform tail shifts onto itself and an
    /// affine tail's position values all move one index right (offset
    /// decrement), so only the live prefix (plus its new boundary cell)
    /// is physically moved.
    pub fn push_front(&mut self, cell: SimdCell) {
        let m = self.data.len();
        if m == self.n {
            // Full prefix: the rightmost cell's state falls off the end.
            self.data.pop();
            self.lo.pop();
            self.hi.pop();
            self.selected.pop();
            self.saved.pop();
        } else if let TailInterval::Affine { offset } = self.tail.interval {
            self.tail.interval = TailInterval::Affine {
                offset: offset.wrapping_sub(1),
            };
        }
        self.data.insert(0, cell.data);
        self.lo.insert(0, cell.interval.lo);
        self.hi.insert(0, cell.interval.hi);
        self.selected.insert(0, cell.selected);
        self.saved.insert(0, cell.saved);
    }

    fn materialize_tail(&mut self) {
        while self.data.len() < self.n {
            let c = self.tail.cell_at(self.data.len());
            self.data.push(c.data);
            self.lo.push(c.interval.lo);
            self.hi.push(c.interval.hi);
            self.selected.push(c.selected);
            self.saved.push(c.saved);
        }
    }

    /// Broadcast one command to every cell. The live prefix is updated
    /// with per-command struct-of-arrays loops (each touches only the
    /// arrays the command reads/writes); the tail is resolved once
    /// through its summary — materialised only when the command's
    /// outcome genuinely differs between tail cells.
    ///
    /// # Panics
    /// [`CellCmd::Load`] travels through [`CellArena::push_front`] and
    /// [`CellCmd::AssignScanPosition`] through [`CellArena::scan_assign`];
    /// passing either here panics, mirroring [`SimdCell::apply`].
    pub fn apply_all(&mut self, cmd: CellCmd, b: Broadcast) {
        if self.data.len() < self.n {
            match Self::plan_tail(
                self.tail,
                cmd,
                b,
                self.data.len() as u32,
                (self.n - 1) as u32,
            ) {
                TailPlan::Set(t) => self.tail = t,
                TailPlan::Materialize => self.materialize_tail(),
            }
        }
        // Zipped loops over the live prefix (every array has its length):
        // no index, so no bounds check, and each loop vectorises.
        let sel = &mut self.selected;
        match cmd {
            CellCmd::Load => unreachable!("Load is applied by the shift chain (push_front)"),
            CellCmd::AssignScanPosition => {
                unreachable!("the scan assignment is applied by scan_assign")
            }
            CellCmd::Save => self.saved.copy_from_slice(sel),
            CellCmd::Restore => sel.copy_from_slice(&self.saved),
            CellCmd::SelectAll => sel.fill(true),
            CellCmd::SelectImprecise => {
                for ((s, &lo), &hi) in sel.iter_mut().zip(&self.lo).zip(&self.hi) {
                    *s = lo != hi;
                }
            }
            CellCmd::MatchDataLt => Self::and_each(sel, &self.data, |d| d < b.data),
            CellCmd::MatchDataEq => Self::and_each(sel, &self.data, |d| d == b.data),
            CellCmd::MatchDataGt => Self::and_each(sel, &self.data, |d| d > b.data),
            CellCmd::MatchLowerBound => Self::and_each(sel, &self.lo, |lo| lo == b.lo),
            CellCmd::MatchUpperBound => Self::and_each(sel, &self.hi, |hi| hi == b.hi),
            CellCmd::MatchLowerBoundLe => Self::and_each(sel, &self.lo, |lo| lo <= b.lo),
            CellCmd::MatchUpperBoundGe => Self::and_each(sel, &self.hi, |hi| hi >= b.hi),
            // A bound update first checks every selected cell's new
            // interval, so its write loop is a branch-free select.
            CellCmd::SetLowerBound => {
                Self::check_selected(sel, &self.hi, |hi| (b.lo, hi));
                for (lo, &s) in self.lo.iter_mut().zip(sel.iter()) {
                    *lo = if s { b.lo } else { *lo };
                }
            }
            CellCmd::SetUpperBound => {
                Self::check_selected(sel, &self.lo, |lo| (lo, b.hi));
                for (hi, &s) in self.hi.iter_mut().zip(sel.iter()) {
                    *hi = if s { b.hi } else { *hi };
                }
            }
            CellCmd::SetBounds => {
                Self::check_selected(sel, &self.lo, |_| (b.lo, b.hi));
                for ((lo, hi), &s) in self.lo.iter_mut().zip(&mut self.hi).zip(sel.iter()) {
                    (*lo, *hi) = if s { (b.lo, b.hi) } else { (*lo, *hi) };
                }
            }
        }
    }

    /// [`IndexInterval::new`]'s check on the new interval `bounds(keys[i])`
    /// of every selected cell: panics, as it does, at the first empty
    /// one. The scan for one has no early exit, so it vectorises.
    fn check_selected(sel: &[bool], keys: &[u32], bounds: impl Fn(u32) -> (u32, u32)) {
        let empty = |(&s, &k): (&bool, &u32)| {
            let (lo, hi) = bounds(k);
            s & (lo > hi)
        };
        let cells = || sel.iter().zip(keys);
        if cells().fold(false, |any, c| any | empty(c)) {
            let (_, &k) = cells().find(|&c| empty(c)).expect("an empty interval");
            let (lo, hi) = bounds(k);
            IndexInterval::new(lo, hi);
        }
    }

    /// `sel[i] &= keep(keys[i])` over the live prefix: a selection match.
    fn and_each(sel: &mut [bool], keys: &[u32], keep: impl Fn(u32) -> bool) {
        for (s, &k) in sel.iter_mut().zip(keys) {
            *s &= keep(k);
        }
    }

    /// Resolve one broadcast command against the tail summary for tail
    /// cells `live..=last`. Pure decision function: either the whole
    /// tail moves to one new summary state, or the command's outcome
    /// varies across tail cells and the tail must be materialised.
    fn plan_tail(mut t: TailState, cmd: CellCmd, b: Broadcast, live: u32, last: u32) -> TailPlan {
        // An affine tail's positions stay within u32 in every reachable
        // program (they are array indices); a wrap across the tail span
        // would make the monotone threshold tests below invalid, so
        // fall back to materialising in that (unreachable) case.
        let affine_span = |offset: u32| -> Option<(u32, u32)> {
            let first = offset.checked_add(live)?;
            let end = offset.checked_add(last)?;
            Some((first, end))
        };
        match cmd {
            CellCmd::Load => unreachable!("Load is applied by the shift chain (push_front)"),
            CellCmd::AssignScanPosition => {
                unreachable!("the scan assignment is applied by scan_assign")
            }
            CellCmd::Save => t.saved = t.selected,
            CellCmd::Restore => t.selected = t.saved,
            CellCmd::SelectAll => t.selected = true,
            CellCmd::SelectImprecise => {
                t.selected = match t.interval {
                    TailInterval::Uniform(iv) => !iv.is_precise(),
                    TailInterval::Affine { .. } => false,
                };
            }
            CellCmd::MatchDataLt => t.selected &= t.data < b.data,
            CellCmd::MatchDataEq => t.selected &= t.data == b.data,
            CellCmd::MatchDataGt => t.selected &= t.data > b.data,
            CellCmd::MatchLowerBound | CellCmd::MatchUpperBound => {
                let want = if cmd == CellCmd::MatchLowerBound {
                    b.lo
                } else {
                    b.hi
                };
                if t.selected {
                    match t.interval {
                        TailInterval::Uniform(iv) => {
                            let v = if cmd == CellCmd::MatchLowerBound {
                                iv.lo
                            } else {
                                iv.hi
                            };
                            t.selected = v == want;
                        }
                        TailInterval::Affine { offset } => {
                            // precise(i + offset) == want for exactly one
                            // index; if it lies inside the tail, that one
                            // cell diverges from its neighbours.
                            let idx = want.wrapping_sub(offset);
                            if (live..=last).contains(&idx) {
                                return TailPlan::Materialize;
                            }
                            t.selected = false;
                        }
                    }
                }
            }
            CellCmd::MatchLowerBoundLe => {
                if t.selected {
                    match t.interval {
                        TailInterval::Uniform(iv) => t.selected = iv.lo <= b.lo,
                        TailInterval::Affine { offset } => match affine_span(offset) {
                            Some((_, end)) if end <= b.lo => {}
                            Some((first, _)) if first > b.lo => t.selected = false,
                            _ => return TailPlan::Materialize,
                        },
                    }
                }
            }
            CellCmd::MatchUpperBoundGe => {
                if t.selected {
                    match t.interval {
                        TailInterval::Uniform(iv) => t.selected = iv.hi >= b.hi,
                        TailInterval::Affine { offset } => match affine_span(offset) {
                            Some((first, _)) if first >= b.hi => {}
                            Some((_, end)) if end < b.hi => t.selected = false,
                            _ => return TailPlan::Materialize,
                        },
                    }
                }
            }
            CellCmd::SetLowerBound => {
                if t.selected {
                    match t.interval {
                        TailInterval::Uniform(iv) => {
                            t.interval = TailInterval::Uniform(IndexInterval::new(b.lo, iv.hi));
                        }
                        // lo becomes shared while hi keeps varying:
                        // neither uniform nor affine.
                        TailInterval::Affine { .. } => return TailPlan::Materialize,
                    }
                }
            }
            CellCmd::SetUpperBound => {
                if t.selected {
                    match t.interval {
                        TailInterval::Uniform(iv) => {
                            t.interval = TailInterval::Uniform(IndexInterval::new(iv.lo, b.hi));
                        }
                        TailInterval::Affine { .. } => return TailPlan::Materialize,
                    }
                }
            }
            CellCmd::SetBounds => {
                if t.selected {
                    t.interval = TailInterval::Uniform(IndexInterval::new(b.lo, b.hi));
                }
            }
        }
        TailPlan::Set(t)
    }

    /// The scan assignment: every selected cell's interval becomes the
    /// precise position `base + (selected cells strictly to its left)`.
    /// The tail is all-or-nothing selected; when selected, consecutive
    /// tail cells receive consecutive positions, which is exactly the
    /// affine summary — so even the position-numbering scan of
    /// `init_bounds` keeps the tail O(1). A deselected tail contributes
    /// nothing to any prefix count and is untouched.
    pub fn scan_assign(&mut self, base: u32) {
        if self.tail.selected && self.data.len() < self.n {
            let prefix_live = self.selected.iter().filter(|&&s| s).count() as u32;
            let live = self.data.len() as u32;
            self.tail.interval = TailInterval::Affine {
                offset: base.wrapping_add(prefix_live).wrapping_sub(live),
            };
        }
        let mut prefix = 0u32;
        for i in 0..self.data.len() {
            if self.selected[i] {
                let iv = IndexInterval::precise(base + prefix);
                self.lo[i] = iv.lo;
                self.hi[i] = iv.hi;
                prefix += 1;
            }
        }
    }

    /// Fold: number of selected cells (prefix popcount plus the tail's
    /// analytic contribution).
    pub fn count_selected(&self) -> u32 {
        let prefix = self.selected.iter().filter(|&&s| s).count();
        let tail = if self.tail.selected {
            self.n - self.data.len()
        } else {
            0
        };
        (prefix + tail) as u32
    }

    /// Fold: index of the leftmost selected cell, if any.
    pub fn leftmost_selected(&self) -> Option<(u32, SimdCell)> {
        if let Some(i) = self.selected.iter().position(|&s| s) {
            return Some((i as u32, self.get(i)));
        }
        if self.tail.selected && self.data.len() < self.n {
            return Some((self.data.len() as u32, self.tail.cell_at(self.data.len())));
        }
        None
    }

    /// Fold: bitwise OR of the selected cells' data (the OR-tree).
    pub fn retrieve(&self) -> u32 {
        let mut acc = 0u32;
        for i in 0..self.data.len() {
            if self.selected[i] {
                acc |= self.data[i];
            }
        }
        if self.tail.selected && self.data.len() < self.n {
            acc |= self.tail.data;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(data: u32, lo: u32, hi: u32) -> SimdCell {
        SimdCell::new(data, IndexInterval::new(lo, hi))
    }

    fn b(data: u32, lo: u32, hi: u32) -> Broadcast {
        Broadcast { data, lo, hi }
    }

    #[test]
    fn select_and_match_chain() {
        let mut c = cell(10, 0, 7);
        c.apply(CellCmd::SelectAll, b(0, 0, 0), 0);
        assert!(c.selected);
        c.apply(CellCmd::MatchDataLt, b(20, 0, 0), 0);
        assert!(c.selected, "10 < 20");
        c.apply(CellCmd::MatchDataGt, b(10, 0, 0), 0);
        assert!(!c.selected, "10 > 10 is false — match chains AND");
        // Once deselected, further matches cannot reselect.
        c.apply(CellCmd::MatchDataEq, b(10, 0, 0), 0);
        assert!(!c.selected);
    }

    #[test]
    fn select_imprecise_reads_interval() {
        let mut c = cell(5, 3, 3);
        c.apply(CellCmd::SelectImprecise, b(0, 0, 0), 0);
        assert!(!c.selected, "precise interval");
        let mut c = cell(5, 3, 4);
        c.apply(CellCmd::SelectImprecise, b(0, 0, 0), 0);
        assert!(c.selected);
    }

    #[test]
    fn bound_matches_equality_and_inequality() {
        let mut c = cell(1, 2, 6);
        c.apply(CellCmd::SelectAll, b(0, 0, 0), 0);
        c.apply(CellCmd::MatchLowerBound, b(0, 2, 0), 0);
        assert!(c.selected);
        c.apply(CellCmd::MatchUpperBound, b(0, 0, 6), 0);
        assert!(c.selected);
        c.apply(CellCmd::MatchLowerBoundLe, b(0, 4, 0), 0);
        assert!(c.selected, "2 <= 4");
        c.apply(CellCmd::MatchUpperBoundGe, b(0, 0, 4), 0);
        assert!(c.selected, "6 >= 4");
        c.apply(CellCmd::MatchUpperBoundGe, b(0, 0, 7), 0);
        assert!(!c.selected, "6 >= 7 fails");
    }

    #[test]
    fn set_bounds_only_affect_selected() {
        let mut c = cell(1, 0, 7);
        c.apply(CellCmd::SetBounds, b(0, 2, 3), 0);
        assert_eq!(
            c.interval,
            IndexInterval::new(0, 7),
            "deselected cell unchanged"
        );
        c.apply(CellCmd::SelectAll, b(0, 0, 0), 0);
        c.apply(CellCmd::SetLowerBound, b(0, 1, 0), 0);
        c.apply(CellCmd::SetUpperBound, b(0, 0, 5), 0);
        assert_eq!(c.interval, IndexInterval::new(1, 5));
        c.apply(CellCmd::SetBounds, b(0, 2, 2), 0);
        assert!(c.interval.is_precise());
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut c = cell(1, 0, 3);
        c.apply(CellCmd::SelectAll, b(0, 0, 0), 0);
        c.apply(CellCmd::Save, b(0, 0, 0), 0);
        c.apply(CellCmd::MatchDataEq, b(99, 0, 0), 0);
        assert!(!c.selected);
        c.apply(CellCmd::Restore, b(0, 0, 0), 0);
        assert!(c.selected, "saved state restored");
    }

    /// Cell-by-cell reference model the arena must shadow exactly.
    struct Reference {
        cells: Vec<SimdCell>,
    }

    impl Reference {
        fn push_front(&mut self, cell: SimdCell) {
            for i in (1..self.cells.len()).rev() {
                self.cells[i] = self.cells[i - 1];
            }
            self.cells[0] = cell;
        }

        fn apply_all(&mut self, cmd: CellCmd, b: Broadcast) {
            for c in &mut self.cells {
                c.apply(cmd, b, 0);
            }
        }

        fn scan_assign(&mut self, base: u32) {
            let mut prefix = 0u32;
            for c in &mut self.cells {
                let p = prefix;
                prefix += c.selected as u32;
                c.apply(
                    CellCmd::AssignScanPosition,
                    Broadcast {
                        data: 0,
                        lo: base,
                        hi: 0,
                    },
                    p,
                );
            }
        }
    }

    const BROADCAST_CMDS: [CellCmd; 14] = [
        CellCmd::Save,
        CellCmd::Restore,
        CellCmd::SelectAll,
        CellCmd::SelectImprecise,
        CellCmd::MatchDataLt,
        CellCmd::MatchDataEq,
        CellCmd::MatchDataGt,
        CellCmd::MatchLowerBound,
        CellCmd::MatchUpperBound,
        CellCmd::MatchLowerBoundLe,
        CellCmd::MatchUpperBoundGe,
        CellCmd::SetLowerBound,
        CellCmd::SetUpperBound,
        CellCmd::SetBounds,
    ];

    #[test]
    fn arena_shadows_cell_by_cell_model_over_a_command_tape() {
        // From an empty prefix, then from live prefixes of 1, 63, 64, 65
        // and 200 cells (so the vectorised broadcast loops run their
        // remainders), both in a full array and with a three-cell tail.
        shadow_command_tape(12, 0);
        for live in [1, 63, 64, 65, 200] {
            shadow_command_tape(live, live);
            shadow_command_tape(live + 3, live);
        }
    }

    /// A deterministic pseudo-random tape over every broadcast command,
    /// interleaved with shift-loads and scan assignments, on `n` cells
    /// after `preload` shift-loads; after each operation the arena must
    /// materialise to exactly the reference array.
    fn shadow_command_tape(n: usize, preload: usize) {
        let inert = SimdCell::new(0, IndexInterval::precise(u32::MAX));
        let mut arena = CellArena::new(n, inert);
        let mut reference = Reference {
            cells: vec![inert; n],
        };
        let mut x = 0x2468_ACE1u32;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for _ in 0..preload {
            let c = SimdCell::new(rng() % 32, IndexInterval::precise(u32::MAX));
            arena.push_front(c);
            reference.push_front(c);
        }
        assert_eq!(arena.live(), preload);
        for step in 0..400 {
            let roll = rng() % 20;
            if roll < 4 {
                let c = SimdCell::new(rng() % 32, IndexInterval::precise(u32::MAX));
                arena.push_front(c);
                reference.push_front(c);
            } else if roll < 6 {
                // Keep scan inputs inside an interval every selected
                // cell can legally take (bounds only shrink, so base 0
                // works with the unknown-interval selections below).
                arena.scan_assign(0);
                reference.scan_assign(0);
            } else {
                let cmd = BROADCAST_CMDS[(rng() % 14) as usize];
                // Bound-setting commands need lo <= hi against every
                // selected cell; SelectAll beforehand makes the mix
                // exercise the selected path, and the interval panic
                // guard stays live because b.lo <= b.hi <= u32::MAX.
                let b = match cmd {
                    CellCmd::SetLowerBound => Broadcast {
                        data: 0,
                        lo: 0,
                        hi: 0,
                    },
                    CellCmd::SetUpperBound | CellCmd::SetBounds => Broadcast {
                        data: 0,
                        lo: rng() % 4,
                        hi: u32::MAX,
                    },
                    _ => Broadcast {
                        data: rng() % 32,
                        lo: rng() % 16,
                        hi: u32::MAX - rng() % 16,
                    },
                };
                arena.apply_all(cmd, b);
                reference.apply_all(cmd, b);
            }
            assert_eq!(
                arena.cells(),
                reference.cells,
                "arena of {n} cells, {preload} preloaded, diverged at step {step}"
            );
            assert_eq!(
                arena.count_selected(),
                reference.cells.iter().filter(|c| c.selected).count() as u32
            );
            assert_eq!(
                arena.retrieve(),
                reference
                    .cells
                    .iter()
                    .filter(|c| c.selected)
                    .fold(0, |a, c| a | c.data)
            );
            let expect_leftmost = reference
                .cells
                .iter()
                .enumerate()
                .find(|(_, c)| c.selected)
                .map(|(i, c)| (i as u32, *c));
            assert_eq!(arena.leftmost_selected(), expect_leftmost);
        }
    }

    /// A prefix of cells with precise positions 9, 3, 2 (cell 0 first),
    /// as the reference array and as an arena.
    fn bounded_cells() -> (Reference, CellArena) {
        let cells: Vec<SimdCell> = [9, 3, 2]
            .map(|p| SimdCell::new(p, IndexInterval::precise(p)))
            .into();
        let mut arena = CellArena::new(cells.len(), cells[0]);
        for &c in cells.iter().rev() {
            arena.push_front(c);
        }
        assert_eq!(arena.cells(), cells);
        (Reference { cells }, arena)
    }

    #[test]
    #[should_panic(expected = "index interval ⟨5, 3⟩ is empty")]
    fn a_selected_cells_empty_bound_update_panics() {
        // Raising the lower bound to 5 empties cells 1 and 2; like the
        // cell-by-cell model, the arena panics at the first of them.
        let (mut reference, mut arena) = bounded_cells();
        let raise = Broadcast {
            data: 0,
            lo: 5,
            hi: 0,
        };
        let model = std::panic::catch_unwind(move || {
            reference.apply_all(CellCmd::SelectAll, Broadcast::default());
            reference.apply_all(CellCmd::SetLowerBound, raise);
        });
        let msg = model.expect_err("the model panics too");
        assert_eq!(
            msg.downcast_ref::<String>().unwrap(),
            "index interval ⟨5, 3⟩ is empty"
        );
        arena.apply_all(CellCmd::SelectAll, Broadcast::default());
        arena.apply_all(CellCmd::SetLowerBound, raise);
    }

    #[test]
    fn an_unselected_cells_bound_update_is_not_checked() {
        // The same broadcasts with no cell selected change nothing.
        let (reference, mut arena) = bounded_cells();
        for (cmd, lo, hi) in [
            (CellCmd::SetLowerBound, 5, 0),
            (CellCmd::SetUpperBound, 0, 1),
            (CellCmd::SetBounds, 7, 6),
        ] {
            arena.apply_all(cmd, Broadcast { data: 0, lo, hi });
        }
        assert_eq!(arena.cells(), reference.cells);
    }

    #[test]
    fn scan_assign_keeps_a_selected_tail_affine() {
        let n = 6usize;
        let inert = SimdCell::new(7, IndexInterval::new(0, 5));
        let mut arena = CellArena::new(n, inert);
        arena.push_front(SimdCell::new(1, IndexInterval::new(0, 5)));
        assert_eq!(arena.live(), 1, "one diverged cell");
        arena.apply_all(CellCmd::SelectAll, Broadcast::default());
        assert_eq!(arena.count_selected(), 6, "tail counted analytically");
        // Every selected cell gets a distinct but *consecutive*
        // position — the tail becomes affine, not materialised.
        arena.scan_assign(0);
        assert_eq!(arena.live(), 1, "tail summarised as an affine span");
        let positions: Vec<u32> = arena.cells().iter().map(|c| c.interval.lo).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 4, 5]);
        assert!(arena.cells().iter().all(|c| c.interval.is_precise()));
        // A later shift moves every affine position one cell right.
        arena.push_front(SimdCell::new(2, IndexInterval::precise(0)));
        let shifted: Vec<u32> = arena.cells().iter().map(|c| c.interval.lo).collect();
        assert_eq!(shifted, vec![0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn equality_bound_match_into_an_affine_tail_materialises() {
        // `ReadAt k` with k pointing into the never-loaded region
        // selects exactly one tail cell — the only state the summary
        // cannot express.
        let n = 5usize;
        let inert = SimdCell::new(0, IndexInterval::precise(u32::MAX));
        let mut arena = CellArena::new(n, inert);
        arena.push_front(SimdCell::new(9, IndexInterval::precise(0)));
        arena.apply_all(CellCmd::SelectAll, Broadcast::default());
        arena.scan_assign(0);
        assert_eq!(arena.live(), 1);
        arena.apply_all(CellCmd::SelectAll, Broadcast::default());
        arena.apply_all(
            CellCmd::MatchLowerBound,
            Broadcast {
                data: 0,
                lo: 3,
                hi: 0,
            },
        );
        assert_eq!(arena.live(), n, "single-cell selection forced expansion");
        assert_eq!(arena.count_selected(), 1);
        assert_eq!(arena.leftmost_selected().map(|(i, _)| i), Some(3));
    }

    #[test]
    fn inert_tail_stays_summarised_through_broadcasts() {
        let n = 1 << 16;
        let inert = SimdCell::new(0, IndexInterval::precise(u32::MAX));
        let mut arena = CellArena::new(n, inert);
        for v in [5u32, 9, 1] {
            arena.push_front(SimdCell::new(v, IndexInterval::precise(u32::MAX)));
        }
        // A realistic refinement round's worth of broadcasts: none of
        // them may materialise the 65k inert cells.
        arena.apply_all(CellCmd::SelectImprecise, Broadcast::default());
        arena.apply_all(
            CellCmd::MatchDataLt,
            Broadcast {
                data: 9,
                lo: 0,
                hi: 0,
            },
        );
        arena.apply_all(CellCmd::Save, Broadcast::default());
        arena.scan_assign(0);
        assert_eq!(arena.live(), 3, "tail never materialised");
        assert_eq!(arena.get(n - 1), inert, "tail state untouched");
    }

    #[test]
    fn scan_position_assignment() {
        let mut c = cell(1, 4, 9);
        c.apply(CellCmd::SelectAll, b(0, 0, 0), 0);
        c.apply(CellCmd::AssignScanPosition, b(0, 4, 0), 2);
        assert_eq!(c.interval, IndexInterval::precise(6), "base 4 + prefix 2");
        // Deselected cells ignore the scan.
        let mut d = cell(1, 4, 9);
        d.apply(CellCmd::AssignScanPosition, b(0, 4, 0), 2);
        assert_eq!(d.interval, IndexInterval::new(4, 9));
    }
}
