//! The functional unit table.
//!
//! Figure 4 of the paper shows a *Functional Unit Table* feeding the
//! decoder ("lookup tables are implicitly synthesised into decoder;
//! external table module definitions alleviate customisation"). It maps
//! the function-code field of a user instruction to the attached unit and
//! records the static per-unit metadata the decoder and dispatcher need
//! (how the aux field is interpreted, display name).

use crate::protocol::{AuxRole, FunctionalUnit};
use rtl_sim::SimError;

/// One table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuEntry {
    /// Function code this unit answers to.
    pub func_code: u8,
    /// Index into the coprocessor's unit vector.
    pub index: usize,
    /// Interpretation of the instruction's aux field.
    pub aux_role: AuxRole,
    /// Unit display name.
    pub name: &'static str,
}

/// The functional unit table (indexed by function code).
#[derive(Debug, Clone, Default)]
pub struct FuTable {
    entries: Vec<FuEntry>,
    /// Units quarantined by the dispatch watchdog, by unit index. A
    /// quarantined unit is never clocked or dispatched to again; the
    /// decoder answers instructions naming it with `FuQuarantined`.
    quarantined: Vec<bool>,
}

impl FuTable {
    /// Build the table from the attached units.
    ///
    /// # Errors
    /// Returns a configuration error when two units claim the same
    /// function code — the VHDL generics would fail elaboration the same
    /// way.
    pub fn build(units: &[Box<dyn FunctionalUnit>]) -> Result<FuTable, SimError> {
        let mut entries: Vec<FuEntry> = Vec::with_capacity(units.len());
        for (index, u) in units.iter().enumerate() {
            let code = u.func_code();
            if let Some(prev) = entries.iter().find(|e| e.func_code == code) {
                return Err(SimError::Config(format!(
                    "function code {code} claimed by both `{}` and `{}`",
                    prev.name,
                    u.name()
                )));
            }
            entries.push(FuEntry {
                func_code: code,
                index,
                aux_role: u.aux_role(),
                name: u.name(),
            });
        }
        let quarantined = vec![false; units.len()];
        Ok(FuTable {
            entries,
            quarantined,
        })
    }

    /// Look up the unit for a function code.
    pub fn lookup(&self, func_code: u8) -> Option<&FuEntry> {
        self.entries.iter().find(|e| e.func_code == func_code)
    }

    /// Number of attached units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no units are attached (a legal, if useless,
    /// configuration: the RTM still executes management primitives).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, in unit order.
    pub fn entries(&self) -> &[FuEntry] {
        &self.entries
    }

    /// Mark a unit (by index into the unit vector) as quarantined.
    pub fn quarantine(&mut self, index: usize) {
        self.quarantined[index] = true;
    }

    /// True when the unit at `index` has been quarantined by the watchdog.
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.quarantined.get(index).copied().unwrap_or(false)
    }

    /// Lift all quarantines (used by `reset`).
    pub fn clear_quarantine(&mut self) {
        self.quarantined.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DispatchPacket, FuOutput};
    use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

    /// A do-nothing unit for table tests.
    struct Dummy(u8, AuxRole);

    impl Clocked for Dummy {
        fn commit(&mut self) {}
        fn reset(&mut self) {}
    }

    impl FunctionalUnit for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn func_code(&self) -> u8 {
            self.0
        }
        fn aux_role(&self) -> AuxRole {
            self.1
        }
        fn can_dispatch(&self) -> bool {
            false
        }
        fn dispatch(&mut self, _pkt: DispatchPacket) {
            unreachable!()
        }
        fn peek_output(&self) -> Option<&FuOutput> {
            None
        }
        fn ack_output(&mut self) -> FuOutput {
            unreachable!()
        }
        fn is_idle(&self) -> bool {
            true
        }
        fn area(&self) -> AreaEstimate {
            AreaEstimate::ZERO
        }
        fn critical_path(&self) -> CriticalPath {
            CriticalPath::of(0)
        }
    }

    fn boxed(code: u8, role: AuxRole) -> Box<dyn FunctionalUnit> {
        Box::new(Dummy(code, role))
    }

    #[test]
    fn lookup_finds_units() {
        let units = vec![boxed(16, AuxRole::FlagSource), boxed(32, AuxRole::Unused)];
        let t = FuTable::build(&units).unwrap();
        assert_eq!(t.len(), 2);
        let e = t.lookup(16).unwrap();
        assert_eq!(e.index, 0);
        assert_eq!(e.aux_role, AuxRole::FlagSource);
        assert_eq!(t.lookup(32).unwrap().index, 1);
        assert!(t.lookup(99).is_none());
    }

    #[test]
    fn duplicate_codes_rejected() {
        let units = vec![boxed(16, AuxRole::Unused), boxed(16, AuxRole::Unused)];
        let err = FuTable::build(&units).unwrap_err();
        assert!(err.to_string().contains("function code 16"));
    }

    #[test]
    fn empty_table_is_legal() {
        let t = FuTable::build(&[]).unwrap();
        assert!(t.is_empty());
        assert!(t.lookup(0).is_none());
    }
}
