//! The assembler allocates per program, never per line: assembling an
//! 8-line and a 72-line program makes the same number of heap
//! allocations. Counts are deterministic, so a per-line allocation that
//! comes back fails here without any timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of the thread that
/// turned counting on (the test harness's own threads do not count).
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).unwrap()
}

/// A program shaped like perfbench's `batch_mixed` jobs: `loads` LOADIs,
/// then `ops` three-register ALU operations with flags.
fn program(loads: usize, ops: usize) -> String {
    let alu = ["ADD", "SUB", "XOR", "OR", "AND"];
    let mut s = String::new();
    for r in 0..loads {
        s += &format!(
            "LOADI r{r}, {:#x}\n",
            0x9E37_79B9u32.wrapping_mul(r as u32 + 1)
        );
    }
    for i in 0..ops {
        let m = alu[i % alu.len()];
        s += &format!(
            "{m} r{}, r{}, r{}, f{}\n",
            i % 8,
            (i + 3) % 8,
            (i + 5) % 8,
            i % 4
        );
    }
    s
}

#[test]
fn assembling_allocates_per_program_not_per_line() {
    let (short, long) = (program(8, 0), program(8, 64));
    assert_eq!(short.lines().count(), 8);
    assert_eq!(long.lines().count(), 72);
    let mut words = (0, 0);
    let short_allocs = allocations(|| words.0 = fu_isa::asm::assemble(&short).unwrap().len());
    let long_allocs = allocations(|| words.1 = fu_isa::asm::assemble(&long).unwrap().len());
    assert_eq!(words, (8, 72));
    assert_eq!(
        short_allocs, long_allocs,
        "an 8-line program made {short_allocs} allocations, a 72-line one {long_allocs}"
    );
}
