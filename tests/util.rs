//! Shared polling helpers for the root integration tests.
//!
//! Every test that pumps a simulation waits the same way — step, collect
//! responses, and fail loudly when a cycle budget expires — so the loop
//! lives here once instead of being re-invented (with subtly different
//! panic messages) in every test file. Each test binary includes this
//! module with `mod util;` and uses its own subset of the helpers.
#![allow(dead_code)]

use fu_host::System;
use fu_isa::DevMsg;
use rtl_sim::{LatencyHistogram, SimStats};

/// Cycle budget for every blocking [`fu_host::Driver`] call in the root
/// tests. Generous: a budget expiry here means a hang, not a slow link.
pub const DRIVER_TIMEOUT: u64 = 5_000_000;

/// Cycle budget for draining a long randomized response stream.
pub const STREAM_BUDGET: u64 = 60_000_000;

/// Cycle budget for settling an already-drained system to idle.
pub const SETTLE_BUDGET: u64 = 10_000;

/// The mode-independent projection of [`SimStats`]: simulated time, stage
/// busy-ness and the latency histograms, without the work counters that
/// `ActivityMode::Scheduled` exists to cut.
pub fn invariant_slice(s: &SimStats) -> (u64, &[(&'static str, u64)], [&LatencyHistogram; 3]) {
    (
        s.cycles_simulated,
        &s.stage_busy,
        [
            &s.lat_issue_dispatch,
            &s.lat_dispatch_retire,
            &s.lat_issue_retire,
        ],
    )
}

/// Consume a driver and check the underlying system parks cleanly: no
/// queued frames, no in-flight responses, within [`SETTLE_BUDGET`].
///
/// # Panics
/// When the system fails to reach idle, or an unclaimed response is
/// still sitting in the host queue — both mean a test left dangling
/// traffic behind.
pub fn assert_parks_clean(driver: fu_host::Driver) {
    let mut sys = driver.into_system();
    settle(&mut sys, SETTLE_BUDGET);
    assert!(
        sys.recv().is_none(),
        "driver left an unclaimed response in the host queue"
    );
}

/// Step `sys` until `n` responses have been received, returning them in
/// arrival order.
///
/// # Panics
/// After `budget` cycles without the `n`-th response, with a message
/// naming the budget and what actually arrived.
pub fn drain_responses(sys: &mut System, n: usize, budget: u64) -> Vec<DevMsg> {
    let mut out = Vec::new();
    for _ in 0..budget {
        if out.len() >= n {
            return out;
        }
        sys.step();
        while let Some(m) = sys.recv() {
            out.push(m);
        }
    }
    if out.len() >= n {
        return out;
    }
    panic!(
        "cycle budget of {budget} exhausted at cycle {}: expected {n} \
         responses, got {} so far: {out:?}",
        sys.cycle(),
        out.len(),
    );
}

/// Run `sys` until it reports fully idle (everything drained and, with a
/// reliable transport, acknowledged), skipping quiet stretches. A
/// [`fu_host::MultiHostSystem`] settles through this too.
///
/// # Panics
/// After `budget` cycles without reaching idle.
pub fn settle(sys: &mut System, budget: u64) {
    sys.run_until(budget, |s| s.is_idle())
        .unwrap_or_else(|e| panic!("cycle budget of {budget} exhausted before idle: {e:?}"));
}

/// Feed `frames` into a bare [`fu_rtm::Coprocessor`] as flow control
/// allows and step until both the frames and the machine have drained.
/// Returns the cycle count at idle.
///
/// # Panics
/// After `budget` cycles without draining.
pub fn feed_frames_until_idle(
    coproc: &mut fu_rtm::Coprocessor,
    frames: impl IntoIterator<Item = u32>,
    budget: u64,
) -> u64 {
    let mut frames: std::collections::VecDeque<u32> = frames.into_iter().collect();
    for _ in 0..budget {
        while let Some(&f) = frames.front() {
            if coproc.push_frame(f) {
                frames.pop_front();
            } else {
                break;
            }
        }
        coproc.step();
        if frames.is_empty() && coproc.is_idle() {
            return coproc.cycle();
        }
    }
    panic!(
        "cycle budget of {budget} exhausted with {} frames unfed and the machine still busy",
        frames.len()
    );
}
