//! Host wall-clock spans, recorded from outside the program under test.
//!
//! The benchmark never edits the layers it measures. It times the calls
//! its own code makes into their public API (`Service` calls,
//! `Farm::run_parallel`, `MultiHostSystem::{send, recv_blocking}`, the
//! shard-builder closure it hands to `Farm::new`) as nested spans, and it
//! wraps every functional unit in a delegating [`TimedUnit`] that sums the
//! host time spent inside the unit's methods.
//!
//! Spans stay in memory until the run ends; [`Tracer::chrome_json`]
//! writes them out as a Chrome-trace (Perfetto) document on the host
//! clock. Functional-unit time is kept as per-unit totals, not spans: a
//! unit is called several times per simulated cycle, and a span per call
//! would cost more memory than the run it describes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fu_rtm::{AuxRole, DispatchPacket, FuOutput, FunctionalUnit, SoftEvent};
use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

/// One closed span on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `serve.submit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Small per-thread id for the trace export.
    pub thread: u64,
    /// Call-specific detail (for `serve.*`: scheduling rounds the call ran).
    pub arg: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Host time one functional unit spent inside its own methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuTime {
    /// Nanoseconds inside the unit's methods, summed over all threads.
    pub ns: u64,
    /// Method calls timed.
    pub calls: u64,
}

/// Per-layer self time, aggregated over spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the part covered by child spans.
    pub self_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The span store of one traced iteration.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    fu: Mutex<BTreeMap<&'static str, FuTime>>,
    threads: Mutex<u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            fu: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn thread_id(&self) -> u64 {
        THREAD.with(|t| {
            if t.get() == u64::MAX {
                let mut n = self.threads.lock().expect("tracer thread counter poisoned");
                t.set(*n);
                *n += 1;
            }
            t.get()
        })
    }

    /// Time `f` as a span named `name`; `f` also returns the span's
    /// `arg`.
    pub fn span_arg<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let thread = self.thread_id();
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start_ns = self.now_ns();
        let idx = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                thread,
                arg: 0,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        let (out, arg) = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[idx].end_ns = end_ns;
        spans[idx].arg = arg;
        out
    }

    /// Fold one unit's totals in (called when a [`TimedUnit`] drops).
    fn add_fu(&self, name: &'static str, t: FuTime) {
        let mut fu = self.fu.lock().expect("fu totals poisoned");
        let e = fu.entry(name).or_default();
        e.ns += t.ns;
        e.calls += t.calls;
    }

    /// Every closed span, in start order per thread.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Host time per functional unit, keyed by unit name.
    #[must_use]
    pub fn fu_times(&self) -> BTreeMap<&'static str, FuTime> {
        self.fu.lock().expect("fu totals poisoned").clone()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its child spans on the same thread cover.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.ns();
            e.self_ns += s.ns().saturating_sub(c);
        }
        out
    }

    /// The spans as a Chrome-trace (Perfetto) JSON document, host clock
    /// in microseconds.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"arg\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.arg
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Time `f` as span `name` when `t` is set; otherwise just call it.
pub fn span<R>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span_arg(name, || (f(), 0)),
        None => f(),
    }
}

/// [`span`] with a call-specific `arg` returned by `f`.
pub fn span_arg<R>(t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
    match t {
        Some(t) => t.span_arg(name, f),
        None => f().0,
    }
}

/// Wrap every unit in a [`TimedUnit`] reporting to `t`.
#[must_use]
pub fn wrap_units(
    units: Vec<Box<dyn FunctionalUnit>>,
    t: &Arc<Tracer>,
) -> Vec<Box<dyn FunctionalUnit>> {
    units
        .into_iter()
        .map(|u| Box::new(TimedUnit::new(u, Arc::clone(t))) as Box<dyn FunctionalUnit>)
        .collect()
}

/// A functional unit that delegates every method — defaults included —
/// to the unit it wraps and sums the host time spent inside them.
///
/// Delegating the defaults matters: a wrapper that fell back to the
/// trait's default `wake_hint` or `advance_busy` would change how the
/// scheduler drives the unit, and the traced run's simulated counters
/// would then differ from the untraced run's.
pub struct TimedUnit {
    inner: Box<dyn FunctionalUnit>,
    time: Cell<FuTime>,
    tracer: Arc<Tracer>,
}

impl TimedUnit {
    /// Wrap `inner`, reporting its host time to `tracer` on drop.
    #[must_use]
    pub fn new(inner: Box<dyn FunctionalUnit>, tracer: Arc<Tracer>) -> TimedUnit {
        TimedUnit {
            inner,
            time: Cell::new(FuTime::default()),
            tracer,
        }
    }

    fn charge(&self, t0: Instant) {
        let mut t = self.time.get();
        t.ns += t0.elapsed().as_nanos() as u64;
        t.calls += 1;
        self.time.set(t);
    }
}

impl Drop for TimedUnit {
    fn drop(&mut self) {
        self.tracer.add_fu(self.inner.name(), self.time.get());
    }
}

/// Time one delegated call: `timed!(self, expr)`.
macro_rules! timed {
    ($s:ident, $e:expr) => {{
        let t0 = Instant::now();
        let r = $e;
        $s.charge(t0);
        r
    }};
}

impl Clocked for TimedUnit {
    fn commit(&mut self) {
        timed!(self, self.inner.commit())
    }

    fn reset(&mut self) {
        timed!(self, self.inner.reset())
    }
}

impl FunctionalUnit for TimedUnit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn func_code(&self) -> u8 {
        timed!(self, self.inner.func_code())
    }

    fn aux_role(&self) -> AuxRole {
        timed!(self, self.inner.aux_role())
    }

    fn can_dispatch(&self) -> bool {
        timed!(self, self.inner.can_dispatch())
    }

    fn dispatch(&mut self, pkt: DispatchPacket) {
        timed!(self, self.inner.dispatch(pkt))
    }

    fn peek_output(&self) -> Option<&FuOutput> {
        timed!(self, self.inner.peek_output())
    }

    fn ack_output(&mut self) -> FuOutput {
        timed!(self, self.inner.ack_output())
    }

    fn is_idle(&self) -> bool {
        timed!(self, self.inner.is_idle())
    }

    fn needs_clock_when_idle(&self) -> bool {
        timed!(self, self.inner.needs_clock_when_idle())
    }

    fn advance_idle(&mut self, cycles: u64) {
        timed!(self, self.inner.advance_idle(cycles))
    }

    fn wake_hint(&self) -> Option<u64> {
        timed!(self, self.inner.wake_hint())
    }

    fn advance_busy(&mut self, cycles: u64) {
        timed!(self, self.inner.advance_busy(cycles))
    }

    fn variety_writes_data(&self, variety: u8) -> bool {
        timed!(self, self.inner.variety_writes_data(variety))
    }

    fn variety_writes_flags(&self, variety: u8) -> bool {
        timed!(self, self.inner.variety_writes_flags(variety))
    }

    fn variety_reads_flags(&self, variety: u8) -> bool {
        timed!(self, self.inner.variety_reads_flags(variety))
    }

    fn variety_reads_srcs(&self, variety: u8) -> [bool; 3] {
        timed!(self, self.inner.variety_reads_srcs(variety))
    }

    fn clone_unit(&self) -> Option<Box<dyn FunctionalUnit>> {
        let inner = timed!(self, self.inner.clone_unit())?;
        Some(Box::new(TimedUnit::new(inner, Arc::clone(&self.tracer))))
    }

    fn seu_flip_result(&mut self, bit: u8) -> bool {
        timed!(self, self.inner.seu_flip_result(bit))
    }

    fn take_soft_event(&mut self) -> Option<SoftEvent> {
        timed!(self, self.inner.take_soft_event())
    }

    fn area(&self) -> AreaEstimate {
        self.inner.area()
    }

    fn critical_path(&self) -> CriticalPath {
        self.inner.critical_path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span_arg("outer", || {
            t.span_arg("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ((), 0)
            });
            ((), 7)
        });
        let layers = t.layer_times();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].arg, 7);
        assert!(t.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn untraced_span_just_calls() {
        assert_eq!(span(None, "x", || 3), 3);
        assert_eq!(span_arg(None, "x", || (4, 9)), 4);
    }
}
