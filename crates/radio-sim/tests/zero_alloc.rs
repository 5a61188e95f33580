//! The hot-path allocation contract: in the stats-only steady state,
//! `Engine::step` performs **zero** heap allocations per round.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup (which sizes the engine's reusable scratch buffers) and an
//! explicit stats-capacity reservation, a long run of rounds must not
//! allocate at all. See docs/perf.md for the methodology.

use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler::{AllExtraEdges, BernoulliEdges, EpochRandomEdges, LinkScheduler};
use radio_sim::topology::{random_geometric, RggParams};
use radio_sim::trace::RecordingPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation that grows the heap (alloc, alloc_zeroed,
/// realloc) — but only on the thread that armed the counter, and into
/// that thread's own count, so concurrent libtest-harness threads
/// (timers, monitors, the other test) cannot pollute the measured
/// window. Deallocation is free and uncounted.
struct CountingAllocator;

thread_local! {
    /// Whether allocations on this thread count, and how many did.
    /// Const-initialized so touching them never itself allocates (no
    /// lazy TLS registration for droppable state).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A contention-heavy process with a `Copy` message: transmits its round
/// number with probability 1/4.
struct Chatter;

impl Process for Chatter {
    type Msg = u64;
    type Input = ();
    type Output = ();

    fn on_input(&mut self, _i: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u64> {
        use rand::Rng;
        if ctx.rng.gen_bool(0.25) {
            Action::Transmit(ctx.round)
        } else {
            Action::Receive
        }
    }

    fn on_receive(&mut self, _m: Option<u64>, _ctx: &mut Context<'_>) {}

    fn take_outputs(&mut self) -> Vec<()> {
        Vec::new()
    }
}

const MEASURED_ROUNDS: u64 = 1_000;

/// The schedulers the contract covers: a constant selection and both
/// randomized ones, whose per-edge coins the channel draws on demand.
fn schedulers() -> Vec<Box<dyn LinkScheduler>> {
    vec![
        Box::new(AllExtraEdges),
        Box::new(BernoulliEdges::new(0.5, 11)),
        Box::new(EpochRandomEdges::new(16, 0.5, 13)),
    ]
}

/// Runs a warmed-up engine over `scheduler` for `MEASURED_ROUNDS` rounds
/// with the allocation counter armed and returns the engine and the
/// number of allocations the window saw.
fn measured_run(scheduler: Box<dyn LinkScheduler>, telemetry: bool) -> (Engine<Chatter>, u64) {
    let topo = random_geometric(RggParams {
        n: 64,
        side: 3.0,
        r: 2.0,
        grey_reliable_p: 0.1,
        grey_unreliable_p: 0.8,
        seed: 5,
    });
    let procs: Vec<Chatter> = (0..topo.graph.len()).map(|_| Chatter).collect();
    let config = Configuration::new(topo.graph.clone(), scheduler)
        .with_recording(RecordingPolicy::stats_only())
        .with_telemetry(telemetry);
    let mut engine = Engine::new(config, procs, Box::new(NullEnvironment), 42);

    // Warmup: scratch buffers reach their steady sizes.
    engine.run(16);
    // The only per-round append is the aggregate RoundStats record;
    // reserve its capacity so amortized Vec growth cannot fire inside
    // the measured window.
    engine.reserve_rounds(MEASURED_ROUNDS);

    ARMED.with(|a| a.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    engine.run(MEASURED_ROUNDS);
    let after = ALLOCATIONS.with(Cell::get);
    ARMED.with(|a| a.set(false));
    (engine, after - before)
}

#[test]
fn stats_only_steady_state_allocates_nothing() {
    for scheduler in schedulers() {
        let name = scheduler.name();
        let (engine, allocations) = measured_run(scheduler, false);
        assert_eq!(
            allocations, 0,
            "Engine::step under {name} allocated {allocations} time(s) over {MEASURED_ROUNDS} rounds"
        );
        // The run did real work: stats were recorded every round.
        assert_eq!(
            engine.trace().round_stats.len() as u64,
            16 + MEASURED_ROUNDS
        );
        let totals = engine.trace().total_stats();
        assert!(totals.transmitters > 0 && totals.deliveries > 0, "{name}");
    }
}

#[test]
fn instrumented_steady_state_allocates_nothing() {
    // Same contract with telemetry enabled: the metrics core is all
    // fixed slots (counters, the 2048-bucket histogram, per-shard busy
    // slots sized at construction), so phase timing and counter
    // recording must add zero allocations per round.
    for scheduler in schedulers() {
        let name = scheduler.name();
        let (engine, allocations) = measured_run(scheduler, true);
        assert_eq!(
            allocations, 0,
            "instrumented Engine::step under {name} allocated {allocations} time(s) over {MEASURED_ROUNDS} rounds"
        );
        let telem = engine.telemetry().expect("telemetry enabled");
        assert_eq!(telem.rounds, 16 + MEASURED_ROUNDS);
        assert_eq!(telem.round_ns.count(), telem.rounds);
        assert!(telem.busy_ns() > 0 && telem.deliveries > 0, "{name}");
        // Telemetry observed the same execution the trace recorded.
        let totals = engine.trace().total_stats();
        assert_eq!(telem.deliveries, totals.deliveries as u64);
        assert_eq!(telem.transmissions, totals.transmitters as u64);
    }
}
