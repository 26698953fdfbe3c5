//! Zero-allocation guard for the simulator's steady-state hot loop.
//!
//! A counting global allocator wraps the system one. A 64-member static
//! Rapid cluster warms up for 30 s of virtual time (buffers reach their
//! capacity), then runs a 60 s steady-state window of probes, acks and
//! ticks. The window must stay under 0.05 allocations per event and at
//! or under [`MAX_WINDOW_ALLOCS`], in three configurations: flight
//! recorder off, recorder on, and recorder plus metrics sampling on.
//!
//! The counter is process-global, so the three configurations run in
//! turn inside one `#[test]` and this file holds no other test:
//!
//! ```text
//! cargo test -p rapid-sim --test alloc_guard -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rapid_core::settings::Settings;
use rapid_sim::cluster::RapidClusterBuilder;

/// Counting allocator wrapping the system one.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the counter is a statistic that publishes no other data,
// so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the window made in each configuration when `threads = 1`
/// still ran a separate one-event-at-a-time loop (what remains is
/// amortised growth of sample, traffic and protocol vectors). The epoch
/// engine must not add any.
const MAX_WINDOW_ALLOCS: u64 = 5_429;

/// Runs the warm-up and the steady window; returns the window's
/// `(allocations, events)`.
fn steady_window(settings: Settings) -> (u64, u64) {
    let mut sim = RapidClusterBuilder::new(64)
        .seed(5)
        .settings(settings)
        .build_static();
    sim.run_until(30_000);
    let events_before = sim.events_processed();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(90_000);
    (
        ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
        sim.events_processed() - events_before,
    )
}

#[test]
fn steady_state_hot_loop_is_allocation_free() {
    let configs = [
        ("recorder off", Settings::default()),
        (
            "recorder on",
            Settings {
                obs_ring: 256,
                ..Settings::default()
            },
        ),
        (
            "recorder and sampling on",
            Settings {
                obs_ring: 256,
                obs_sample_ms: 1_000,
                ..Settings::default()
            },
        ),
    ];
    for (name, settings) in configs {
        let (allocs, events) = steady_window(settings);
        let per_event = allocs as f64 / events as f64;
        println!("{name}: {allocs} allocs / {events} events = {per_event:.4}/event");
        assert!(
            per_event < 0.05,
            "{name}: the steady-state hot loop must be allocation-free, got {per_event:.4} allocs/event"
        );
        assert!(
            allocs <= MAX_WINDOW_ALLOCS,
            "{name}: {allocs} allocations in the window, more than the recorded {MAX_WINDOW_ALLOCS}"
        );
    }
}
