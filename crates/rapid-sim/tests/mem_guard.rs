//! Live-heap guard for the simulator: its memory must follow what is in
//! flight now, not the largest burst a run has ever seen.
//!
//! A counting global allocator tracks live heap bytes and the bytes ever
//! allocated. A 1024-member Rapid cluster bootstraps through one seed,
//! holds steady for 120 s of virtual time, then loses 10 members at once.
//! Four bounds hold:
//!
//! * the live heap grows by at most [`MAX_STEADY_GROWTH`] from 20 s to
//!   120 s into the steady phase (the timing wheel's buckets once kept the
//!   capacity of every burst that landed on their slot, ≈ 43 MiB here);
//! * while the crash is being detected, the live heap peaks at most at
//!   [`MAX_PEAK_OVER_BOOT`] times what it was after the bootstrap (each
//!   node once held its own copy of every alert it relayed and the
//!   observer of every cut-detector slot, ≈ 2.7×; ≈ 1.9× with the alerts
//!   shared and the slots as flags, while each node still kept one relay
//!   entry and one dedup key per alert; ≈ 1.8× with one gossip item per
//!   subject);
//! * once the crash has settled, the live heap is at most
//!   [`MAX_CRASH_OVER_BOOT`] times what it was after the bootstrap (each
//!   node's gossip relay deques once kept the crash's alert count, ≈ 6×);
//! * from the crash to the settled view, the heap hands out at most
//!   [`MAX_CRASH_ALLOC_OVER_BOOT`] times the live heap after the bootstrap,
//!   counted cumulatively: freed blocks still count, because their churn
//!   is what keeps the allocator's footprint (and RSS) high although the
//!   live peak barely moves (every configuration snapshot a node sent once
//!   copied the whole member list, ≈ 11.8×; ≈ 5.2× with snapshots sharing
//!   the configuration's list; ≈ 4.8× with one gossip item per subject).
//!
//! The counter is process-global, so this file holds no other test:
//!
//! ```text
//! cargo test -p rapid-sim --test mem_guard -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rapid_sim::cluster::all_report;
use rapid_sim::{Fault, RapidClusterBuilder};

/// Live- and allocated-bytes counting allocator wrapping the system one.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes ever handed out (a `realloc` counts its new size).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates directly to `System` with the caller's
// arguments; the counters are statistics that publish no other data, so
// `Relaxed` suffices.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const N: usize = 1024;
const CRASHES: usize = 10;

/// Most the live heap may grow from 20 s to 120 s of steady time.
const MAX_STEADY_GROWTH: usize = 16 << 20;

/// Most the live heap may peak at during the crash, as a multiple of the
/// live heap after the bootstrap.
const MAX_PEAK_OVER_BOOT: f64 = 1.85;

/// Most the live heap after the crash may be, as a multiple of the live
/// heap after the bootstrap.
const MAX_CRASH_OVER_BOOT: f64 = 2.5;

/// Most the heap may hand out from the crash to the settled view, as a
/// multiple of the live heap after the bootstrap.
const MAX_CRASH_ALLOC_OVER_BOOT: f64 = 5.0;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[test]
fn live_heap_follows_what_is_in_flight() {
    let mut sim = RapidClusterBuilder::new(N).seed(3).build_bootstrap();
    sim.run_until_pred(1_200_000, |s| all_report(s, N))
        .expect("the cluster converges");
    let boot = LIVE.load(Ordering::Relaxed);

    let steady_from = sim.now();
    sim.run_until(steady_from + 20_000);
    let steady_20 = LIVE.load(Ordering::Relaxed);
    sim.run_until(steady_from + 120_000);
    let steady_120 = LIVE.load(Ordering::Relaxed);

    PEAK.store(steady_120, Ordering::Relaxed);
    let allocated_before = ALLOCATED.load(Ordering::Relaxed);
    let crash_at = sim.now() + 1;
    for i in 0..CRASHES {
        sim.schedule_fault(crash_at, Fault::Crash(1 + i * (N / CRASHES)));
    }
    sim.run_until_pred(crash_at + 300_000, |s| all_report(s, N - CRASHES))
        .expect("the survivors install the smaller view");
    let crash_peak = PEAK.load(Ordering::Relaxed);
    let settled = LIVE.load(Ordering::Relaxed);
    let crash_alloc = ALLOCATED.load(Ordering::Relaxed) - allocated_before;

    println!(
        "live heap MiB: boot {:.1}, +20 s {:.1}, +120 s {:.1}, crash peak {:.1}, after crash {:.1}; \
         allocated from crash to settled {:.1}",
        mib(boot),
        mib(steady_20),
        mib(steady_120),
        mib(crash_peak),
        mib(settled),
        mib(crash_alloc)
    );
    let growth = steady_120.saturating_sub(steady_20);
    assert!(
        growth <= MAX_STEADY_GROWTH,
        "the live heap grew {:.1} MiB from 20 s to 120 s of steady time (bound {:.1} MiB)",
        mib(growth),
        mib(MAX_STEADY_GROWTH)
    );
    let peak_ratio = crash_peak as f64 / boot as f64;
    assert!(
        peak_ratio <= MAX_PEAK_OVER_BOOT,
        "the live heap peaked during the crash at {peak_ratio:.2}x the one after the bootstrap (bound {MAX_PEAK_OVER_BOOT}x)"
    );
    let ratio = settled as f64 / boot as f64;
    assert!(
        ratio <= MAX_CRASH_OVER_BOOT,
        "the live heap after the crash is {ratio:.2}x the one after the bootstrap (bound {MAX_CRASH_OVER_BOOT}x)"
    );
    let alloc_ratio = crash_alloc as f64 / boot as f64;
    assert!(
        alloc_ratio <= MAX_CRASH_ALLOC_OVER_BOOT,
        "the crash allocated {alloc_ratio:.2}x the live heap after the bootstrap (bound {MAX_CRASH_ALLOC_OVER_BOOT}x)"
    );
}
