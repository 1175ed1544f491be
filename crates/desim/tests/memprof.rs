//! End-to-end tests of the tagged allocation profiler with [`MemProf`]
//! actually installed as the global allocator (which is why this is its own
//! integration-test binary — `#[global_allocator]` is process-wide).
//!
//! The unit tests inside `desim::memprof` exercise the registry, scopes and
//! side table directly; here real allocations flow through the tracking
//! wrapper. Every test uses the thread-local [`mark`]/[`since`] delta API,
//! so the tests stay independent even though the harness runs them
//! concurrently (each test thread owns its counters).

use desim::memprof::{self, MemProf, MemScope, MemTag};
use desim::{Fire, Sim, SimDuration};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOC: MemProf = MemProf;

#[test]
fn scoped_allocations_attribute_nested_and_restore() {
    memprof::enable();
    let m = memprof::mark();
    let outer = MemScope::enter("it.outer");
    let held: Vec<u8> = vec![0; 4096];
    {
        let _inner = MemScope::enter("it.inner");
        let tmp: Vec<u8> = vec![0; 1024];
        drop(tmp);
    }
    drop(outer);
    let snap = memprof::since(&m);
    let o = snap.get("it.outer").expect("outer tag recorded");
    assert_eq!(o.live_bytes, 4096, "held buffer still live under it.outer");
    assert_eq!(o.allocs, 1);
    assert_eq!(o.frees, 0);
    let i = snap.get("it.inner").expect("inner tag recorded");
    assert_eq!(i.live_bytes, 0, "inner buffer allocated and freed");
    assert_eq!(i.peak_bytes, 1024);
    assert_eq!(i.allocs, 1);
    assert_eq!(i.frees, 1);

    // The free of a block is charged to the tag that allocated it, even
    // when it happens outside any scope.
    drop(held);
    let snap = memprof::since(&m);
    let o = snap.get("it.outer").expect("outer tag still present");
    assert_eq!(o.live_bytes, 0);
    assert_eq!(o.peak_bytes, 4096);
    assert_eq!(o.frees, 1);
}

#[test]
fn vec_growth_reallocs_keep_the_original_owner() {
    memprof::enable();
    let m = memprof::mark();
    let mut v: Vec<u64>;
    {
        let _owner = MemScope::enter("it.grow.owner");
        v = Vec::with_capacity(4);
    }
    {
        // Growth happens here, under a different tag — the reallocs must
        // stay charged to the block's original owner.
        let _pusher = MemScope::enter("it.grow.pusher");
        for i in 0..1024u64 {
            v.push(i);
        }
    }
    assert_eq!(v.capacity(), 1024);
    let snap = memprof::since(&m);
    let o = snap.get("it.grow.owner").expect("owner tag recorded");
    assert_eq!(o.live_bytes, 1024 * 8);
    assert_eq!(o.allocs, 1);
    assert!(o.reallocs >= 1, "doubling growth goes through realloc");
    assert!(
        snap.get("it.grow.pusher").is_none_or(|p| p.allocs == 0),
        "the pushing scope allocated nothing of its own"
    );
}

#[test]
fn nested_growth_and_fresh_allocations_attribute_independently() {
    memprof::enable();
    let m = memprof::mark();
    let mut spine: Vec<Vec<u8>>;
    {
        let _s = MemScope::enter("it.nest.spine");
        spine = Vec::with_capacity(1);
    }
    {
        // Each push allocates a fresh leaf (charged here) and occasionally
        // reallocs the spine in the middle of that operation (charged to
        // the spine's owner): allocation inside an allocation.
        let _l = MemScope::enter("it.nest.leaves");
        for _ in 0..64 {
            spine.push(vec![1u8; 128]);
        }
    }
    let snap = memprof::since(&m);
    let leaves = snap.get("it.nest.leaves").expect("leaf tag recorded");
    assert_eq!(leaves.allocs, 64);
    assert_eq!(leaves.live_bytes, 64 * 128);
    let s = snap.get("it.nest.spine").expect("spine tag recorded");
    let elem = std::mem::size_of::<Vec<u8>>() as i64;
    assert_eq!(s.live_bytes, spine.capacity() as i64 * elem);
    assert!(s.reallocs >= 1);
}

#[test]
fn scope_default_defers_to_tagged_callers() {
    static SERVICE: MemTag = MemTag::new("it.svc");
    memprof::enable();
    let m = memprof::mark();
    {
        // A tagged caller wins: the service's default claim is a no-op.
        let _caller = MemScope::enter("it.svc.caller");
        let _d = memprof::scope_default(&SERVICE);
        let _buf: Vec<u8> = vec![0; 256];
    }
    {
        // No outer scope: the service claims its own allocations.
        let _d = memprof::scope_default(&SERVICE);
        let _buf: Vec<u8> = vec![0; 512];
    }
    let snap = memprof::since(&m);
    let caller = snap.get("it.svc.caller").expect("caller tag recorded");
    assert_eq!(caller.peak_bytes, 256);
    assert_eq!(caller.allocs, 1);
    let svc = snap.get("it.svc").expect("service tag recorded");
    assert_eq!(svc.peak_bytes, 512);
    assert_eq!(svc.allocs, 1);
}

#[test]
fn snapshot_serializes_and_tracks_this_binary() {
    memprof::enable();
    let m = memprof::mark();
    let before = memprof::total_allocs();
    {
        let _g = MemScope::enter("it.json");
        let _v: Vec<u8> = vec![0; 2048];
    }
    assert_eq!(memprof::total_allocs() - before, 1);
    let snap = memprof::since(&m);
    assert!(snap.get("it.json").is_some_and(|t| t.allocs >= 1));
    let j = snap.to_json();
    assert!(j.starts_with("{\"schema\":\"memprof-v1\""));
    assert!(desim::json::parse(&j).is_ok());
}

/// Allocate, grow and free `BLOCKS` blocks under `tag`, interleaving frees
/// so the side table sees tombstones, and return this thread's row for
/// `tag` over the body.
fn churn_blocks(tag: &'static str) -> (i64, i64, u64, u64, u64) {
    const BLOCKS: usize = 3000;
    let m = memprof::mark();
    {
        let _g = MemScope::enter(tag);
        let mut blocks: Vec<Vec<u64>> = (0..BLOCKS as u64).map(|i| vec![i; 2]).collect();
        for (i, b) in blocks.iter_mut().enumerate() {
            b.reserve_exact(16 + i % 64);
        }
        let odd: Vec<Vec<u64>> = blocks
            .iter_mut()
            .skip(1)
            .step_by(2)
            .map(std::mem::take)
            .collect();
        drop(odd);
        for b in blocks.iter_mut().step_by(2) {
            b.reserve_exact(256);
        }
    }
    let snap = memprof::since(&m);
    let t = snap.get(tag).expect("tag recorded");
    (t.live_bytes, t.peak_bytes, t.allocs, t.frees, t.reallocs)
}

#[test]
fn threads_sharing_the_side_table_each_count_what_they_alone_would() {
    const TAGS: [&str; 4] = ["it.share.0", "it.share.1", "it.share.2", "it.share.3"];
    memprof::enable();
    let alone = churn_blocks("it.share.alone");
    let (live, peak, allocs, frees, reallocs) = alone;
    assert_eq!(live, 0, "every block was freed inside the body");
    assert!(peak > 0 && allocs > 3000 && frees == allocs && reallocs >= 4500);

    let start = std::sync::Barrier::new(TAGS.len());
    let rows: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = TAGS
            .iter()
            .map(|&tag| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    churn_blocks(tag)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (tag, row) in TAGS.iter().zip(rows) {
        assert_eq!(row, alone, "{tag}: (live, peak, allocs, frees, reallocs)");
    }
}

/// Counts its events. Queued with `schedule_fire`, so an event allocates
/// nothing itself: what a burst allocates is the timer wheel's.
struct Tick(Cell<u64>);

impl Fire for Tick {
    fn fire(self: Rc<Self>, _arg: u32) {
        self.0.set(self.0.get() + 1);
    }
}

#[test]
fn timer_bursts_recycle_small_buffers_and_release_large_ones() {
    /// What the wheel may keep of a drained burst: 4096 entries of 40 B.
    const RETAINED: i64 = 4096 * 40;
    memprof::enable();
    let sim = Sim::new();
    let tick = Rc::new(Tick(Cell::new(0)));
    let burst = |n: u64| {
        let at = sim.now() + SimDuration::from_us(1);
        for _ in 0..n {
            sim.schedule_fire(at, tick.clone(), 0);
        }
        sim.run();
    };
    // Two rounds fill both the slot's buffer and the run's; after that the
    // pattern swaps them back and forth and allocates nothing.
    burst(1000);
    burst(1000);
    let m = memprof::mark();
    for _ in 0..50 {
        burst(1000);
    }
    assert_eq!(memprof::since(&m).total_allocs(), 0);

    let m = memprof::mark();
    burst(100_000);
    let wheel = memprof::since(&m);
    let wheel = wheel.get("desim.wheel").expect("the burst grew the wheel");
    assert!(wheel.peak_bytes >= 100_000 * 40, "{wheel:?}");
    assert!(wheel.live_bytes <= RETAINED, "burst buffer kept: {wheel:?}");
    assert_eq!(tick.0.get(), 152_000);
}
