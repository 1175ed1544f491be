//! Tagged allocation profiler — per-subsystem live/peak bytes with no
//! external dependencies.
//!
//! [`MemProf`] is a tracking [`GlobalAlloc`] wrapper around [`System`]. A
//! binary opts in by installing it as its global allocator and calling
//! [`enable`]; until then (and in every binary that never installs it) the
//! profiler costs nothing. With the wrapper installed but **disabled** —
//! the production default — every allocation pays exactly one relaxed
//! atomic load, and the warm-path allocation-freedom goldens remain valid
//! (`torus5d/tests/alloc_free.rs` is built on this module).
//!
//! Attribution works through a thread-local **scope-tag stack**: code brackets
//! an allocation region with [`MemScope::enter`] (or the cheaper
//! [`scope`]/[`MemTag`] pair on warm paths) and every allocation made while
//! the scope is alive is charged to that tag. Frees are charged to the tag
//! that allocated the block — a process-wide pointer→tag side table of
//! locked shards remembers the owner (the table's own memory is not
//! tracked, so the profiler never recurses into itself), and a block
//! allocated while the profiler was disabled is simply skipped on free,
//! which makes enable/disable transitions safe at any point.
//!
//! Counters are kept per thread and read through the [`mark`]/[`since`]
//! delta API ([`total_allocs`] reads the same counters in place). A block
//! freed on another thread is charged to the freeing thread, under the tag
//! of the thread that allocated it. A simulation runs entirely on one
//! thread, so bracketing it with `mark`/`since` yields per-run accounting
//! that is byte-identical no matter how many sweep workers run other
//! simulations concurrently (`--jobs` invariance).
//!
//! Snapshots serialize as fixed-order `memprof-v1` JSON
//! ([`MemSnapshot::to_json`]). Determinism caveat: *virtual-time results
//! never depend on this module* (it only observes), and per-run byte counts
//! are deterministic for a fixed binary, but absolute counts may drift
//! across compiler versions — perf gates on them use a loose tolerance
//! while schemas and growth classes gate exactly (see `fig_mem`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::time::SimTime;
use crate::timeline::{SeriesKind, Timeline};

/// Maximum number of distinct tags (including the implicit `untagged`
/// bucket). Registration past the cap falls back to `untagged` rather than
/// failing — the taxonomy is meant to stay small and curated.
pub const MAX_TAGS: usize = 32;

const UNTAGGED: u16 = 0;
const UNTAGGED_NAME: &str = "untagged";

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on. Only meaningful in binaries that installed
/// [`MemProf`] as their `#[global_allocator]`; harmless elsewhere.
pub fn enable() {
    intern(UNTAGGED_NAME);
    ENABLED.store(true, Release);
}

/// Turn the profiler off. Blocks freed later are skipped (their tags were
/// recorded, but accounting is gated), so disabling mid-run never corrupts
/// counters.
pub fn disable() {
    ENABLED.store(false, Release);
}

/// True while the profiler is recording. One relaxed load — this is the
/// entire disabled-path cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

// ---------------------------------------------------------------------------
// Tag registry: append-only interning of &'static str names
// ---------------------------------------------------------------------------

static TAG_NAMES: [OnceLock<&'static str>; MAX_TAGS] = [const { OnceLock::new() }; MAX_TAGS];
static REG_LOCK: Mutex<()> = Mutex::new(());

/// Name of interned tag `i < tag_count()`.
fn tag_name(i: usize) -> &'static str {
    TAG_NAMES[i]
        .get()
        .expect("tags below tag_count() are named")
}

/// The interned names, in id order.
fn names() -> impl Iterator<Item = &'static str> {
    TAG_NAMES.iter().map_while(|n| n.get().copied())
}

/// Number of tags interned so far (0 until the first [`enable`]/intern).
pub fn tag_count() -> usize {
    names().count()
}

/// Intern `name`, returning its stable tag id. Never called from inside the
/// allocator; the slow path takes a mutex but allocates nothing.
fn intern(name: &'static str) -> u16 {
    let find = || names().position(|n| n == name);
    if let Some(i) = find() {
        return i as u16;
    }
    let _g = REG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Slot 0 is always the untagged bucket.
    let _ = TAG_NAMES[0].set(UNTAGGED_NAME);
    if let Some(i) = find() {
        return i as u16;
    }
    let n = tag_count();
    if n >= MAX_TAGS {
        return UNTAGGED;
    }
    let _ = TAG_NAMES[n].set(name);
    n as u16
}

// ---------------------------------------------------------------------------
// Per-tag statistics, per thread
// ---------------------------------------------------------------------------

/// Thread-local per-tag counters. `Cell` arrays with const initializers:
/// no lazy init and no destructor, so touching them from inside the
/// allocator can neither allocate nor re-enter.
struct TlStats {
    live: [Cell<i64>; MAX_TAGS],
    peak: [Cell<i64>; MAX_TAGS],
    allocs: [Cell<u64>; MAX_TAGS],
    frees: [Cell<u64>; MAX_TAGS],
    reallocs: [Cell<u64>; MAX_TAGS],
}

thread_local! {
    static TLS: TlStats = const {
        TlStats {
            live: [const { Cell::new(0) }; MAX_TAGS],
            peak: [const { Cell::new(0) }; MAX_TAGS],
            allocs: [const { Cell::new(0) }; MAX_TAGS],
            frees: [const { Cell::new(0) }; MAX_TAGS],
            reallocs: [const { Cell::new(0) }; MAX_TAGS],
        }
    };
    static CUR_TAG: Cell<u16> = const { Cell::new(UNTAGGED) };
}

#[inline]
fn cur_tag() -> u16 {
    CUR_TAG.try_with(|c| c.get()).unwrap_or(UNTAGGED)
}

// ---------------------------------------------------------------------------
// Scope tags
// ---------------------------------------------------------------------------

/// RAII guard charging allocations on this thread to a tag until dropped.
/// Scopes nest: the constructor saves the previous tag and `Drop` restores
/// it, so inner subsystems override outer ones and hand attribution back.
pub struct MemScope {
    prev: u16,
    // Scopes guard a *thread's* tag stack; sending one across threads would
    // restore the wrong thread's state.
    _not_send: PhantomData<*const ()>,
}

impl MemScope {
    /// Enter a scope by tag name (interned on first use). Fine for cold
    /// sites; warm paths should hold a [`MemTag`] and use [`scope`].
    pub fn enter(name: &'static str) -> MemScope {
        Self::with_id(intern(name))
    }

    #[inline]
    fn with_id(id: u16) -> MemScope {
        let prev = CUR_TAG.with(|c| c.replace(id));
        MemScope {
            prev,
            _not_send: PhantomData,
        }
    }
}

impl Drop for MemScope {
    #[inline]
    fn drop(&mut self) {
        let _ = CUR_TAG.try_with(|c| c.set(self.prev));
    }
}

/// A pre-declared tag for warm instrumentation sites: interned once, cached
/// in an atomic, so [`scope`] costs one relaxed load when the profiler is
/// enabled and exactly one when it is not.
pub struct MemTag {
    name: &'static str,
    id: AtomicU32,
}

impl MemTag {
    /// Declare a tag (usually as a `static`). Interning is deferred to the
    /// first [`scope`] hit while enabled.
    pub const fn new(name: &'static str) -> MemTag {
        MemTag {
            name,
            id: AtomicU32::new(u32::MAX),
        }
    }

    #[inline]
    fn id(&self) -> u16 {
        let v = self.id.load(Relaxed);
        if v != u32::MAX {
            return v as u16;
        }
        let id = intern(self.name);
        self.id.store(id as u32, Relaxed);
        id
    }
}

/// Enter `tag`'s scope only while the profiler is enabled. This is the warm
/// path idiom — `let _g = memprof::scope(&TAG);` — whose disabled cost is a
/// single relaxed atomic load and branch.
#[inline]
pub fn scope(tag: &'static MemTag) -> Option<MemScope> {
    if !enabled() {
        return None;
    }
    Some(MemScope::with_id(tag.id()))
}

/// Like [`scope`], but only claims the allocations if no outer scope already
/// did — the idiom for shared low-level services (e.g. the kernel's boxed
/// timer callbacks) that should default-attribute to themselves while letting
/// a tagged caller keep the attribution.
#[inline]
pub fn scope_default(tag: &'static MemTag) -> Option<MemScope> {
    if !enabled() || cur_tag() != UNTAGGED {
        return None;
    }
    Some(MemScope::with_id(tag.id()))
}

// ---------------------------------------------------------------------------
// Pointer → tag side table (64 locked shards, untracked)
// ---------------------------------------------------------------------------

const SHARDS: usize = 64;
const SLOT_EMPTY: usize = 0;
const SLOT_TOMB: usize = 1;

/// `Entry::default()` is an empty slot (`ptr == SLOT_EMPTY`).
#[derive(Clone, Copy, Default)]
struct Entry {
    ptr: usize,
    tag: u16,
}

/// One shard: open addressing with linear probing and tombstones, grown
/// (doubled, at least 1024 slots) past ¾ load. Not a `HashMap`, which made
/// the memprof-on `fig_scale` sweep 22 % slower (DESIGN §14).
struct Table {
    slots: Vec<Entry>,
    len: usize,
    tombs: usize,
}

static SIDE: [Mutex<Table>; SHARDS] = [const {
    Mutex::new(Table {
        slots: Vec::new(),
        len: 0,
        tombs: 0,
    })
}; SHARDS];

thread_local! {
    /// Set while this thread holds a shard: the table's own `Vec` growth
    /// then goes to [`System`] untracked, so the profiler neither records
    /// its bookkeeping nor re-enters a shard it holds.
    static IN_SIDE: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn mix(ptr: usize) -> u64 {
    ((ptr as u64) >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run `f` on `ptr`'s shard, locked, with [`IN_SIDE`] set.
fn with_shard<R>(ptr: usize, f: impl FnOnce(&mut Table) -> R) -> R {
    let mut table = SIDE[(mix(ptr) >> 58) as usize]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    IN_SIDE.set(true);
    let r = f(&mut table);
    IN_SIDE.set(false);
    r
}

impl Table {
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![Entry::default(); cap]);
        self.len = 0;
        self.tombs = 0;
        // At most ⅜ full afterwards, so no insert here grows again.
        for e in old {
            if e.ptr > SLOT_TOMB {
                self.insert(e.ptr, e.tag);
            }
        }
    }

    fn insert(&mut self, ptr: usize, tag: u16) {
        if (self.len + self.tombs + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(ptr) as usize & mask;
        let mut free: Option<usize> = None;
        loop {
            match self.slots[i].ptr {
                SLOT_EMPTY => {
                    let j = free.unwrap_or(i);
                    if free.is_some() {
                        self.tombs -= 1;
                    }
                    self.slots[j] = Entry { ptr, tag };
                    self.len += 1;
                    return;
                }
                SLOT_TOMB if free.is_none() => {
                    free = Some(i);
                }
                p if p == ptr => {
                    // Same address re-allocated: overwrite the stale owner.
                    self.slots[i].tag = tag;
                    return;
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, ptr: usize) -> Option<u16> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = mix(ptr) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            match slot.ptr {
                SLOT_EMPTY => return None,
                p if p == ptr => {
                    slot.ptr = SLOT_TOMB;
                    self.len -= 1;
                    self.tombs += 1;
                    return Some(slot.tag);
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }
}

fn side_insert(ptr: usize, tag: u16) {
    with_shard(ptr, |t| t.insert(ptr, tag));
}

fn side_remove(ptr: usize) -> Option<u16> {
    with_shard(ptr, |t| t.remove(ptr))
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// True when this allocator call should be recorded: the profiler is on
/// (tested first, so the disabled path stays one relaxed load) and the call
/// is not the side table's own.
#[inline]
fn recording() -> bool {
    enabled() && !IN_SIDE.get()
}

fn bump(tag: u16, delta: i64, count: impl FnOnce(&TlStats) -> &[Cell<u64>; MAX_TAGS]) {
    let t = tag as usize;
    let _ = TLS.try_with(|s| {
        let live = s.live[t].get() + delta;
        s.live[t].set(live);
        if live > s.peak[t].get() {
            s.peak[t].set(live);
        }
        let n = &count(s)[t];
        n.set(n.get() + 1);
    });
}

fn track_alloc(ptr: usize, size: usize) {
    let tag = cur_tag();
    side_insert(ptr, tag);
    bump(tag, size as i64, |s| &s.allocs);
}

fn track_free(ptr: usize, size: usize) {
    // Unknown pointer ⇒ allocated while disabled ⇒ never counted: skip, so
    // enable/disable transitions cannot drive live counts negative.
    let Some(tag) = side_remove(ptr) else { return };
    bump(tag, -(size as i64), |s| &s.frees);
}

/// Account a `realloc` of `old` (whose side-table entry `owner` was taken
/// out *before* the block moved, so no other thread can have claimed its
/// address yet) that returned `new_ptr`.
fn track_realloc(owner: Option<u16>, old: usize, new_ptr: usize, old_size: usize, new_size: usize) {
    match (owner, new_ptr) {
        // Failed: the old block is still live and still its owner's.
        (Some(tag), 0) => side_insert(old, tag),
        (None, 0) => {}
        (Some(tag), _) => {
            // Grown/shrunk in place or moved: the block keeps its owner.
            side_insert(new_ptr, tag);
            bump(tag, new_size as i64 - old_size as i64, |s| &s.reallocs);
        }
        // Block from before enable(): start tracking it now, as an alloc
        // of the full new size under the current tag.
        (None, _) => track_alloc(new_ptr, new_size),
    }
}

// ---------------------------------------------------------------------------
// The GlobalAlloc wrapper
// ---------------------------------------------------------------------------

/// The tracking allocator. Install per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: desim::memprof::MemProf = desim::memprof::MemProf;
/// ```
///
/// Until [`enable`] runs, every operation forwards to [`System`] after one
/// relaxed atomic load.
pub struct MemProf;

// SAFETY: every method forwards its arguments unchanged to `System` under
// the caller's contract and returns `System`'s result; the bookkeeping
// around the call only reads the pointer values, never the memory.
unsafe impl GlobalAlloc for MemProf {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc(l) };
        if recording() && !p.is_null() {
            track_alloc(p as usize, l.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc_zeroed(l) };
        if recording() && !p.is_null() {
            track_alloc(p as usize, l.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        if recording() {
            track_free(p as usize, l.size());
        }
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        let owner = recording().then(|| side_remove(p as usize));
        // SAFETY: forwarded contract.
        let q = unsafe { System.realloc(p, l, new_size) };
        if let Some(owner) = owner {
            track_realloc(owner, p as usize, q as usize, l.size(), new_size);
        }
        q
    }
}

// ---------------------------------------------------------------------------
// Marks, snapshots, JSON
// ---------------------------------------------------------------------------

/// A thread-local baseline taken by [`mark`]; feed it to [`since`] for
/// exact per-run deltas. Taking a mark also resets this thread's per-tag
/// peak watermarks to the current live level, so `since` reports the peak
/// *above the mark*. One active mark per thread at a time.
pub struct MemMark {
    live: [i64; MAX_TAGS],
    allocs: [u64; MAX_TAGS],
    frees: [u64; MAX_TAGS],
    reallocs: [u64; MAX_TAGS],
}

/// Record this thread's current per-tag counters as a delta baseline.
pub fn mark() -> MemMark {
    TLS.with(|s| {
        for (peak, live) in s.peak.iter().zip(&s.live) {
            peak.set(live.get());
        }
        let get = |c: &[Cell<u64>; MAX_TAGS]| c.each_ref().map(Cell::get);
        MemMark {
            live: s.live.each_ref().map(Cell::get),
            allocs: get(&s.allocs),
            frees: get(&s.frees),
            reallocs: get(&s.reallocs),
        }
    })
}

/// Per-tag statistics in a [`MemSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagStats {
    /// The scope-tag name (`"untagged"` for unattributed allocations).
    pub name: &'static str,
    /// Net live bytes (for [`since`]: the delta over the mark; may be
    /// negative when a run frees blocks allocated before its mark).
    pub live_bytes: i64,
    /// Peak live bytes (for [`since`]: peak *above* the mark baseline).
    pub peak_bytes: i64,
    /// Allocation count.
    pub allocs: u64,
    /// Free count.
    pub frees: u64,
    /// Reallocation count.
    pub reallocs: u64,
}

/// A fixed-order (sorted by tag name) snapshot of per-tag statistics;
/// serializes as `memprof-v1` JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Per-tag rows, sorted by name; tags with all-zero stats are omitted.
    pub tags: Vec<TagStats>,
}

impl MemSnapshot {
    /// Look up one tag's row.
    pub fn get(&self, name: &str) -> Option<&TagStats> {
        self.tags.iter().find(|t| t.name == name)
    }

    /// Sum of `allocs` over every tag.
    pub fn total_allocs(&self) -> u64 {
        self.tags.iter().map(|t| t.allocs).sum()
    }

    /// Serialize as a deterministic `memprof-v1` JSON document: tags in
    /// sorted name order, fixed field order.
    pub fn to_json(&self) -> String {
        use crate::json::push_str;
        let mut o = String::from("{\"schema\":\"memprof-v1\",\"tags\":{");
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            push_str(&mut o, t.name);
            o.push_str(&format!(
                ":{{\"live_bytes\":{},\"peak_bytes\":{},\"allocs\":{},\"frees\":{},\"reallocs\":{}}}",
                t.live_bytes, t.peak_bytes, t.allocs, t.frees, t.reallocs
            ));
        }
        o.push_str("}}");
        o
    }
}

fn build_snapshot(mut row: impl FnMut(usize) -> TagStats) -> MemSnapshot {
    let n = tag_count();
    let mut tags: Vec<TagStats> = (0..n)
        .map(&mut row)
        .filter(|t| {
            t.live_bytes != 0
                || t.peak_bytes != 0
                || t.allocs != 0
                || t.frees != 0
                || t.reallocs != 0
        })
        .collect();
    tags.sort_by(|a, b| a.name.cmp(b.name));
    MemSnapshot { tags }
}

/// Exact per-run deltas on this thread since `m` was [`mark`]ed.
pub fn since(m: &MemMark) -> MemSnapshot {
    TLS.with(|s| {
        build_snapshot(|i| TagStats {
            name: tag_name(i),
            live_bytes: s.live[i].get() - m.live[i],
            peak_bytes: (s.peak[i].get() - m.live[i]).max(0),
            allocs: s.allocs[i].get() - m.allocs[i],
            frees: s.frees[i].get() - m.frees[i],
            reallocs: s.reallocs[i].get() - m.reallocs[i],
        })
    })
}

/// Total allocation calls (alloc + alloc_zeroed + realloc) recorded on this
/// thread — the counting-allocator primitive behind
/// `torus5d/tests/alloc_free.rs`'s zero-allocations-on-warm-path assertion.
/// Reads the counters in place: it allocates nothing itself.
pub fn total_allocs() -> u64 {
    TLS.with(|s| {
        s.allocs
            .iter()
            .zip(&s.reallocs)
            .map(|(a, r)| a.get() + r.get())
            .sum()
    })
}

// ---------------------------------------------------------------------------
// Timeline bridge: mem.live_bytes.<tag> gauges over virtual time
// ---------------------------------------------------------------------------

/// Record one `mem.live_bytes.<tag>` gauge sample per touched tag at
/// virtual time `at`, from this thread's live counters. `ids` caches the
/// interned series handles across calls (index = tag id). No-op unless both
/// the profiler and `tl` are enabled, so default timeline runs (and their
/// zero-tolerance goldens) never see these series.
pub fn record_live_gauges(tl: &Timeline, at: SimTime, ids: &mut Vec<Option<usize>>) {
    if !enabled() || !tl.on() {
        return;
    }
    let n = tag_count();
    if ids.len() < n {
        let _g = MemScope::enter("desim.timeline");
        ids.resize(n, None);
    }
    TLS.with(|s| {
        for (i, id) in ids.iter_mut().enumerate().take(n) {
            if s.allocs[i].get() == 0 && s.live[i].get() == 0 {
                continue;
            }
            if id.is_none() {
                let _g = MemScope::enter("desim.timeline");
                let name = format!("mem.live_bytes.{}", tag_name(i));
                *id = Some(tl.series(&name, SeriesKind::Gauge));
            }
            tl.gauge(id.unwrap(), at, s.live[i].get());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The wrapper is not installed as this test binary's global allocator,
    // so these tests exercise the registry/scope/snapshot machinery and the
    // side table directly; end-to-end allocator tests live in the dedicated
    // integration-test binaries (they need #[global_allocator]).

    #[test]
    fn interning_is_stable_and_reserves_untagged() {
        let a = intern("test.alpha");
        let b = intern("test.beta");
        let a2 = intern("test.alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, UNTAGGED);
        assert_eq!(tag_name(UNTAGGED as usize), "untagged");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = MemScope::enter("test.outer");
        let outer_id = cur_tag();
        {
            let _inner = MemScope::enter("test.inner");
            assert_ne!(cur_tag(), outer_id);
        }
        assert_eq!(cur_tag(), outer_id);
        drop(outer);
        assert_eq!(cur_tag(), UNTAGGED);
    }

    #[test]
    fn side_table_tracks_inserts_removes_and_reuse() {
        // Synthetic pointers: non-zero, 16-aligned, unique to this test.
        let base = 0xABCD_0000usize;
        for k in 0..3000usize {
            side_insert(base + k * 16, (k % 7) as u16);
        }
        for k in 0..3000usize {
            assert_eq!(side_remove(base + k * 16), Some((k % 7) as u16));
        }
        assert_eq!(side_remove(base), None, "double free is a skip");
        // Tombstone reuse: re-insert over the freed range.
        side_insert(base, 3);
        assert_eq!(side_remove(base), Some(3));
    }

    #[test]
    fn accounting_and_snapshot_deltas() {
        let tag = intern("test.acct");
        let m = mark();
        bump(tag, 1000, |s| &s.allocs);
        bump(tag, 500, |s| &s.allocs);
        // Simulate a free of the 500-byte block.
        bump(tag, -500, |s| &s.frees);
        let snap = since(&m);
        let row = snap.get("test.acct").expect("tag recorded");
        assert_eq!(row.live_bytes, 1000);
        assert_eq!(row.peak_bytes, 1500);
        assert_eq!(row.allocs, 2);
        assert_eq!(row.frees, 1);
        // A fresh mark resets the watermark.
        let m2 = mark();
        let snap2 = since(&m2);
        assert!(snap2.get("test.acct").is_none_or(|r| r.peak_bytes == 0));
    }

    #[test]
    fn json_is_fixed_order() {
        let snap = MemSnapshot {
            tags: vec![
                TagStats {
                    name: "a.x",
                    live_bytes: 5,
                    peak_bytes: 9,
                    allocs: 2,
                    frees: 1,
                    reallocs: 0,
                },
                TagStats {
                    name: "b.y",
                    live_bytes: -3,
                    peak_bytes: 0,
                    allocs: 0,
                    frees: 1,
                    reallocs: 0,
                },
            ],
        };
        let j = snap.to_json();
        assert_eq!(
            j,
            "{\"schema\":\"memprof-v1\",\"tags\":{\"a.x\":{\"live_bytes\":5,\
             \"peak_bytes\":9,\"allocs\":2,\"frees\":1,\"reallocs\":0},\
             \"b.y\":{\"live_bytes\":-3,\"peak_bytes\":0,\"allocs\":0,\
             \"frees\":1,\"reallocs\":0}}}"
        );
        assert!(crate::json::parse(&j).is_ok());
        assert_eq!(snap.total_allocs(), 2);
    }
}
