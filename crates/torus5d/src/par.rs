//! Parallel batch delivery: execute a pre-generated message schedule across
//! N worker shards with results byte-identical to the serial delivery loop.
//!
//! # Why sequence tickets, not time windows
//!
//! The serial engine ([`NetState::try_deliver_op`] in a loop) is a state
//! machine: injection-FIFO fronts (`tx_busy`), link reservations
//! (`link_busy`) and pair-order fronts (`pair_last`) are all updated in
//! *schedule order*, and contended link grants couple messages that are
//! minutes of virtual time apart. Lookahead windows alone therefore cannot
//! reproduce the serial output byte-for-byte — two messages in the same
//! window may contend for a link, and their grant order must match the
//! schedule, not the clock. Instead the batch engine turns the schedule
//! position into an explicit dependency graph:
//!
//! * **Source shards** (`src % workers`): each worker computes injection-FIFO
//!   starts for its sources' messages in schedule order — exactly the
//!   per-source subsequence of the serial update order, which is all the
//!   serial engine's `tx_busy[src]` ever observes.
//! * **Link shards** (`link % workers`): every directed link has a queue of
//!   `(message, hop-position)` reservations in schedule order. A worker
//!   grants its links' queue heads as soon as the message's head has cleared
//!   the previous hop (published through a per-message `(head, stage)` atom
//!   pair), reproducing the serial wormhole walk grant-for-grant.
//! * **Arrival shards** (same as source shards): payload serialization and
//!   the pair-order clamp are per-source-keyed, again in schedule order.
//!
//! The serial execution order is a topological order of this graph (edges go
//! from lower schedule index to higher, and along each route), so the
//! dataflow can never deadlock; workers that are momentarily blocked yield
//! rather than spin, which keeps a 1-core container livelock-free. The
//! conservative *time-windowed* machinery lives one layer up, in
//! [`desim::par::ParSim`] — rank-level simulations use windows to batch
//! cross-shard synchronization; this module is the network-level engine
//! those windows delegate batches to.
//!
//! # Determinism and the merge
//!
//! After the dataflow drains, per-shard state merges back into the
//! [`NetState`] in a fixed order: `tx_busy`/`pair_last` fronts ascending by
//! key, link reservations and occupancy ascending by [`crate::LinkId`] (each
//! link is owned by exactly one worker, so these are plain moves), and the
//! message/byte counters as sums. Every merged value equals the serial
//! value, so a serial delivery *after* a parallel batch continues
//! byte-identically — asserted by `tests/par_net.rs`.
//!
//! `--workers 1` (and any configuration with a per-delivery observer
//! attached: fault plan, flight recorder, timeline) bypasses all of this and
//! runs the untouched serial hot path — zero warm-delivery allocations,
//! pinned by `tests/alloc_free.rs`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use desim::memprof::{self, MemTag};
use desim::time::{SimDuration, SimTime};

use crate::fxmap::FxMap64;
use crate::net::{Delivery, MsgClass, NetState};

/// Schedule construction and the batch dataflow's transient state.
static BATCH_TAG: MemTag = MemTag::new("torus5d.batch");

/// One pre-scheduled message for [`deliver_batch`].
#[derive(Debug, Clone, Copy)]
pub struct NetMsg {
    /// Injection time (the serial loop's `inject` argument).
    pub inject: SimTime,
    /// Source rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Payload bytes.
    pub payload: u32,
    /// Ordering class.
    pub class: MsgClass,
}

/// Aggregate result of a batch delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOut {
    /// Messages delivered (drops by an installed fault plan are excluded —
    /// only possible on the serial fallback path).
    pub delivered: u64,
    /// Latest arrival time across the batch ([`SimTime::ZERO`] if empty).
    pub last_arrival: SimTime,
}

/// Deliver a message schedule through `net`, fanned across `workers` shards.
///
/// Results (arrival times, counters, link utilization, and every byte of
/// post-batch `NetState`) are identical for any worker count. `workers <= 1`
/// — or any network with a per-delivery observer attached (fault plan,
/// flight recorder, timeline) — runs the serial loop unchanged.
pub fn deliver_batch(net: &mut NetState, msgs: &[NetMsg], workers: usize) -> BatchOut {
    if use_serial(net, workers) {
        deliver_batch_serial(net, msgs, None)
    } else {
        deliver_batch_parallel(net, msgs, workers, None)
    }
}

/// [`deliver_batch`], additionally returning every message's arrival time in
/// schedule order (a message dropped by a fault plan — serial fallback only —
/// reports [`SimTime::MAX`]). Used by the differential test suite.
pub fn deliver_batch_arrivals(
    net: &mut NetState,
    msgs: &[NetMsg],
    workers: usize,
) -> (BatchOut, Vec<SimTime>) {
    let mut arrivals = vec![SimTime::MAX; msgs.len()];
    let out = if use_serial(net, workers) {
        deliver_batch_serial(net, msgs, Some(&mut arrivals))
    } else {
        deliver_batch_parallel(net, msgs, workers, Some(&mut arrivals))
    };
    (out, arrivals)
}

/// The parallel dataflow supports exactly the observer-free configuration;
/// everything else keeps the serial loop (which supports everything).
fn use_serial(net: &NetState, workers: usize) -> bool {
    workers <= 1 || net.faults_installed() || net.watched()
}

/// The serial fallback: the exact per-message hot path, no staging state.
fn deliver_batch_serial(
    net: &mut NetState,
    msgs: &[NetMsg],
    mut arrivals: Option<&mut [SimTime]>,
) -> BatchOut {
    let mut delivered = 0u64;
    let mut last = SimTime::ZERO;
    for (i, m) in msgs.iter().enumerate() {
        match net.try_deliver_op(
            m.inject,
            m.src as usize,
            m.dst as usize,
            m.payload as usize,
            m.class,
            None,
        ) {
            Delivery::Delivered(at) => {
                delivered += 1;
                if at > last {
                    last = at;
                }
                if let Some(out) = arrivals.as_deref_mut() {
                    out[i] = at;
                }
            }
            Delivery::Dropped { .. } => {}
        }
    }
    BatchOut {
        delivered,
        last_arrival: last,
    }
}

/// Per-owned-link reservation queue: a slice `lo..hi` of the flat entry
/// array plus the link's running busy front and utilization delta.
struct LinkQ {
    li: u32,
    lo: u32,
    hi: u32,
    cur: u32,
    busy: u64,
    util: u64,
}

/// Everything one worker owns: its sources' messages (schedule order), the
/// seeded source-keyed fronts, and its link queues.
struct ShardTask {
    mine: Vec<u32>,
    tx: FxMap64<SimTime>,
    pair: FxMap64<SimTime>,
    links: Vec<LinkQ>,
}

/// What a worker hands back for the deterministic merge.
struct ShardOut {
    tx: Vec<(u64, u64)>,
    pair: Vec<(u64, u64)>,
    links: Vec<(u32, u64, u64)>,
    arrivals: Vec<(u32, u64)>,
    last: u64,
    bytes: u64,
}

/// Hop position sentinel: "phase 1 has not published this message yet".
const STAGE_UNSET: u32 = u32::MAX;

fn deliver_batch_parallel(
    net: &mut NetState,
    msgs: &[NetMsg],
    workers: usize,
    arrivals_out: Option<&mut [SimTime]>,
) -> BatchOut {
    let _mem = memprof::scope(&BATCH_TAG);
    let n = msgs.len();
    let hop_ps = net.params.hop_latency.as_ps();
    let base_ps = net.params.base_latency.as_ps();
    let intra_ps = net.params.intranode_latency.as_ps();
    let contention = net.contention;
    let track = net.track_links;

    // ---- Serial prep: routes, per-message constants, link queues. -------
    let mut wire: Vec<u64> = Vec::with_capacity(n);
    let mut head_add: Vec<u64> = Vec::with_capacity(n);
    let mut expect: Vec<u32> = Vec::with_capacity(n);
    let mut spans: Vec<(u32, u16)> = Vec::with_capacity(n);
    let nlinks = net.rt.num_link_ids();
    let mut counts: Vec<u32> = if contention {
        vec![0; nlinks]
    } else {
        Vec::new()
    };
    for m in msgs {
        // Endpoints resolved once per message, as in the serial core.
        let ranks = net.rt.ranks();
        let (sn, dn) = (ranks.node_of(m.src as usize), ranks.node_of(m.dst as usize));
        let payload = m.payload as usize;
        if sn == dn {
            wire.push(net.params.intranode_time(payload).as_ps());
            head_add.push(intra_ps);
            expect.push(0);
            spans.push((0, 0));
        } else if contention {
            let (off, len) = net.rt.route_span(sn, dn);
            wire.push(net.params.wire_time(payload).as_ps());
            head_add.push(base_ps);
            expect.push(u32::from(len));
            spans.push((off, len));
            for i in off..off + u32::from(len) {
                counts[net.rt.link_at(i).0 as usize] += 1;
            }
        } else {
            let wire_t = net.params.wire_time(payload);
            wire.push(wire_t.as_ps());
            head_add.push(net.params.oneway_header(ranks.node_hops(sn, dn)).as_ps());
            expect.push(0);
            spans.push((0, 0));
            // Analytic-mode link accounting is a pure commutative sum, so it
            // runs right here on the serial prep pass — the workers then
            // never touch the link array at all in analytic mode.
            if track {
                let (off, len) = net.rt.route_span(sn, dn);
                let add = net.params.hop_latency + wire_t;
                for i in off..off + u32::from(len) {
                    net.links[net.rt.link_at(i).0 as usize].occupy(add);
                }
            }
        }
    }
    // Flat per-link queues in schedule order (counting sort by link id).
    let mut qstart: Vec<u32> = Vec::new();
    let mut entries: Vec<(u32, u16)> = Vec::new();
    if contention {
        qstart = Vec::with_capacity(nlinks + 1);
        let mut acc = 0u32;
        for &c in &counts {
            qstart.push(acc);
            acc += c;
        }
        qstart.push(acc);
        entries = vec![(0u32, 0u16); acc as usize];
        let mut cursor: Vec<u32> = qstart[..nlinks].to_vec();
        for (i, &(off, len)) in spans.iter().enumerate() {
            if expect[i] == 0 {
                continue;
            }
            for pos in 0..u32::from(len) {
                let li = net.rt.link_at(off + pos).0 as usize;
                entries[cursor[li] as usize] = (i as u32, pos as u16);
                cursor[li] += 1;
            }
        }
    }
    // Shard assignment and seeded per-shard fronts.
    let mut tasks: Vec<ShardTask> = (0..workers)
        .map(|_| ShardTask {
            mine: Vec::new(),
            tx: FxMap64::new(),
            pair: FxMap64::new(),
            links: Vec::new(),
        })
        .collect();
    for (i, m) in msgs.iter().enumerate() {
        let w = (m.src as usize) % workers;
        tasks[w].mine.push(i as u32);
        if m.class == MsgClass::Ordered {
            let key = m.src as u64;
            if tasks[w].tx.get(key).is_none() {
                tasks[w]
                    .tx
                    .insert(key, net.tx_busy.get(key).unwrap_or(SimTime::ZERO));
            }
        }
        if m.class != MsgClass::Unordered {
            let key = (u64::from(m.src) << 32) | u64::from(m.dst);
            if tasks[w].pair.get(key).is_none() {
                tasks[w]
                    .pair
                    .insert(key, net.pair_last.get(key).unwrap_or(SimTime::ZERO));
            }
        }
    }
    if contention {
        for li in 0..nlinks {
            if counts[li] > 0 {
                tasks[li % workers].links.push(LinkQ {
                    li: li as u32,
                    lo: qstart[li],
                    hi: qstart[li + 1],
                    cur: qstart[li],
                    busy: net.links[li].busy.as_ps(),
                    util: 0,
                });
            }
        }
    }

    // ---- The dataflow: per-message (head, stage) atoms. -----------------
    let head: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let stage: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(STAGE_UNSET)).collect();
    let outs: Vec<ShardOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let (head, stage) = (&head, &stage);
                let (wire, head_add, expect, entries) = (&wire, &head_add, &expect, &entries);
                scope.spawn(move || {
                    run_shard(
                        task, msgs, wire, head_add, expect, entries, head, stage, hop_ps,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ---- Deterministic merge, ascending by key / LinkId. ----------------
    let mut tx_merge: Vec<(u64, u64)> = Vec::new();
    let mut pair_merge: Vec<(u64, u64)> = Vec::new();
    let mut link_merge: Vec<(u32, u64, u64)> = Vec::new();
    let mut last = 0u64;
    let mut bytes = 0u64;
    for out in &outs {
        tx_merge.extend_from_slice(&out.tx);
        pair_merge.extend_from_slice(&out.pair);
        link_merge.extend_from_slice(&out.links);
        last = last.max(out.last);
        bytes += out.bytes;
    }
    tx_merge.sort_unstable_by_key(|&(k, _)| k);
    pair_merge.sort_unstable_by_key(|&(k, _)| k);
    link_merge.sort_unstable_by_key(|&(li, _, _)| li);
    for (k, t) in tx_merge {
        *net.tx_busy.entry(k) = SimTime(t);
    }
    for (k, t) in pair_merge {
        *net.pair_last.entry(k) = SimTime(t);
    }
    for (li, busy, util) in link_merge {
        let li = li as usize;
        net.links[li].busy = SimTime(busy);
        net.links[li].occupy(SimDuration(util));
    }
    net.messages += n as u64;
    net.bytes += bytes;
    if let Some(out) = arrivals_out {
        for shard in &outs {
            for &(i, at) in &shard.arrivals {
                out[i as usize] = SimTime(at);
            }
        }
    }
    BatchOut {
        delivered: n as u64,
        last_arrival: SimTime(last),
    }
}

/// One worker: injection starts for owned sources (phase 1), grants for
/// owned links (phase 2), arrivals + pair clamps for owned sources
/// (phase 3). No barriers — the `(head, stage)` atoms are the only
/// synchronization, and the schedule order is a topological order of their
/// dependency graph, so progress is always possible somewhere.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    mut task: ShardTask,
    msgs: &[NetMsg],
    wire: &[u64],
    head_add: &[u64],
    expect: &[u32],
    entries: &[(u32, u16)],
    head: &[AtomicU64],
    stage: &[AtomicU32],
    hop_ps: u64,
) -> ShardOut {
    // Phase 1: injection-FIFO starts, in schedule order per owned source.
    for &mi in &task.mine {
        let i = mi as usize;
        let m = &msgs[i];
        let start = if m.class == MsgClass::Ordered {
            let front = task.tx.entry(m.src as u64);
            let start = m.inject.max(*front);
            *front = SimTime(start.as_ps() + wire[i]);
            start
        } else {
            m.inject
        };
        head[i].store(start.as_ps() + head_add[i], Ordering::Relaxed);
        // Publish: a stage of 0 means "head is the post-header time, no hops
        // granted yet"; messages that never enter the link dataflow
        // (intranode, analytic) have `expect == 0` and are complete at once.
        stage[i].store(0, Ordering::Release);
    }
    // Phase 2: wormhole grants for owned links, each queue in schedule
    // order, each grant gated on the message clearing its previous hop.
    let mut remaining: usize = task.links.iter().map(|q| (q.hi - q.lo) as usize).sum();
    while remaining > 0 {
        let mut progress = false;
        for q in &mut task.links {
            while q.cur < q.hi {
                let (mi, pos) = entries[q.cur as usize];
                let i = mi as usize;
                if stage[i].load(Ordering::Acquire) != u32::from(pos) {
                    break;
                }
                let t = head[i].load(Ordering::Relaxed);
                let granted = t.max(q.busy);
                let t = granted + hop_ps;
                q.busy = t + wire[i];
                q.util += hop_ps + wire[i];
                head[i].store(t, Ordering::Relaxed);
                stage[i].store(u32::from(pos) + 1, Ordering::Release);
                q.cur += 1;
                remaining -= 1;
                progress = true;
            }
        }
        if !progress {
            // Blocked on another shard's hop or phase 1 — yield, don't spin:
            // on a 1-core host the owner needs this core to make progress.
            std::thread::yield_now();
        }
    }
    // Phase 3: serialization + pair-order clamp, schedule order per source.
    let mut arrivals: Vec<(u32, u64)> = Vec::with_capacity(task.mine.len());
    let mut last = 0u64;
    let mut bytes = 0u64;
    for &mi in &task.mine {
        let i = mi as usize;
        while stage[i].load(Ordering::Acquire) != expect[i] {
            std::thread::yield_now();
        }
        let m = &msgs[i];
        let mut arrival = head[i].load(Ordering::Relaxed) + wire[i];
        if m.class != MsgClass::Unordered {
            let key = (u64::from(m.src) << 32) | u64::from(m.dst);
            let front = task.pair.entry(key);
            arrival = arrival.max(front.as_ps());
            *front = SimTime(arrival);
        }
        arrivals.push((mi, arrival));
        last = last.max(arrival);
        bytes += u64::from(m.payload);
    }
    let mut tx: Vec<(u64, u64)> = task.tx.iter().map(|(k, v)| (k, v.as_ps())).collect();
    let mut pair: Vec<(u64, u64)> = task.pair.iter().map(|(k, v)| (k, v.as_ps())).collect();
    tx.sort_unstable_by_key(|&(k, _)| k);
    pair.sort_unstable_by_key(|&(k, _)| k);
    ShardOut {
        tx,
        pair,
        links: task.links.iter().map(|q| (q.li, q.busy, q.util)).collect(),
        arrivals,
        last,
        bytes,
    }
}
