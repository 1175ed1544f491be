//! Memory pin for the pair-ordering front: on a contended, fault-free
//! network the link FIFOs order every inter-node pair, so `NetState` keeps
//! no per-pair entry for them and an all-to-all costs the same
//! `torus5d.fxmap` bytes however many messages each pair exchanges — the
//! injection FIFO (one entry per sender) and the intranode pairs are all
//! that is left. With contention off the front is the only ordering there
//! is, and the table grows with the number of pairs — unless the caller
//! names a delivery floor, behind which fronts retire: then the table is
//! sized by the messages still in flight, not by the pairs that ever talked.
//!
//! Own binary: `#[global_allocator]` is process-wide, and the `mark`/`since`
//! brackets are per-thread (see `alloc_free.rs`), so each test measures only
//! its own runs.

use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimTime};
use torus5d::{BgqParams, MsgClass, NetState, Topology};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// Peak `torus5d.fxmap` bytes of `rounds` all-to-all rounds over `procs`
/// ranks at 16 per node, classes alternating; with `floor`, each message's
/// injection is the delivery floor (a simulator sending at its clock).
fn fxmap_bytes(procs: usize, contention: bool, rounds: usize, floor: bool) -> i64 {
    let m = memprof::mark();
    let mut net = NetState::new(
        Topology::for_procs(procs, 16),
        BgqParams::default(),
        contention,
    );
    let mut inject = SimTime::ZERO;
    for round in 0..rounds {
        for src in 0..procs {
            for dst in (0..procs).filter(|&dst| dst != src) {
                inject += SimDuration::from_ns(10);
                if floor {
                    net.raise_floor(inject);
                }
                let class = if (round + dst) % 2 == 0 {
                    MsgClass::Ordered
                } else {
                    MsgClass::Control
                };
                net.deliver(inject, src, dst, 64, class);
            }
        }
    }
    assert_eq!(net.messages(), (rounds * procs * (procs - 1)) as u64);
    memprof::since(&m)
        .get("torus5d.fxmap")
        .map_or(0, |t| t.peak_bytes)
}

#[test]
fn contended_all_to_all_keeps_no_front_per_internode_pair() {
    memprof::enable();
    let once = fxmap_bytes(512, true, 1, false);
    let eight = fxmap_bytes(512, true, 8, false);
    assert_eq!(once, eight, "more messages per pair, same state");
    // 512 senders and 512 * 15 intranode pairs: a 16 Ki-slot table of
    // 16-byte slots, the 8 Ki-slot one it grew from, and the sender table.
    assert!(
        (256 << 10..512 << 10).contains(&once),
        "{once} B: only senders and intranode pairs may hold an entry"
    );
    // Analytic: no link is reserved, every pair holds a 16-byte slot.
    for p in [256usize, 512] {
        let analytic = fxmap_bytes(p, false, 1, false);
        assert!(
            analytic >= (16 * p * (p - 1)) as i64,
            "p = {p}: {analytic} B"
        );
    }
}

#[test]
fn fronts_behind_the_floor_retire() {
    memprof::enable();
    // Analytic and contended, one round or four: a message is in flight for
    // microseconds, a few hundred messages at 10 ns apart, so the pair and
    // sender tables stay a few thousand slots at any p (12.3 KiB analytic,
    // 73 KiB contended at p = 512, where the no-floor analytic table above
    // is over 4 MB).
    for contention in [false, true] {
        for (p, rounds) in [(256usize, 1usize), (512, 1), (512, 4)] {
            let bytes = fxmap_bytes(p, contention, rounds, true);
            assert!(
                bytes <= 128 << 10,
                "p = {p}, {rounds} rounds, contention {contention}: {bytes} B"
            );
        }
    }
}
