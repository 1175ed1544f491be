//! Memory pin for the pair-ordering front: on a contended, fault-free
//! network the link FIFOs order every inter-node pair, so `NetState` keeps
//! no per-pair entry for them and an all-to-all costs the same
//! `torus5d.fxmap` bytes however many messages each pair exchanges — the
//! injection FIFO (one entry per sender) and the intranode pairs are all
//! that is left. With contention off the front is the only ordering there
//! is, and the table grows with the number of pairs.
//!
//! Own binary, one `#[test]`: `#[global_allocator]` is process-wide and the
//! `mark`/`since` brackets are per-thread (see `alloc_free.rs`).

use desim::memprof::{self, MemProf};
use desim::{SimDuration, SimTime};
use torus5d::{BgqParams, MsgClass, NetState, Topology};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// Peak `torus5d.fxmap` bytes of `rounds` all-to-all rounds over `procs`
/// ranks at 16 per node, classes alternating.
fn fxmap_bytes(procs: usize, contention: bool, rounds: usize) -> i64 {
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
    let once = fxmap_bytes(512, true, 1);
    let eight = fxmap_bytes(512, true, 8);
    assert_eq!(once, eight, "more messages per pair, same state");
    // 512 senders and 512 * 15 intranode pairs: a 16 Ki-slot table of
    // 16-byte slots, the 8 Ki-slot one it grew from, and the sender table.
    assert!(
        (256 << 10..512 << 10).contains(&once),
        "{once} B: only senders and intranode pairs may hold an entry"
    );
    // Analytic: no link is reserved, every pair holds a 16-byte slot.
    for p in [256usize, 512] {
        let analytic = fxmap_bytes(p, false, 1);
        assert!(
            analytic >= (16 * p * (p - 1)) as i64,
            "p = {p}: {analytic} B"
        );
    }
}
