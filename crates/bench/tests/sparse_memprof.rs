//! A sparse million-rank run pays only for what it touches (DESIGN.md §15).
//!
//! The paper's space model charges a process for the PAMI objects it
//! creates, not for the partition it sits in. The host model follows it:
//! with contention off, building a p = 1,000,000 machine and its ARMCI
//! runtime allocates no per-rank or per-link table, and a sparse all-to-all
//! at that p costs what its few active ranks touch. The per-link table
//! still appears, 16 B per link, where a contended network reads it.

use armci::{ArmciConfig, ProgressMode};
use bgq_bench::{scale, Fixture};
use desim::memprof::{self, MemProf, MemSnapshot};
use desim::Sim;
use pami_sim::{Machine, MachineConfig};
use torus5d::{BgqParams, NetState, Topology};

#[global_allocator]
static ALLOC: MemProf = MemProf;

const MILLION: usize = 1_000_000;

/// Construction of `Machine` + `Armci` at p = 1M, ρ = 2, contention off.
/// It read 21,924 B when this budget was set (10,021,924 B while the
/// per-link table was built eagerly).
const CONSTRUCTION_BYTES: i64 = 64 << 10;

/// Σ tag peaks of [`scale::alltoall`] at p = 1M, 32 active ranks, one round:
/// what it reached when this budget was set, plus 10 %. With the per-link
/// table built eagerly the same run read over 10 MB.
const SPARSE_REACHED: i64 = 213_751;
const SPARSE_BYTES: i64 = SPARSE_REACHED + SPARSE_REACHED / 10;

fn total_peak(snap: &MemSnapshot) -> i64 {
    snap.tags.iter().map(|t| t.peak_bytes).sum()
}

#[test]
fn a_million_rank_machine_and_runtime_cost_no_per_rank_or_per_link_table() {
    memprof::enable();
    let mark = memprof::mark();
    let f = Fixture::with_machine(
        MachineConfig::new(MILLION).procs_per_node(16).contexts(2),
        ArmciConfig::default().progress(ProgressMode::AsyncThread),
    );
    let snap = memprof::since(&mark);
    drop(f);
    assert!(
        total_peak(&snap) <= CONSTRUCTION_BYTES,
        "{} B to construct p = 1M (budget {CONSTRUCTION_BYTES}): {}",
        total_peak(&snap),
        snap.to_json()
    );
    assert_eq!(snap.get("torus5d.links"), None, "{}", snap.to_json());
}

#[test]
fn a_contended_network_builds_its_link_table_at_construction() {
    memprof::enable();
    let mark = memprof::mark();
    let cfg = MachineConfig::new(4096).procs_per_node(16).contention(true);
    let m = Machine::new(Sim::new(), cfg);
    let snap = memprof::since(&mark);
    let nlinks = NetState::new(m.topology().clone(), BgqParams::default(), false)
        .route_table()
        .num_link_ids() as i64;
    let links = snap.get("torus5d.links").expect("a contended table");
    assert_eq!((links.peak_bytes, links.allocs), (16 * nlinks, 1));
}

#[test]
fn link_tracking_builds_the_table_an_analytic_network_skips() {
    memprof::enable();
    let mark = memprof::mark();
    let topo = Topology::for_procs(4096, 16);
    let mut net = NetState::new(topo, BgqParams::default(), false);
    assert_eq!(memprof::since(&mark).get("torus5d.links"), None);
    assert!(net.link_utilization().is_empty());
    net.set_link_tracking(true);
    net.set_link_tracking(true);
    let nlinks = net.route_table().num_link_ids() as i64;
    let links = memprof::since(&mark);
    let links = links.get("torus5d.links").expect("built by tracking");
    assert_eq!((links.peak_bytes, links.allocs), (16 * nlinks, 1));
    assert!(net.link_utilization().is_empty(), "built, not yet used");
}

#[test]
fn a_sparse_million_rank_all_to_all_stays_inside_what_it_reached() {
    memprof::enable();
    let pt = scale::alltoall(MILLION, 32, 1);
    assert_eq!(pt.materialized, 32);
    let total = total_peak(&pt.snap);
    assert_eq!(pt.sim_time_ps, 129_863_872, "simulated end time moved");
    assert!(
        total <= SPARSE_BYTES,
        "{total} B for a 32-rank all-to-all at p = 1M (budget {SPARSE_BYTES}): {}",
        pt.snap.to_json()
    );
    assert_eq!(pt.snap.get("torus5d.links"), None);
}
