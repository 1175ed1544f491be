//! The implicit-handle set holds outstanding requests only: completed
//! blocking operations do not accumulate in it until the next `wait_all`,
//! and `wait_all` still waits for every non-blocking request issued since
//! the last one. Its own integration-test binary: the profiling allocator is
//! process-wide.

use std::cell::RefCell;
use std::rc::Rc;

use armci::{Armci, ArmciConfig, NbHandle};
use desim::memprof::{self, MemProf};
use desim::Sim;
use pami_sim::{Machine, MachineConfig};

#[global_allocator]
static ALLOC: MemProf = MemProf;

/// Three ranks with a 1 MiB segment each; rank 0's local buffer and the
/// segment's offset (the same on every rank).
fn setup() -> (Sim, Armci, usize, usize) {
    let sim = Sim::new();
    let machine = Machine::new(sim.clone(), MachineConfig::new(3).procs_per_node(1));
    let armci = Armci::new(machine, ArmciConfig::default());
    let bufs = Rc::new(RefCell::new((0, 0)));
    for r in 0..3 {
        let (rk, bufs) = (armci.rank(r), Rc::clone(&bufs));
        sim.spawn(async move {
            let seg = rk.malloc_collective(1 << 20).await;
            if r == 0 {
                *bufs.borrow_mut() = (rk.malloc(1 << 20).await, seg[1]);
            }
        });
    }
    sim.run();
    let (local, remote) = *bufs.borrow();
    (sim, armci, local, remote)
}

#[test]
fn blocking_gets_leave_the_implicit_set_bounded() {
    memprof::enable();
    let (sim, armci, local, remote) = setup();
    let gets = |n: usize| {
        let rk = armci.rank(0);
        sim.spawn(async move {
            for i in 0..n {
                rk.get(1, local + i % 64 * 8, remote + i % 64 * 8, 8).await;
            }
        });
        sim.run();
    };
    gets(64);
    let before = memprof::mark();
    gets(4096);
    // Everything 4096 more gets keep alive: a completion per get while the
    // set held them all (320 KB), nothing now.
    let live: i64 = memprof::since(&before)
        .tags
        .iter()
        .map(|t| t.live_bytes)
        .sum();
    assert!(live <= 1024, "4096 blocking gets left {live} live bytes");
    armci.finalize();
    sim.shutdown();
}

#[test]
fn wait_all_waits_for_every_nonblocking_get() {
    let (sim, armci, local, remote) = setup();
    let rk = armci.rank(0);
    let handles: Rc<RefCell<Vec<NbHandle>>> = Rc::default();
    let checked = Rc::new(RefCell::new(None));
    {
        let (handles, checked) = (Rc::clone(&handles), Rc::clone(&checked));
        sim.spawn(async move {
            // A slow get from rank 2 first, then fast ones and blocking
            // gets from rank 1, so the set is pruned many times while the
            // slow one is outstanding.
            let slow = rk.nbget(2, local, remote, 1 << 19).await;
            handles.borrow_mut().push(slow);
            for i in 0..40 {
                let off = (1 << 19) + i * 64;
                let h = rk.nbget(1, local + off, remote + off, 64).await;
                handles.borrow_mut().push(h);
                rk.get(1, local + off + 8, remote + off + 8, 8).await;
            }
            let outstanding = handles.borrow().iter().filter(|h| !h.test()).count();
            rk.wait_all().await;
            let complete = handles.borrow().iter().all(NbHandle::test);
            *checked.borrow_mut() = Some((outstanding, complete));
        });
    }
    sim.run();
    let (outstanding, complete) = checked.borrow().expect("rank program finished");
    assert!(outstanding >= 1, "the slow get was done before wait_all");
    assert!(complete, "wait_all returned with a get outstanding");
    armci.finalize();
    sim.shutdown();
}
