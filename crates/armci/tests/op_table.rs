//! The operation table is the test plan: every row of [`armci::OPS`] is
//! driven once on a two-rank machine with the tracer, the timeline and the
//! lifecycle accumulator on, and must account for itself the same way — its
//! counter and bytes key move by exactly what was issued, its trace span
//! opens and closes once per operation, its `armci.inflight` level rises and
//! returns to zero, its operations are the only ones on the critical path,
//! and its wait key is recorded once per operation. A row without a case
//! below fails the test.

use armci::{Armci, ArmciConfig, ArmciRank, OpDesc, Strided, OPS};
use desim::json::{self, JsonValue};
use desim::{analyze, ChromeTrace, Sim};
use pami_sim::{Machine, MachineConfig};

/// Drive `row` from rank 0 against rank 1; returns `(operations, bytes)`.
async fn drive(row: &OpDesc, r0: &ArmciRank, r1: &ArmciRank) -> (u64, u64) {
    let local = r0.malloc(4096).await;
    let remote = r1.malloc(4096).await;
    // Four rows of 64 bytes: above the pack threshold, so the strided and
    // vector rows post a chunk train.
    let (ld, rd) = (
        Strided::patch2d(local, 64, 4, 128),
        Strided::patch2d(remote, 64, 4, 256),
    );
    let parts = [(local, remote, 96), (local + 512, remote + 1024, 160)];
    // Bytes each case moves: 200 contiguous, 4 × 64 strided, 96 + 160 vector.
    match row.name() {
        "armci.get" => r0.get(1, local, remote, 200).await,
        "armci.put" => r0.put(1, local, remote, 200).await,
        "armci.acc" => r0.acc(1, local, remote, 25, 2.0).await,
        "armci.get_strided" => r0.get_strided(1, &ld, &rd).await,
        "armci.put_strided" => r0.put_strided(1, &ld, &rd).await,
        "armci.acc_strided" => r0.acc_strided(1, &ld, &rd, 0.5).await,
        "armci.getv" => r0.getv(1, &parts).await,
        "armci.putv" => r0.putv(1, &parts).await,
        "armci.rmw" => {
            r1.pami().write_i64(remote, 5);
            assert_eq!(r0.rmw_fetch_add(1, remote, 2).await, 5);
            assert_eq!(r0.rmw_swap(1, remote, 9).await, 7);
            assert_eq!(r0.rmw_cas(1, remote, 9, 1).await, 9);
            return (3, 0);
        }
        other => panic!("table row {other} has no case in the test plan"),
    }
    let contiguous = matches!(row.name(), "armci.get" | "armci.put" | "armci.acc");
    (1, if contiguous { 200 } else { 256 })
}

/// `(begins, ends)` of the spans called `name`, checking that no end comes
/// before its begin.
fn spans(trace: &JsonValue, name: &str) -> (u64, u64) {
    let JsonValue::Arr(events) = trace.get("traceEvents").expect("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    let (mut begins, mut ends) = (0, 0);
    for ev in events {
        if ev.get("name").and_then(JsonValue::as_str) != Some(name) {
            continue;
        }
        match ev.get("ph").and_then(JsonValue::as_str) {
            Some("B") => begins += 1,
            Some("E") => ends += 1,
            _ => {}
        }
        assert!(ends <= begins, "{name}: a span ended before it began");
    }
    (begins, ends)
}

#[test]
fn every_row_accounts_for_itself() {
    for row in OPS {
        let sim = Sim::new();
        let machine = Machine::new(sim.clone(), MachineConfig::new(2).procs_per_node(1));
        let armci = Armci::new(machine.clone(), ArmciConfig::default());
        sim.tracer().enable(1 << 12);
        // One window spans the whole run.
        sim.timeline().enable(1 << 40, 4);
        sim.probes().lifecycle.enable();
        let (r0, r1) = (armci.rank(0), armci.rank(1));
        let task = sim.spawn(async move { drive(row, &r0, &r1).await });
        sim.run();
        let (ops, bytes) = task.try_result().expect("the operation completed");
        armci.finalize();
        sim.shutdown();

        let name = row.name();
        let stats = machine.stats();
        assert_eq!(stats.counter(name), ops, "{name}: operation counter");
        let key = row.bytes.key();
        if !key.is_empty() {
            assert_eq!(stats.counter(key), bytes, "{name}: {key}");
        }
        if let Some(keys) = &row.protocol {
            let taken = stats.counter(keys[0].key()) + stats.counter(keys[1].key());
            assert_eq!(taken, ops, "{name}: one protocol choice per operation");
        }
        let wait = row.wait.key();
        assert_eq!(stats.time(wait).count, ops, "{name}: {wait}");
        assert_eq!(stats.hist(wait).count(), ops, "{name}: histogram");

        let mut trace = ChromeTrace::new();
        trace.add_process(1, name, &sim.tracer());
        let trace = json::parse(&trace.finish()).expect("trace JSON");
        assert_eq!(spans(&trace, name), (ops, ops), "{name}: trace spans");

        let snap = sim.timeline().snapshot();
        let level = snap.series("armci.inflight").expect("inflight level");
        let w = level.windows.last().expect("a sampled window");
        assert_eq!((w.max, w.last), (1, 0), "{name}: every operation closed");
        let crit = analyze(&sim.probes().lifecycle, sim.now());
        assert_eq!(crit.terminal_rank, 0, "{name}: the issuing rank");
        assert_eq!(crit.ops_on_path, ops, "{name}: no other operation ran");
    }
}

#[test]
fn rows_are_distinct_and_consistent() {
    for (i, row) in OPS.iter().enumerate() {
        let name = row.name();
        assert!(OPS[..i].iter().all(|r| r.name() != name), "{name}");
        assert!(row.wait.key().starts_with("armci.wait."), "{name}");
        // Only an operation with a direct protocol can be told to avoid it.
        assert!(!row.packs || row.protocol.is_some(), "{name}");
    }
}
