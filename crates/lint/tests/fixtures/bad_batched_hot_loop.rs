//! Fixture: panicking calls inside a replica-stepping hot loop — the shape
//! L3 exists to keep out of the engine loops under `crates/core/src`.
//! Exercised by `tests/selftest.rs`; never compiled.

fn step_all_lanes(lanes: &mut Vec<Lane>, specs: &[ReplicaSpec]) {
    for lane in lanes.iter_mut() {
        let spec = specs.first().unwrap();
        let ev = lane.calendar.peek_min(lane.round).expect("busy lane has an event");
        if lane.round > lane.safety_cap {
            panic!("batched lane exceeded safety cap");
        }
        let jid = lane.cur_job.get(0).expect("worker column sized"); // lint: allow(panicking) fixture: start() resizes cur_job to m, so index 0 exists
        let _ = lane.unwrap_or_idle(); // lookalike method name must NOT be reported
        lane.advance(spec, ev, *jid);
    }
}
