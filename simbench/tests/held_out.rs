//! Runs every workload once on a seed that was never used while the
//! benchmark's run length, repetitions and bounds were chosen.

use ccsvm_simbench::{execute, Input, Workload};

const HELD_OUT_SEED: u64 = 2027;

#[test]
fn held_out_seed_is_correct_and_keeps_each_dominant_host_phase() {
    for w in Workload::ALL {
        let mut input = Input::new(w, HELD_OUT_SEED);
        let e = execute(w, HELD_OUT_SEED, true);
        input
            .check(&e)
            .unwrap_or_else(|msg| panic!("{}: {msg}", w.name()));
        let p = e.phases;
        assert_eq!(
            p.core_exec_ms > p.uncore_ms,
            w.core_bound(),
            "{}: core_exec {:.1} ms against uncore {:.1} ms",
            w.name(),
            p.core_exec_ms,
            p.uncore_ms
        );
    }
}
