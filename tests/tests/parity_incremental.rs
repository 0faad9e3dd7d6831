//! PR 7 parity-maintenance properties: the per-row parity words that the
//! block kernels maintain *incrementally* (one fused XOR-fold per write)
//! must always equal a from-scratch recompute over the row data — for
//! every vector operation, every SEW, masked/tail windows, arbitrary
//! operation sequences, and across a mid-sequence `save_registers` /
//! `restore_registers` round-trip. [`Csb::parity_consistent`] *is* that
//! recompute: it folds every live row and compares against the stored
//! parity word, so any kernel that forgets (or double-counts) a delta
//! fails here immediately.
//!
//! Also pins the two fault-layer behaviours the incremental scheme must
//! preserve: a strike is localized to exactly the struck subarray row,
//! and the spare allocator wear-levels across slots instead of burning
//! the same spare repeatedly.

use cape_csb::{Csb, CsbGeometry, FaultConfig, FaultKind};
use cape_integration::{all_ops, seed_registers};
use cape_ucode::CompiledOp;
use proptest::prelude::*;

const CHAINS: usize = 4;

/// A CSB with deterministic pseudorandom register contents, a mask in
/// v0 and sparse bits in v4, with the fault layer armed quiescent so
/// the kernels run their parity-maintaining (`PARITY = true`) paths.
fn armed_csb() -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(CHAINS));
    seed_registers(&mut csb);
    csb.enable_fault_injection(FaultConfig::quiescent(4));
    csb
}

/// The masked/tail windows the differential suite sweeps: full, restart
/// (vstart > 0), tail (vl < max) and both at once.
const WINDOWS: [(usize, usize); 4] = [(0, 128), (5, 128), (0, 97), (17, 103)];

#[test]
fn every_op_keeps_parity_consistent_at_every_sew_and_window() {
    for op in &all_ops() {
        for sew in [8usize, 16, 32] {
            for &(vstart, vl) in &WINDOWS {
                let mut csb = armed_csb();
                csb.set_active_window(vstart, vl);
                let compiled = CompiledOp::compile(op, sew);
                csb.execute_program(compiled.program());
                assert!(
                    csb.parity_consistent(),
                    "incremental parity diverged from recompute: \
                     {op:?} sew={sew} window={vstart}..{vl}"
                );
            }
        }
    }
}

/// One step of a random program: which op, at which SEW, over which
/// window.
fn step() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    let nops = all_ops().len();
    (0..nops, 0usize..3, 0usize..4).prop_map(|(op, sew, win)| {
        let (vstart, vl) = WINDOWS[win];
        (op, [8usize, 16, 32][sew], vstart, vl)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary microop sequences — with a `save_registers` /
    /// `restore_registers` round-trip spliced in mid-sequence — keep
    /// the incrementally-maintained parity equal to a from-scratch
    /// recompute after every single program, and leave the armed CSB's
    /// architectural results bit-identical to an unarmed twin running
    /// the same sequence (fault mode must observe, never perturb).
    #[test]
    fn random_sequences_with_save_restore_keep_parity_exact(
        steps in proptest::collection::vec(step(), 1..10),
        restore_at in 0usize..10,
    ) {
        let ops = all_ops();
        let mut armed = armed_csb();
        let mut clean = Csb::new(CsbGeometry::new(CHAINS));
        seed_registers(&mut clean);

        let mut snap = None;
        for (i, &(op, sew, vstart, vl)) in steps.iter().enumerate() {
            if i == restore_at % steps.len() {
                // Context switch away and back: the snapshot restore
                // runs through the same parity-maintaining write path
                // as the kernels, with no rescan.
                snap = Some((armed.save_registers(), clean.save_registers()));
            }
            let compiled = CompiledOp::compile(&ops[op], sew);
            armed.set_active_window(vstart, vl);
            clean.set_active_window(vstart, vl);
            armed.execute_program(compiled.program());
            clean.execute_program(compiled.program());
            prop_assert!(
                armed.parity_consistent(),
                "parity diverged after step {i}: {:?} sew={sew}",
                ops[op]
            );
            if let Some((a, c)) = snap.take() {
                armed.restore_registers(&a);
                clean.restore_registers(&c);
                prop_assert!(
                    armed.parity_consistent(),
                    "parity diverged across restore_registers at step {i}"
                );
            }
        }

        // Nothing was injected, so vigilance must have seen nothing…
        prop_assert_eq!(armed.pending_faults(), 0);
        let stats = armed.fault_stats();
        prop_assert_eq!(stats.detected_parity, 0, "false positive parity hit");
        // …and must not have perturbed the architecture.
        for reg in [0usize, 1, 2, 3, 4] {
            let n = armed.max_vl();
            prop_assert_eq!(
                armed.read_vector(reg, n),
                clean.read_vector(reg, n),
                "armed run diverged from clean twin in v{}", reg
            );
        }
    }
}

#[test]
fn injected_fault_is_localized_to_the_struck_row() {
    // Per-row parity pinpoints a strike to its subarray row: flag the
    // fault and the ledger must name exactly (subarray 11, row 7) in
    // exactly one block — not "somewhere in the block".
    let mut csb = armed_csb();
    csb.inject_fault(
        2,
        FaultKind::Transient {
            lane: 5,
            subarray: 11,
            row: 7,
            mask: 0x0040_0001,
            late: false,
        },
    );
    let _ = csb.scrub().expect("fault mode armed");
    assert_eq!(csb.pending_faults(), 1, "strike must be detected");
    let struck = csb.struck_rows();
    assert_eq!(struck.len(), 1, "exactly one row struck: {struck:?}");
    assert_eq!(struck[0].subarray, 11, "wrong subarray: {struck:?}");
    assert_eq!(struck[0].row, 7, "wrong row: {struck:?}");
    // Healing still works off the localized record.
    assert!(csb.quarantine_and_remap().fully_recovered());
    assert!(csb.parity_consistent(), "spare must carry rebuilt parity");
}

#[test]
fn spare_allocation_wear_levels_across_slots() {
    // Strike the same logical block three times, healing between
    // strikes: each strike after the first lands on the freshly-mapped
    // spare, so every heal asks the allocator for a new slot within one
    // shard. The round-robin cursor must spread those remaps across
    // distinct spare slots and record each in `FaultStats::spare_remaps`
    // (the old first-fit allocator would be indistinguishable here only
    // if it never reused a slot — which is exactly the property).
    let mut csb = Csb::new(CsbGeometry::new(CHAINS));
    csb.enable_fault_injection(FaultConfig::quiescent(3));
    for round in 0u8..3 {
        csb.inject_fault(
            0,
            FaultKind::Transient {
                lane: 0,
                subarray: round,
                row: round,
                mask: 1,
                late: false,
            },
        );
        let _ = csb.scrub().expect("armed");
        assert!(csb.quarantine_and_remap().fully_recovered());
    }
    let stats = csb.fault_stats();
    assert_eq!(stats.blocks_remapped, 3);
    let used: Vec<u64> = stats.spare_remaps.clone();
    assert_eq!(
        used.iter().sum::<u64>(),
        3,
        "every remap recorded: {used:?}"
    );
    assert_eq!(
        used.iter().filter(|&&n| n > 0).count(),
        3,
        "round-robin must use three distinct spare slots, got {used:?}"
    );
}
