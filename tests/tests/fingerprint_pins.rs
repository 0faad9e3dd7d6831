//! Pins the values of the one shared FNV-1a hasher (`cape_isa::Fnv1a`)
//! through each of its consumers. Workload digests, the engine's batching
//! key and the VCU's fused-window cache key all derive from it, so a drift
//! here would silently change every pinned output. The expected values
//! were recorded from the separate per-crate hashers this one replaced.

use cape_isa::{fnv1a_words, Program, VReg};
use cape_ucode::VectorOp;
use cape_vcu::window_fingerprint;

#[test]
fn shared_fnv_hasher_values_are_pinned() {
    assert_eq!(fnv1a_words([1, 2, 3]), 0xfd1f_0f43_81eb_0395, "word digest");

    let mut p = Program::builder();
    p.vadd_vv(VReg::V3, VReg::V1, VReg::V2);
    p.halt();
    let program = p.build().expect("two-instruction program builds");
    assert_eq!(program.len(), 2);
    assert_eq!(
        cape_engine::fingerprint(&program),
        0xdfb2_980e_66c2_4f11,
        "engine batching key"
    );

    let window = [
        (
            VectorOp::Add {
                vd: 3,
                vs1: 1,
                vs2: 2,
            },
            32,
        ),
        (VectorOp::RedSum { vd: 4, vs: 3 }, 16),
    ];
    assert_eq!(
        window_fingerprint(&window),
        0x2d51_9db1_9623_3f07,
        "fused-window cache key"
    );
}
