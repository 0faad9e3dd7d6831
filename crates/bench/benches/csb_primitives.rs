//! Criterion benchmarks of the CSB microoperation primitives — the
//! emulator-throughput counterpart of Table II. Each primitive is
//! broadcast as a one-op program built outside the timed loop.

use cape_csb::{
    ColSel, Csb, CsbGeometry, MicroOp, MicroProgram, Probe, TagDest, TagMode, WriteSpec,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn csb(chains: usize) -> Csb {
    let mut csb = Csb::new(CsbGeometry::new(chains));
    for e in 0..csb.max_vl().min(4096) {
        csb.write_element(1, e, e as u32);
    }
    csb
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("search");
    for chains in [16usize, 256, 1024] {
        let mut m = csb(chains);
        let op = MicroProgram::new(vec![MicroOp::Search {
            probes: vec![Probe::row(0, 1, true)],
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }]);
        g.bench_with_input(BenchmarkId::new("bit_serial", chains), &chains, |b, _| {
            b.iter(|| m.execute_program(&op))
        });
        let bp = MicroProgram::new(vec![MicroOp::Search {
            probes: (0..32).map(|i| Probe::row(i, 1, true)).collect(),
            gates: vec![],
            dest: TagDest::Tags,
            mode: TagMode::Set,
        }]);
        g.bench_with_input(BenchmarkId::new("bit_parallel", chains), &chains, |b, _| {
            b.iter(|| m.execute_program(&bp))
        });
    }
    g.finish();
}

fn bench_update_and_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_reduce");
    for chains in [16usize, 1024] {
        let mut m = csb(chains);
        let upd = MicroProgram::new(vec![MicroOp::Update {
            writes: vec![
                WriteSpec {
                    subarray: 3,
                    row: 2,
                    value: true,
                    cols: ColSel::Tags(3),
                },
                WriteSpec {
                    subarray: 4,
                    row: 32,
                    value: true,
                    cols: ColSel::Tags(3),
                },
            ],
        }]);
        g.bench_with_input(BenchmarkId::new("update_prop", chains), &chains, |b, _| {
            b.iter(|| m.execute_program(&upd))
        });
        let red = MicroProgram::new(vec![MicroOp::ReduceTags { subarray: 0 }]);
        g.bench_with_input(BenchmarkId::new("reduce", chains), &chains, |b, _| {
            b.iter(|| m.execute_program(&red))
        });
    }
    g.finish();
}

fn bench_element_transfer(c: &mut Criterion) {
    let mut m = csb(64);
    c.bench_function("element_deposit_2048", |b| {
        b.iter(|| {
            for e in 0..2048 {
                m.write_element(2, e, e as u32);
            }
        })
    });
}

criterion_group!(
    benches,
    bench_search,
    bench_update_and_reduce,
    bench_element_transfer
);
criterion_main!(benches);
