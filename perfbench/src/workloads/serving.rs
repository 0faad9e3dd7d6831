//! `serving`: Phoenix tiny-suite jobs served by a four-machine fleet
//! with the fault layer armed. A pass is several bursts; each burst is
//! a closed batch admitted to a fresh fleet and drained while one
//! machine takes a burst of dead-block strikes.
//!
//! Why bursts rather than one 128-job batch: fingerprint-affinity
//! routing puts every instance of a kernel on one machine, so the
//! submission order and the victim decide which kernels share a
//! machine, and with them the fleet makespan (10-seed IQR ≈ 40% of the
//! median) and peak memory (bimodal, ±30%). Independent bursts keep
//! every seeded choice but average it out.

use cape_cluster::{Cluster, ClusterConfig, ClusterJobId};
use cape_core::{CapeConfig, FaultKind};
use cape_engine::{EngineConfig, EngineReport, FaultPolicy, JobSpec, QueueLatency};
use cape_mem::MainMemory;
use cape_workloads::{phoenix, run_cape, Workload};

use super::{Bench, Pass, Rng, Scale};
use crate::metrics::Metrics;
use crate::totals::Totals;
use crate::trace::{Tracer, TRACK_PASS, TRACK_SETUP};
use crate::yardstick::{PartTimer, Yardstick};

/// Dead-block strikes per burst.
const STRIKES: usize = 3;
/// The strikes land after distinct steps among the first this-many
/// scheduling steps of a burst.
const STRIKE_WINDOW: usize = 4;

/// One closed batch on its own fleet.
struct Burst {
    /// `(kernel index, spec)` per job; priorities are seeded.
    jobs: Vec<(usize, JobSpec)>,
    /// Per job: the solo-run digest of its kernel.
    refs: Vec<u64>,
    /// Seeded submission order.
    order: Vec<usize>,
    victim: usize,
    /// `(step, chain)`: strike the victim's `chain` after that step.
    strikes: Vec<(usize, usize)>,
}

/// The set-up `serving` workload.
pub struct Serving {
    config: ClusterConfig,
    kernels: Vec<Box<dyn Workload>>,
    bursts: Vec<Burst>,
}

impl Serving {
    /// Builds the job specs, strike schedules and solo-run digests, and
    /// one fleet.
    pub fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> Self {
        let (machines, chains, bursts, instances) = match scale {
            Scale::Full => (4, 64, 4, 4),
            Scale::Tiny => (2, 16, 2, 1),
        };
        let config = ClusterConfig::new(
            machines,
            EngineConfig {
                queue_capacity: 64,
                slice_vectors: 16,
                max_batch: 2,
                machine: CapeConfig::tiny(chains),
                fault: Some(FaultPolicy::quiescent()),
            },
        );
        let mut rng = Rng::new(seed);

        let s = tr.begin("workloads.gen", TRACK_SETUP, || "job specs".into());
        let kernels = phoenix::tiny_suite();
        let mut bursts: Vec<Burst> = (0..bursts)
            .map(|_| {
                let mut jobs = Vec::new();
                for instance in 0..instances {
                    for (k, w) in kernels.iter().enumerate() {
                        let mut mem = MainMemory::new();
                        let program = w.cape_setup(&mut mem);
                        let spec = JobSpec::new(format!("{}#{instance}", w.name()), program, mem)
                            .with_priority(rng.below(4) as u8);
                        jobs.push((k, spec));
                    }
                }
                let mut order: Vec<usize> = (0..jobs.len()).collect();
                rng.shuffle(&mut order);
                let victim = rng.below(machines);
                let mut steps: Vec<usize> = (1..=STRIKE_WINDOW).collect();
                rng.shuffle(&mut steps);
                let mut strikes: Vec<(usize, usize)> = steps[..STRIKES]
                    .iter()
                    .map(|&step| (step, rng.below(chains)))
                    .collect();
                strikes.sort_unstable();
                Burst {
                    jobs,
                    refs: Vec::new(),
                    order,
                    victim,
                    strikes,
                }
            })
            .collect();
        tr.end(s);

        let s = tr.begin("baseline.ref", TRACK_SETUP, || "solo runs".into());
        let solo: Vec<u64> = kernels
            .iter()
            .map(|w| run_cape(w.as_ref(), &config.engine.machine).digest)
            .collect();
        for burst in &mut bursts {
            burst.refs = burst.jobs.iter().map(|(k, _)| solo[*k]).collect();
        }
        tr.end(s);

        let s = tr.begin("setup.build", TRACK_SETUP, || "Cluster::new".into());
        drop(Cluster::new(config));
        tr.end(s);
        Self {
            config,
            kernels,
            bursts,
        }
    }
}

/// Fleet-level counters summed over a pass's bursts.
#[derive(Default)]
struct Fleet {
    totals: Totals,
    busy_cycles: u64,
    makespan: u64,
    engines: Vec<EngineReport>,
    waits: Vec<u64>,
    migrations: u64,
    resubmissions: u64,
    transitions: u64,
    strikes: u64,
    skew: f64,
}

impl Serving {
    /// Serves one burst on a fresh fleet; returns the failed-job count.
    fn burst(&self, b: usize, fleet: &mut Fleet, tr: &mut Tracer) -> u64 {
        let burst = &self.bursts[b];
        let track = |i: usize| (b * burst.jobs.len() + i) as u32 + 1;
        let label = |i: usize| move || format!("{}.{b}", burst.jobs[i].1.name);
        let s = tr.begin("cluster.new", TRACK_PASS, || format!("burst {b}"));
        let mut cluster = Cluster::new(self.config);
        tr.end(s);

        let mut failed = 0;
        let mut admitted: Vec<(ClusterJobId, usize)> = Vec::new();
        for &i in &burst.order {
            tr.name_track(track(i), label(i));
            let s = tr.begin("cluster.submit", track(i), label(i));
            let submitted = cluster.submit(burst.jobs[i].1.clone());
            tr.end(s);
            match submitted {
                Ok(id) => admitted.push((id, i)),
                Err(e) => {
                    failed += 1;
                    eprintln!("serving: job {} refused: {e}", burst.jobs[i].1.name);
                }
            }
        }

        let mut strikes = burst.strikes.iter().peekable();
        for step in 1.. {
            let s = tr.begin("cluster.step", TRACK_PASS, || {
                format!("burst {b} step {step}")
            });
            let progressed = cluster.step();
            tr.end(s);
            if !progressed {
                break;
            }
            while let Some(&(_, chain)) = strikes.next_if(|(at, _)| *at == step) {
                let s = tr.begin("cluster.strike", TRACK_PASS, || format!("chain {chain}"));
                cluster
                    .strike(burst.victim, chain, FaultKind::DeadBlock)
                    .expect("the fleet is built with a fault policy");
                tr.end(s);
                fleet.strikes += 1;
            }
        }

        // Per-job reports in job order, so sums do not depend on the
        // seeded submission order.
        admitted.sort_unstable_by_key(|&(_, i)| i);
        for &(id, i) in &admitted {
            let s = tr.begin("digest", track(i), label(i));
            let job = cluster.job_report(id).filter(|j| j.succeeded());
            let kernel = &self.kernels[burst.jobs[i].0];
            let ok = job.is_some()
                && cluster
                    .memory(id)
                    .is_some_and(|mem| kernel.digest(mem) == burst.refs[i]);
            tr.end(s);
            if let Some(job) = &job {
                fleet.totals.add_run(&job.report);
                fleet.waits.push(job.queue_cycles());
            }
            if !ok {
                failed += 1;
                eprintln!("serving: job {} failed or diverged", burst.jobs[i].1.name);
            }
        }

        let s = tr.begin("cluster.report", TRACK_PASS, || format!("burst {b}"));
        let report = cluster.report();
        tr.end(s);
        let s = tr.begin("cluster.drop", TRACK_PASS, || format!("burst {b}"));
        drop(cluster);
        tr.end(s);
        for m in &report.machines {
            fleet.busy_cycles += m.engine.total_cycles;
            fleet.totals.window_hits += m.engine.fused_window_hits;
            fleet.totals.window_misses += m.engine.fused_window_misses;
        }
        fleet.makespan += report.makespan_cycles();
        fleet.migrations += report.migrations;
        fleet.resubmissions += report.resubmissions;
        fleet.transitions += report.transitions.len() as u64;
        fleet.skew += report.utilization_skew() / self.bursts.len() as f64;
        fleet
            .engines
            .extend(report.machines.into_iter().map(|m| m.engine));
        failed
    }
}

impl Bench for Serving {
    fn pass(&self, tr: &mut Tracer, yardstick: &mut Yardstick) -> Pass {
        let mut fleet = Fleet::default();
        let mut failed = 0;
        let (mut part_s, mut part_yard_s) = (Vec::new(), Vec::new());
        let mut timer = PartTimer::new(yardstick, tr);
        for b in 0..self.bursts.len() {
            timer.start();
            failed += self.burst(b, &mut fleet, tr);
            let (host_s, yard_s) = timer.stop(tr);
            part_s.push(host_s);
            part_yard_s.push(yard_s);
        }

        let mut counts = Metrics::default();
        counts.set("sim_cycles", fleet.busy_cycles as f64, "cycles");
        fleet.totals.write(&mut counts);
        let engines = &fleet.engines;
        let sum = |f: fn(&EngineReport) -> u64| engines.iter().map(f).sum::<u64>() as f64;
        counts.set("engine.batches", sum(|e| e.batches), "count");
        counts.set(
            "engine.context_switches",
            sum(|e| e.context_switches),
            "count",
        );
        counts.set(
            "engine.context_switch_cycles",
            sum(|e| e.context_switch_cycles),
            "cycles",
        );
        counts.set("engine.retries", sum(|e| e.retries), "count");
        let rates: f64 = engines.iter().map(|e| e.cross_tenant_hit_rate).sum();
        counts.set(
            "engine.cross_tenant_hit_rate",
            rates / engines.len().max(1) as f64,
            "ratio",
        );
        let queue = QueueLatency::from_waits(&fleet.waits);
        counts.set("engine.queue_p50_cycles", queue.p50 as f64, "cycles");
        counts.set("engine.queue_p90_cycles", queue.p90 as f64, "cycles");
        counts.set(
            "csb.fault.detected",
            sum(|e| e.fault.detected_parity + e.fault.detected_golden + e.fault.detected_scrub),
            "count",
        );
        counts.set("csb.fault.scrubs", sum(|e| e.fault.scrubs), "count");
        counts.set(
            "csb.fault.remaps",
            sum(|e| e.fault.blocks_remapped),
            "count",
        );
        counts.set("cluster.makespan_cycles", fleet.makespan as f64, "cycles");
        counts.set("cluster.migrations", fleet.migrations as f64, "count");
        counts.set("cluster.resubmissions", fleet.resubmissions as f64, "count");
        counts.set("cluster.transitions", fleet.transitions as f64, "count");
        counts.set("cluster.strikes", fleet.strikes as f64, "count");
        counts.set("cluster.utilization_skew", fleet.skew, "ratio");
        Pass {
            attempted: self.bursts.iter().map(|b| b.jobs.len() as u64).sum(),
            failed,
            counts,
            part_s,
            part_yard_s,
        }
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.bursts[0].refs[0] ^= 1;
    }
}
