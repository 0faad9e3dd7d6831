//! `phoenix`: the eight Fig. 11 applications at CAPE32k and CAPE131k,
//! sixteen closed-loop jobs, each on a fresh machine.

use cape_core::{CapeConfig, CapeMachine, RunReport};
use cape_isa::Program;
use cape_mem::MainMemory;
use cape_workloads::{phoenix, Workload};

use super::{Bench, Pass, Rng, Scale};
use crate::metrics::Metrics;
use crate::totals::Totals;
use crate::trace::{Tracer, TRACK_SETUP};
use crate::yardstick::{PartTimer, Yardstick};

/// The set-up `phoenix` workload.
pub struct Phoenix {
    apps: Vec<Box<dyn Workload>>,
    /// Per app: the program and its input image.
    inputs: Vec<(Program, MainMemory)>,
    /// Per job: the scalar baseline's output digest for its app.
    refs: Vec<u64>,
    /// The two machine sizes and their metric suffixes.
    configs: [(CapeConfig, &'static str); 2],
    /// Job `j` runs app `j / 2` on `configs[j % 2]`; the seed only
    /// permutes the order (the app inputs are fixed in cape-workloads).
    order: Vec<usize>,
}

impl Phoenix {
    /// Generates the inputs and baseline digests and builds one machine
    /// of each size.
    pub fn setup(seed: u64, scale: Scale, tr: &mut Tracer) -> Self {
        let (apps, configs) = match scale {
            Scale::Full => (
                phoenix::suite(),
                [
                    (CapeConfig::cape32k(), "32k"),
                    (CapeConfig::cape131k(), "131k"),
                ],
            ),
            Scale::Tiny => (
                phoenix::tiny_suite(),
                [(CapeConfig::tiny(4), "32k"), (CapeConfig::tiny(16), "131k")],
            ),
        };
        let s = tr.begin("workloads.gen", TRACK_SETUP, || "phoenix inputs".into());
        let inputs = apps
            .iter()
            .map(|w| {
                let mut mem = MainMemory::new();
                let program = w.cape_setup(&mut mem);
                (program, mem)
            })
            .collect();
        tr.end(s);
        let s = tr.begin("baseline.ref", TRACK_SETUP, || "run_baseline".into());
        let digests: Vec<u64> = apps.iter().map(|w| w.run_baseline().digest).collect();
        let refs = digests.iter().flat_map(|&d| [d; 2]).collect();
        tr.end(s);
        let s = tr.begin("setup.build", TRACK_SETUP, || "CapeMachine::new".into());
        for (config, _) in &configs {
            drop(CapeMachine::new(*config));
        }
        tr.end(s);
        let mut order: Vec<usize> = (0..apps.len() * configs.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        Self {
            apps,
            inputs,
            refs,
            configs,
            order,
        }
    }
}

impl Bench for Phoenix {
    fn pass(&self, tr: &mut Tracer, yardstick: &mut Yardstick) -> Pass {
        // (report, window hits, window misses) per job, in job order, so
        // the energy sum does not depend on the seeded run order.
        let mut runs: Vec<Option<(RunReport, u64, u64)>> = vec![None; self.order.len()];
        let mut failed = 0;
        let mut part_s = vec![0.0; self.order.len()];
        let mut part_yard_s = vec![0.0; self.order.len()];
        let mut timer = PartTimer::new(yardstick, tr);
        for &j in &self.order {
            timer.start();
            let (app, (config, size)) = (j / 2, self.configs[j % 2]);
            let w = &self.apps[app];
            let (program, input) = &self.inputs[app];
            let track = j as u32 + 1;
            let label = || format!("{}.{size}", w.name());
            tr.name_track(track, label);

            let s = tr.begin("input.copy", track, label);
            let mut mem = input.clone();
            tr.end(s);
            let s = tr.begin("core.new", track, label);
            let mut machine = CapeMachine::new(config);
            tr.end(s);
            let s = tr.begin("core.run", track, label);
            let run = machine.run(program, &mut mem);
            tr.end(s);
            let s = tr.begin("digest", track, label);
            let ok = run.is_ok() && w.digest(&mem) == self.refs[j];
            tr.end(s);
            if !ok {
                failed += 1;
                eprintln!("phoenix: job {} failed: {:?}", label(), run.as_ref().err());
            }
            if let Ok(report) = run {
                let cache = machine.program_cache();
                runs[j] = Some((report, cache.window_hits(), cache.window_misses()));
            }
            let s = tr.begin("core.drop", track, label);
            drop(machine);
            drop(mem);
            tr.end(s);
            (part_s[j], part_yard_s[j]) = timer.stop(tr);
        }
        let mut totals = Totals::default();
        for (report, hits, misses) in runs.iter().flatten() {
            totals.add_run(report);
            totals.window_hits += hits;
            totals.window_misses += misses;
        }
        let mut counts = Metrics::default();
        counts.set("sim_cycles", totals.cycles as f64, "cycles");
        totals.write(&mut counts);
        Pass {
            attempted: self.order.len() as u64,
            failed,
            counts,
            part_s,
            part_yard_s,
        }
    }

    #[cfg(test)]
    fn corrupt_reference(&mut self) {
        self.refs[0] ^= 1;
    }
}
