//! perfbench — the repository benchmark for the CAPE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <phoenix|serving> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting
//! the median set-up time), then replays untraced passes for
//! `--seconds` seconds (at least three) and prints the end-to-end
//! metrics. Host times are scaled by the [`yardstick`] loop's time
//! around them, so that the shared host's drifting speed cancels out:
//! they are seconds on a reference host. With `--trace 1` it runs
//! one untraced and one traced pass plus the layer probes, prints the per-layer metrics and writes the
//! spans as Chrome trace-event JSON under `perfbench/out/`.
//!
//! Every job's output is checked against its reference; the modeled
//! counters must repeat bit-for-bit across passes. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.

mod json;
mod layers;
mod metrics;
mod pin;
mod probes;
mod totals;
mod trace;
mod workloads;
mod yardstick;

use std::time::{Duration, Instant};

use metrics::{median, peak_rss_mb, Metrics, Outcome};
use trace::{Tracer, TRACK_PASS, TRACK_SETUP};
use workloads::{Bench, Scale};
use yardstick::{at_reference, PartTimer, Yardstick};

/// Set-ups per run, at least; cheap set-ups repeat until
/// [`SETUP_BUDGET_S`] is spent. `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;
/// Untraced passes per run, at least: three, so that each part's
/// median shrugs off one disturbed pass.
const MIN_PASSES: usize = 3;
/// The traced pass's spans must cover this share of its wall-clock.
const MIN_COVERAGE: f64 = 0.95;

const USAGE: &str =
    "usage: perfbench --workload <phoenix|serving> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(Self {
            workload,
            seed: seed.unwrap_or(0),
            seconds,
            trace: trace.unwrap_or(false),
            scale: Scale::Full,
        })
    }
}

/// Set-up repetitions; the newest repetition's workload is kept.
struct Setup {
    bench: Box<dyn Bench>,
    /// Set-up wall-clock per repetition (s).
    total_s: Vec<f64>,
    /// Per repetition: the mean yardstick time just before and after.
    yard_s: Vec<f64>,
    gen_ms: Vec<f64>,
    ref_ms: Vec<f64>,
    /// Spans of the newest repetition.
    trace: Tracer,
}

impl Setup {
    /// Sets the workload up once.
    fn once(args: &Args, origin: Instant, yard: &mut Yardstick) -> Self {
        let mut tr = Tracer::on(origin);
        tr.name_track(TRACK_SETUP, || "setup".into());
        let mut timer = PartTimer::new(yard, &mut Tracer::off());
        timer.start();
        let s = tr.begin("setup", TRACK_SETUP, || args.workload.clone());
        let bench = workloads::setup(&args.workload, args.seed, args.scale, &mut tr)
            .expect("workload name validated");
        tr.end(s);
        let (_, yard_s) = timer.stop(&mut Tracer::off());
        Self {
            bench,
            total_s: vec![tr.durations_ms("setup")[0] / 1e3],
            yard_s: vec![yard_s],
            gen_ms: vec![tr.durations_ms("workloads.gen").iter().sum()],
            ref_ms: vec![tr.durations_ms("baseline.ref").iter().sum()],
            trace: tr,
        }
    }

    /// Repeats the set-up until there are [`SETUP_REPS`] repetitions
    /// and [`SETUP_BUDGET_S`] seconds of them.
    fn repeat(&mut self, args: &Args, origin: Instant, yard: &mut Yardstick) {
        while self.total_s.len() < SETUP_REPS
            || (self.total_s.iter().sum::<f64>() < SETUP_BUDGET_S
                && self.total_s.len() < SETUP_MAX_REPS)
        {
            let next = Setup::once(args, origin, yard);
            self.total_s.extend(next.total_s);
            self.yard_s.extend(next.yard_s);
            self.gen_ms.extend(next.gen_ms);
            self.ref_ms.extend(next.ref_ms);
            self.bench = next.bench;
            self.trace = next.trace;
        }
    }

    /// Median set-up time on the reference host (s).
    fn reference_s(&self) -> f64 {
        let scaled: Vec<f64> = (self.total_s.iter().zip(&self.yard_s))
            .map(|(&t, &y)| at_reference(t, y))
            .collect();
        median(&scaled)
    }
}

fn timed_pass(
    bench: &dyn Bench,
    tr: &mut Tracer,
    yardstick: &mut Yardstick,
    label: &str,
) -> (workloads::Pass, f64) {
    let s = tr.begin("pass", TRACK_PASS, || label.to_string());
    let t = Instant::now();
    let pass = bench.pass(tr, yardstick);
    let host_s = t.elapsed().as_secs_f64();
    tr.end(s);
    (pass, host_s)
}

/// Reports an exact-count mismatch; returns whether the counts agree.
fn same_counts(what: &str, a: &Metrics, b: &Metrics) -> bool {
    let diff = a.differing(b);
    if !diff.is_empty() {
        eprintln!("perfbench: modeled counts differ between {what}: {diff:?}");
    }
    diff.is_empty()
}

/// Runs the benchmark; returns the outcome and, for a traced run, the
/// Chrome trace JSON.
fn run(args: &Args) -> Result<(Outcome, Option<String>), String> {
    let origin = Instant::now();
    let mut yard = Yardstick::new();
    let mut set = Setup::once(args, origin, &mut yard);
    if args.trace {
        set.repeat(args, origin, &mut yard);
        let (outcome, chrome) = run_traced(args, set, origin, &mut yard);
        Ok((outcome, Some(chrome)))
    } else {
        run_untraced(args, set, origin, &mut yard).map(|outcome| (outcome, None))
    }
}

/// Untraced passes for `--seconds` (at least [`MIN_PASSES`]); the
/// end-to-end metrics.
fn run_untraced(
    args: &Args,
    mut set: Setup,
    origin: Instant,
    yard: &mut Yardstick,
) -> Result<Outcome, String> {
    // The first pass runs right after the first set-up, so peak memory
    // is one set-up plus one pass: the workload's whole need. Repeated
    // set-ups and passes only add allocator retention, which differs
    // from run to run. The yardstick's buffer is not the workload's.
    let pass = |set: &Setup, yard: &mut Yardstick, n: usize| {
        let (pass, host_s) =
            timed_pass(set.bench.as_ref(), &mut Tracer::off(), yard, &args.workload);
        eprintln!(
            "perfbench: pass {n}: {host_s:.3} s, yardstick {:.3} ms",
            median(&pass.part_yard_s) * 1e3
        );
        pass
    };
    let first = pass(&set, yard, 1);
    let peak_mb = peak_rss_mb().ok_or("cannot read peak RSS")? - yard.buffer_mb();
    set.repeat(args, origin, yard);
    let (mut attempted, mut failed, mut consistent) = (first.attempted, first.failed, true);
    let scaled = |p: &workloads::Pass| -> Vec<f64> {
        (p.part_s.iter().zip(&p.part_yard_s))
            .map(|(&h, &y)| at_reference(h, y))
            .collect()
    };
    let mut parts = vec![scaled(&first)];
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while parts.len() < MIN_PASSES || start.elapsed() < budget {
        let next = pass(&set, yard, parts.len() + 1);
        attempted += next.attempted;
        failed += next.failed;
        consistent &= same_counts("passes", &first.counts, &next.counts);
        parts.push(scaled(&next));
    }
    let counts = first.counts;
    // A typical pass on the reference host: the sum over parts of each
    // part's median.
    let host_s = (0..parts[0].len())
        .map(|i| median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum();
    let values = [
        host_s,
        set.reference_s(),
        peak_mb,
        counts.get("sim_cycles").unwrap_or(0.0),
    ];
    let mut m = Metrics::default();
    for ((name, unit), value) in layers::END_TO_END.into_iter().zip(values) {
        m.set(name, value, unit);
    }
    Ok(Outcome {
        correct: consistent && failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}

/// One untraced and one traced pass plus the probes; the per-layer
/// metrics and the Chrome trace.
fn run_traced(args: &Args, set: Setup, origin: Instant, yard: &mut Yardstick) -> (Outcome, String) {
    let bench = set.bench.as_ref();
    let (untraced, untraced_s) = timed_pass(bench, &mut Tracer::off(), yard, &args.workload);
    let mut tr = Tracer::on(origin);
    tr.name_track(TRACK_PASS, || "pass".into());
    let (traced, traced_s) = timed_pass(bench, &mut tr, yard, &args.workload);
    let coverage = tr.coverage(0);
    let mut correct = untraced.failed == 0
        && traced.failed == 0
        && same_counts(
            "the traced and untraced pass",
            &untraced.counts,
            &traced.counts,
        );
    if coverage < MIN_COVERAGE {
        eprintln!(
            "perfbench: spans cover {:.1}% of the traced pass",
            coverage * 100.0
        );
        correct = false;
    }

    let mut m = Metrics::default();
    for (name, unit) in layers::per_layer() {
        m.set(name, 0.0, unit);
    }
    for c in traced.counts.iter().filter(|c| c.name != "sim_cycles") {
        m.set(c.name.clone(), c.value, c.unit);
    }
    m.set("workloads.gen_ms", median(&set.gen_ms), "ms");
    m.set("baseline.ref_ms", median(&set.ref_ms), "ms");
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    m.set("core.new_ms", mean(&tr.durations_ms("core.new")), "ms");
    for span in tr.spans().iter().filter(|s| s.name == "core.run") {
        m.set(
            format!("core.run_ms.{}", span.label),
            span.dur_ns as f64 / 1e6,
            "ms",
        );
    }
    let steps = tr.durations_ms("cluster.step");
    let busy_ms: f64 = tr.durations_ms("core.run").iter().chain(&steps).sum();
    let vector = traced.counts.get("cp.vector").unwrap_or(0.0).max(1.0);
    let per_vinstr = busy_ms * 1e3 / vector;
    m.set("core.us_per_vinstr", per_vinstr, "us");
    if !steps.is_empty() {
        m.set("engine.step_ms.p50", median(&steps), "ms");
        m.set(
            "engine.step_ms.max",
            steps.iter().copied().fold(0.0, f64::max),
            "ms",
        );
    }
    m.set(
        "cluster.submit_us",
        mean(&tr.durations_ms("cluster.submit")) * 1e3,
        "us",
    );
    for p in probes::run(args.scale).iter() {
        m.set(p.name.clone(), p.value, p.unit);
    }
    m.set("pass.host_s", untraced_s, "s");
    m.set("setup.host_s", median(&set.total_s), "s");
    m.set("yardstick_ms", median(&untraced.part_yard_s) * 1e3, "ms");
    m.set("trace.coverage", coverage, "ratio");
    m.set("trace.overhead_s", traced_s - untraced_s, "s");

    let mut all = set.trace;
    all.absorb(tr);
    let self_ms = all.self_ms_by_name();
    for span in layers::SPANS {
        m.set(
            format!("span.self_ms.{span}"),
            self_ms.get(span).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let chrome = all.chrome_json();
    if let Err(e) = json::parse(&chrome) {
        eprintln!("perfbench: trace JSON does not parse: {e}");
        correct = false;
    }
    let outcome = Outcome {
        correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics: m,
    };
    (outcome, chrome)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if workloads::pinned(&args.workload) {
        match pin::to_current_cpu() {
            Ok(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
            Err(e) => {
                eprintln!("perfbench: cannot pin to one CPU: {e}");
                std::process::exit(1);
            }
        }
    }
    let (outcome, chrome) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(chrome) = chrome {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome)) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
        }
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let argv = [
            "--workload",
            "serving",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let a = Args::parse(argv.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serving", 3, 10.0, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "serving", "--trace", "2"],
            &["--workload", "serving", "--seed"],
        ] {
            assert!(
                Args::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    /// The catalogue in code and `BENCHMARK.json` name the same metrics
    /// with the same units, and every name is legal.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(json::Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = layers::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layer: Vec<(String, String)> = layers::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = listed_names(&doc, "workloads");
        assert_eq!(workloads, workloads::NAMES);
        for (name, _) in e2e.iter().chain(&layer) {
            assert!(metrics::valid_name(name) && name.len() <= 64, "{name}");
        }
    }

    fn listed_names(doc: &json::Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn untraced_runs_report_every_end_to_end_metric() {
        for w in workloads::NAMES {
            let (out, chrome) = run(&args(w, false)).unwrap();
            assert!(out.correct && out.failed == 0 && out.attempted > 0, "{w}");
            assert!(chrome.is_none());
            let expected: Vec<String> = layers::END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .collect();
            assert_eq!(names(&out.metrics), expected, "{w}");
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{w}: a zero metric"
            );
            json::parse(&out.to_json()).expect("result line parses");
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_a_valid_trace() {
        for w in workloads::NAMES {
            let (out, chrome) = run(&args(w, true)).unwrap();
            assert!(out.correct && out.failed == 0, "{w}");
            let expected: Vec<String> = layers::per_layer().into_iter().map(|(n, _)| n).collect();
            assert_eq!(names(&out.metrics), expected, "{w}");
            assert!(
                out.metrics.get("trace.coverage").unwrap() >= MIN_COVERAGE,
                "{w}"
            );
            let trace = json::parse(&chrome.unwrap()).expect("trace parses");
            let events = trace
                .get("traceEvents")
                .and_then(json::Value::as_array)
                .unwrap();
            assert!(events.len() > 4, "{w}");
        }
    }
}
