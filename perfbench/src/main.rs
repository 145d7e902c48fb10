//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload with CBP+PP for about `--seconds` seconds of host
//! time. With `--trace 0` it repeats the untraced timed run and reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! runs and reports the per-layer metrics. Either way it checks every
//! run's report digest against the public runner's and counts unfinished
//! pods as failures. Progress lines go to stdout; the last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use knots_analyzer::report_digest as digest;
use knots_core::metrics::RunReport;
use knots_obs::Obs;
use perfbench::calib::Probes;
use perfbench::runs::{self, cbp_pp};
use perfbench::timed::{DecideLog, Timed};
use perfbench::workload::{Inputs, Workload};
use perfbench::{procfs, stats};

const USAGE: &str =
    "usage: perfbench --workload <dnn-cbp|fleet1024|testbed-crash> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is repeated at least this often, and for at least this long, so
/// its interquartile mean measures the code rather than the host.
const SETUP_MIN_REPEATS: usize = 15;
const SETUP_MIN_SECS: f64 = 1.0;
/// Fewest timed runs, even when one run outlasts `--seconds`.
const MIN_PASSES: usize = 3;
/// Event capacity of the traced run's recorder.
const TRACE_CAPACITY: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if ["--workload", "--seed", "--seconds", "--trace"].contains(&k.as_str()) => {
                flags.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let trace = get("--trace")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, not {trace}")),
        },
    })
}

/// The correctness gate: every run's digest must equal the reference run's,
/// and every submitted pod must complete.
struct Gate {
    reference: u64,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new(reference: &RunReport) -> Gate {
        let mut g = Gate { reference: digest(reference), attempted: 0, failed: 0 };
        println!("digest reference: {:016x}", g.reference);
        g.pods(reference);
        g
    }

    /// Count a further reference run's pods; returns its digest.
    fn reference(&mut self, what: &str, r: &RunReport) -> u64 {
        let d = digest(r);
        println!("digest {what} reference: {d:016x}");
        self.pods(r);
        d
    }

    /// Check one run: one digest comparison plus one operation per pod.
    fn check(&mut self, what: &str, r: &RunReport) {
        self.check_against(what, r, self.reference);
    }

    /// Check one run against the reference digest `want`.
    fn check_against(&mut self, what: &str, r: &RunReport, want: u64) {
        let d = digest(r);
        self.attempted += 1;
        if d != want {
            self.failed += 1;
            println!("digest {what}: {d:016x} MISMATCH");
        } else {
            println!("digest {what}: {d:016x}");
        }
        self.pods(r);
    }

    fn pods(&mut self, r: &RunReport) {
        self.attempted += r.submitted as u64;
        self.failed += r.submitted.saturating_sub(r.completed) as u64;
    }
}

/// Reported metrics: name -> (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Repeat the set-up, probing the host between repeats; returns the
/// interquartile mean of the set-up CPU seconds in reference seconds and
/// the median generation wall seconds.
fn setup(w: Workload, seed: u64) -> (f64, f64) {
    let (mut totals, mut gens) = (Vec::new(), Vec::new());
    let probes = Probes::start();
    let t0 = Instant::now();
    while totals.len() < SETUP_MIN_REPEATS || t0.elapsed().as_secs_f64() < SETUP_MIN_SECS {
        let (total, gen) = runs::setup_once(w, seed);
        totals.push(total);
        gens.push(gen);
        probes.borrow_mut().poll();
    }
    let (total, gen) = (stats::interquartile_mean(&totals), stats::median(&gens));
    let scale = probes.borrow().scale();
    println!(
        "setup: n={} interquartile mean={total:.6}s cpu, median {:.6}s; gen={gen:.6}s wall; \
         probes={} scale={scale:.4}",
        totals.len(),
        stats::median(&totals),
        probes.borrow().times.len()
    );
    (total * scale, gen)
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part * 100.0 / whole
    }
}

/// Whether another pass of `last` seconds still fits before `deadline`.
fn fits(deadline: Instant, last: Duration) -> bool {
    Instant::now() + last <= deadline
}

/// The untraced timed run: end-to-end metrics.
///
/// Every run is calibrated: its CPU times exclude the probes run during it
/// and are scaled by them into reference seconds (`calib`). The CPU
/// metric is the median over runs. Each slice of each sliced input set
/// takes its median over runs; the slice percentiles are taken over those
/// medians, pooled over the input sets.
fn timed(
    inp: &Inputs,
    twins: &[(Inputs, u64)],
    setup_s: f64,
    seconds: u64,
    gate: &mut Gate,
    reference: &RunReport,
) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut cpus, mut walls, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    // slices[input set][slice] holds one sample per sliced run.
    let mut slices: Vec<Vec<Vec<f64>>> = vec![Vec::new(); twins.len()];
    let mut sliced_runs = 0;
    let mut last = Duration::ZERO;
    while cpus.len() < MIN_PASSES || fits(deadline, last) {
        let t0 = Instant::now();
        // On testbed-crash the timed run is the crash-recovery run, and
        // uninterrupted sliced twins, cheap beside it, supply the slice
        // times. Elsewhere the one sliced run is both.
        if inp.crashes() {
            let (r, scale, probes) = runs::recovered_calibrated(inp);
            gate.check("recovered", &r.report);
            println!(
                "recovered {}: wall={:.4}s cpu={:.4}s cpu/wall={:.3} probes={probes} scale={scale:.4}",
                cpus.len(),
                r.wall_s,
                r.cpu_s,
                r.cpu_s / r.wall_s
            );
            cpus.push(r.cpu_s * scale);
            walls.push(r.wall_s);
            scales.push(scale);
        }
        for ((twin, want), samples) in twins.iter().zip(&mut slices) {
            let s = runs::sliced(twin);
            gate.check_against("sliced", &s.report, *want);
            println!(
                "sliced {sliced_runs}: wall={:.4}s cpu={:.4}s cpu/wall={:.3} probes={} scale={:.4}",
                s.wall_s,
                s.cpu_s,
                s.cpu_s / s.wall_s,
                s.probes,
                s.scale
            );
            sliced_runs += 1;
            samples.resize(samples.len().max(s.slice_ms.len()), Vec::new());
            samples.iter_mut().zip(&s.slice_ms).for_each(|(v, &ms)| v.push(ms * s.scale));
            scales.push(s.scale);
            if !inp.crashes() {
                cpus.push(s.cpu_s * s.scale);
                walls.push(s.wall_s);
            }
        }
        last = t0.elapsed();
    }
    let sim_s = reference.duration.as_secs_f64();
    let cpu = stats::median(&cpus);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    println!(
        "timed runs: {} sliced runs: {sliced_runs} sim={sim_s}s cpu median={cpu:.4}s (reference) \
         wall median={:.4}s min={:.4}s max={:.4}s (host) scale median={:.4} min={:.4} max={:.4}",
        cpus.len(),
        stats::median(&walls),
        min(&walls),
        max(&walls),
        stats::median(&scales),
        min(&scales),
        max(&scales)
    );
    println!("sim_speed (host wall, not a metric): {:.2} sim_s/s", sim_s / stats::median(&walls));
    let slices: Vec<f64> = slices.iter().flatten().map(|v| stats::median(v)).collect();
    let mut sorted = slices.clone();
    sorted.sort_by(f64::total_cmp);
    let ladder: Vec<String> = [0.5, 0.9, 0.925, 0.95, 0.975, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, stats::percentile(&sorted, q)))
        .collect();
    println!("slice ms (reference CPU, nearest rank): {}", ladder.join(" "));

    let mut m = Metrics::new();
    m.insert("setup_s", (setup_s, "s"));
    m.insert("cpu_ms_per_sim_s", (cpu * 1e3 / sim_s, "ms"));
    for (name, q) in [("slice_ms_p50", 0.5), ("slice_ms_p95", 0.95)] {
        let (used, v) =
            stats::smoothed_tail(&slices, q).expect("every run has well over 20 slices");
        println!(
            "{name}: smoothed p{} of {} per-second medians from {} input sets",
            used * 100.0,
            slices.len(),
            twins.len()
        );
        m.insert(name, (v, "ms"));
    }
    m.insert("peak_rss_mb", (procfs::peak_rss_mb(), "MiB"));
    // Simulated outcomes; they repeat exactly for a seed. Each has to be
    // non-zero on every workload and steady across seeds; README.md gives
    // the spreads that ruled out the others logged here.
    let r = reference;
    m.insert("jct_p50_s", (r.all_jct.median, "sim_s"));
    m.insert("completed_pct", (pct(r.completed as f64, r.submitted as f64), "%"));
    println!(
        "outcomes: batch_jct_p50={:.3}s batch_jct_p99={:.3}s lc_p99={:.1}ms \
         qos_violation={:.3}% gpu_util_p50={:.1}% energy={:.1}kJ",
        r.batch_jct.median,
        r.batch_jct.p99,
        r.lc_latency.p99 * 1e3,
        pct(r.lc_violations as f64, r.lc_completed as f64),
        r.active_quartet().0,
        r.energy_joules / 1e3
    );
    m
}

/// Phase `name`'s total (ms) and p99 (µs) from a report's phase timers.
fn phase(r: &RunReport, name: &str) -> (f64, f64) {
    r.phase_timings
        .iter()
        .find(|p| p.phase == name)
        .map_or((0.0, 0.0), |p| (p.count as f64 * p.mean_us / 1e3, p.p99_us))
}

/// Recovery-layer metrics; measured on crash workloads, zero elsewhere.
const RECOVERY: [(&str, &str); 9] = [
    ("recovery.capture_ms_p50", "ms"),
    ("recovery.capture_ms_max", "ms"),
    ("recovery.snapshot_mb_max", "MB"),
    ("recovery.decode_ms_p50", "ms"),
    ("recovery.resume_ms_p50", "ms"),
    ("recovery.replayed_events", "count"),
    ("recovery.crashes", "count"),
    ("recovery.crash_ms_mean", "ms"),
    ("recovery.overhead_ms", "ms"),
];

fn traced_once(inp: &Inputs, gate: &mut Gate) -> Metrics {
    let mut m = Metrics::new();
    // Untraced sliced run: slice-boundary samples and, without crashes,
    // the untraced wall the trace overhead is taken against.
    let s = runs::sliced(inp);
    gate.check("sliced", &s.report);
    m.insert("sim.idle_node_share", (s.idle_node_share, "ratio"));
    m.insert("sched.pending_max", (s.pending_max as f64, "count"));

    // The traced uninterrupted run through the public runner.
    let log = Rc::new(RefCell::new(DecideLog::default()));
    let obs = Obs::with_trace_capacity(TRACE_CAPACITY);
    let t = runs::public(inp, Timed::boxed(cbp_pp(), &log), obs.clone());
    gate.check("traced", &t.report);
    let r = &t.report;
    let (step_ms, step_p99) = phase(r, "step");
    let (snap_ms, snap_p99) = phase(r, "snapshot");
    let (probe_ms, _) = phase(r, "probe");
    let (decide_span_ms, _) = phase(r, "decide");
    let (apply_ms, _) = phase(r, "apply");
    let wall_ms = t.wall_s * 1e3;
    let unattributed = wall_ms - (step_ms + snap_ms + probe_ms + decide_span_ms + apply_ms);
    let log = log.borrow();
    let decide_ms = log.wall_us.iter().sum::<f64>() / 1e3;
    let hits = obs.metrics.counter_value("knots_stats_cache_hits_total", &[]) as f64;
    let misses = obs.metrics.counter_value("knots_stats_cache_misses_total", &[]) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let p50 = stats::tail(&log.wall_us, 0.5);
    let p99 = stats::tail(&log.wall_us, 0.99);
    if let Some((q, _)) = p99 {
        println!("sched.decide_us_p99: p{} of {} calls", q * 100.0, log.wall_us.len());
    }
    let f = &r.faults;
    let faults = f.node_failures
        + f.degradations
        + f.probe_dropouts
        + f.corruption_windows
        + f.heartbeat_delays
        + f.controller_crashes;
    m.insert("sim.step_ms", (step_ms, "ms"));
    m.insert("sim.step_us_p99", (step_p99, "us"));
    m.insert("telemetry.snapshot_ms", (snap_ms, "ms"));
    m.insert("telemetry.snapshot_us_p99", (snap_p99, "us"));
    m.insert("telemetry.probe_ms", (probe_ms, "ms"));
    m.insert("telemetry.rejected_samples", (f.rejected_samples as f64, "count"));
    m.insert("sched.decide_ms", (decide_ms, "ms"));
    m.insert("sched.decide_us_p50", (p50.map_or(0.0, |t| t.1), "us"));
    m.insert("sched.decide_us_p99", (p99.map_or(0.0, |t| t.1), "us"));
    m.insert("sched.calls", (log.wall_us.len() as f64, "count"));
    m.insert("sched.actions", (log.actions as f64, "count"));
    m.insert("sched.cache_hit_ratio", (ratio(hits, hits + misses), "ratio"));
    m.insert("core.events", (r.events_processed as f64, "count"));
    m.insert("core.apply_ms", (apply_ms, "ms"));
    m.insert("core.skipped_ratio", (ratio(r.skipped_actions as f64, log.actions as f64), "ratio"));
    m.insert("core.unattributed_ms", (unattributed, "ms"));
    m.insert("chaos.faults", (faults as f64, "count"));

    // Layer shares of the traced wall. The core layer is what the
    // scheduler and the sim and telemetry phase timers do not cover; on a
    // crash workload the recovery layer is the traced crash-recovery run's
    // wall beyond the traced uninterrupted run's.
    let (mut base_ms, mut untraced_ms, mut recovery_ms) = (wall_ms, s.wall_s * 1e3, 0.0);
    for (name, unit) in RECOVERY {
        m.insert(name, (0.0, unit));
    }
    if inp.crashes() {
        let plain = runs::public(inp, cbp_pp(), Obs::disabled());
        gate.check("public", &plain.report);
        let rec = runs::recovered(inp, &cbp_pp, &Obs::disabled());
        gate.check("recovered", &rec.report);
        let rlog = Rc::new(RefCell::new(DecideLog::default()));
        let robs = Obs::with_trace_capacity(TRACE_CAPACITY);
        let rt = runs::recovered(inp, &|| Timed::boxed(cbp_pp(), &rlog), &robs);
        gate.check("recovered-traced", &rt.report);
        let c = runs::checkpoints(inp);
        let rs = &rt.report.recovery;
        base_ms = rt.wall_s * 1e3;
        recovery_ms = base_ms - wall_ms;
        untraced_ms = rec.wall_s * 1e3;
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
        for (name, v) in [
            ("recovery.capture_ms_p50", stats::median(&c.capture_ms)),
            ("recovery.capture_ms_max", max(&c.capture_ms)),
            ("recovery.snapshot_mb_max", max(&c.snapshot_mb)),
            ("recovery.decode_ms_p50", stats::median(&c.decode_ms)),
            ("recovery.resume_ms_p50", stats::median(&c.resume_ms)),
            ("recovery.replayed_events", rs.replayed_events as f64),
            ("recovery.crashes", rs.controller_crashes as f64),
            (
                "recovery.crash_ms_mean",
                rs.recovery_wall_us / 1e3 / rs.controller_crashes.max(1) as f64,
            ),
            ("recovery.overhead_ms", (rec.wall_s - plain.wall_s) * 1e3),
        ] {
            m.get_mut(name).expect("every recovery metric is pre-filled").0 = v;
        }
    }
    m.insert("core.wall_ms", (base_ms, "ms"));
    m.insert("core.untraced_wall_ms", (untraced_ms, "ms"));
    m.insert("share.sched_pct", (pct(decide_ms, base_ms), "%"));
    m.insert("share.sim_pct", (pct(step_ms, base_ms), "%"));
    m.insert("share.telemetry_pct", (pct(snap_ms + probe_ms, base_ms), "%"));
    m.insert(
        "share.core_pct",
        (pct(apply_ms + decide_span_ms - decide_ms + unattributed, base_ms), "%"),
    );
    m.insert("share.recovery_pct", (pct(recovery_ms, base_ms), "%"));
    m
}

/// The traced runs: per-layer metrics, each the median over iterations.
fn traced(inp: &Inputs, gen_s: f64, seconds: u64, gate: &mut Gate) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut iterations: Vec<Metrics> = Vec::new();
    let mut last = Duration::ZERO;
    while iterations.is_empty() || fits(deadline, last) {
        let t0 = Instant::now();
        let m = traced_once(inp, gate);
        println!(
            "traced pass {}: traced wall={:.1}ms untraced wall={:.1}ms",
            iterations.len(),
            m["core.wall_ms"].0,
            m["core.untraced_wall_ms"].0
        );
        iterations.push(m);
        last = t0.elapsed();
    }
    let mut out = Metrics::new();
    out.insert("workloads.gen_ms", (gen_s * 1e3, "ms"));
    let all = |name: &str| iterations.iter().map(|m| m[name].0).collect::<Vec<_>>();
    for (&name, &(_, unit)) in &iterations[0] {
        out.insert(name, (stats::median(&all(name)), unit));
    }
    // Both walls as in the timed run: the fastest iteration of each.
    let min = |xs: Vec<f64>| xs.into_iter().fold(f64::INFINITY, f64::min);
    let overhead = pct(min(all("core.wall_ms")), min(all("core.untraced_wall_ms"))) - 100.0;
    out.insert("trace.overhead_pct", (overhead, "%"));
    out
}

fn json(correct: bool, gate: &Gate, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            // JSON has no NaN or infinity; such a value already made the
            // result incorrect.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!("{}", procfs::host_line());
    // One CPU: with two, the default worker pool of the 256- and 1,024-node
    // clusters ran its workers in parallel or one after the other as the
    // shared host allowed, and the same run's wall time varied 1.8x and
    // its CPU time 1.4x (README.md, Estimators).
    let pinned = procfs::pin_to_one_cpu();
    println!(
        "pinned to cpu {} (available_parallelism now {})",
        pinned.map_or("none".into(), |c| c.to_string()),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let (setup_s, gen_s) = setup(w, args.seed);
    let inp = w.inputs(args.seed);
    // Warm-up and reference: the uninterrupted run through the public
    // runner. Its outcomes are the simulated metrics.
    let reference = runs::public(&inp, cbp_pp(), Obs::disabled()).report;
    let mut gate = Gate::new(&reference);
    let metrics = if args.trace {
        traced(&inp, gen_s, args.seconds, &mut gate)
    } else {
        // The input sets the slice times come from, each with the digest
        // of its uninterrupted run through the public runner.
        let mut twins = vec![(inp.clone(), gate.reference)];
        for seed in w.twin_seeds(args.seed).into_iter().skip(1) {
            let twin = w.inputs(seed);
            let r = runs::public(&twin, cbp_pp(), Obs::disabled()).report;
            let d = gate.reference(&format!("twin seed={seed}"), &r);
            twins.push((twin, d));
        }
        timed(&inp, &twins, setup_s, args.seconds, &mut gate, &reference)
    };
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    println!("load at end: {}", procfs::loadavg());
    println!(
        "process cpu: clock={:.3}s /proc/self/stat={:.2}s",
        procfs::cpu_clock_s(),
        procfs::cpu_s()
    );
    println!("failed share: {}/{}", gate.failed, gate.attempted);
    println!("{}", json(finite && gate.failed == 0, &gate, &metrics));
    ExitCode::SUCCESS
}
