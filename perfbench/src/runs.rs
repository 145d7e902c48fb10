//! The passes the benchmark makes over one workload's inputs, each timed
//! from outside the program.

use std::time::Instant;

use knots_chaos::ChaosEngine;
use knots_core::experiment::run_schedule_traced;
use knots_core::metrics::RunReport;
use knots_core::orchestrator::KubeKnots;
use knots_obs::Obs;
use knots_recovery::{run_with_recovery, RecoveryConfig, Snapshot};
use knots_sched::pp::CbpPp;
use knots_sched::Scheduler;
use knots_sim::time::SimDuration;

use crate::calib::{Calibrated, Probes};
use crate::procfs;
use crate::workload::{Inputs, Workload};

/// A fresh CBP+PP scheduler, the paper's policy.
pub fn cbp_pp() -> Box<dyn Scheduler> {
    Box::new(CbpPp::new())
}

fn orchestrator(inp: &Inputs, sched: Box<dyn Scheduler>) -> KubeKnots {
    KubeKnots::new(inp.cluster.clone(), sched, inp.orch)
        .with_chaos(ChaosEngine::new(inp.plan.clone()))
}

/// Process CPU seconds of the set-up a user pays before the first event:
/// workload (and fault-plan) generation, `KubeKnots::new` and `begin`.
/// Also returns the generation part alone, in host wall seconds.
pub fn setup_once(w: Workload, seed: u64) -> (f64, f64) {
    let c0 = procfs::cpu_clock_s();
    let inp = w.inputs(seed);
    let mut k = orchestrator(&inp, cbp_pp());
    k.begin(&inp.schedule);
    let total = procfs::cpu_clock_s() - c0;
    drop(k);
    (total, inp.gen_s)
}

/// One uninterrupted run driven through `begin` / `drive` in 1-s simulated
/// slices, with the calibration probes run during it. Every time excludes
/// the probes.
pub struct Sliced {
    /// Host wall seconds inside `drive`.
    pub wall_s: f64,
    /// Process CPU seconds inside `drive`.
    pub cpu_s: f64,
    /// Process CPU ms per simulated second, one entry per slice.
    pub slice_ms: Vec<f64>,
    /// Factor from this run's CPU seconds to reference seconds.
    pub scale: f64,
    /// Probes made during the run.
    pub probes: usize,
    /// Mean share of nodes with no resident pod at slice boundaries.
    pub idle_node_share: f64,
    /// Largest pending queue seen at a slice boundary.
    pub pending_max: usize,
    /// The run's report.
    pub report: RunReport,
}

/// Drive an uninterrupted run in 1-s simulated slices, with CBP+PP wrapped
/// in the calibration decorator.
pub fn sliced(inp: &Inputs) -> Sliced {
    let probes = Probes::start();
    let mut k = orchestrator(inp, Calibrated::boxed(cbp_pp(), &probes));
    k.begin(&inp.schedule);
    let slice = SimDuration::from_secs(1);
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut slice_ms = Vec::new();
    let (mut idle_sum, mut boundaries, mut pending_max) = (0.0, 0usize, 0usize);
    loop {
        let from = k.cluster().now();
        let (probed, probed_wall) = {
            let p = probes.borrow();
            (p.total_s(), p.wall_s)
        };
        let t0 = Instant::now();
        let c0 = procfs::cpu_clock_s();
        let done = k.drive(&inp.schedule, Some(from + slice));
        let c = procfs::cpu_clock_s() - c0;
        let w = t0.elapsed().as_secs_f64();
        let p = probes.borrow();
        let c = c - (p.total_s() - probed);
        wall_s += w - (p.wall_s - probed_wall);
        cpu_s += c;
        drop(p);
        let advanced = k.cluster().now().saturating_since(from).as_secs_f64();
        if advanced > 0.0 {
            slice_ms.push(c * 1e3 / advanced);
        }
        if done {
            break;
        }
        let nodes = k.cluster().nodes();
        let idle = nodes.iter().filter(|n| n.resident_count() == 0).count();
        idle_sum += idle as f64 / nodes.len() as f64;
        boundaries += 1;
        pending_max = pending_max.max(k.cluster().pending_len());
    }
    let probes = probes.borrow();
    Sliced {
        wall_s,
        cpu_s,
        slice_ms,
        scale: probes.scale(),
        probes: probes.times.len(),
        idle_node_share: idle_sum / boundaries.max(1) as f64,
        pending_max,
        report: k.report_now(inp.schedule.len()),
    }
}

/// A run through a public runner, with its host wall and CPU seconds.
pub struct Timing {
    /// Host wall seconds of the call.
    pub wall_s: f64,
    /// Process CPU seconds of the call.
    pub cpu_s: f64,
    /// The run's report.
    pub report: RunReport,
}

fn timing(f: impl FnOnce() -> RunReport) -> Timing {
    let t0 = Instant::now();
    let c0 = procfs::cpu_clock_s();
    let report = f();
    let cpu_s = procfs::cpu_clock_s() - c0;
    Timing { wall_s: t0.elapsed().as_secs_f64(), cpu_s, report }
}

/// The uninterrupted run through the public runner `run_schedule_traced`.
pub fn public(inp: &Inputs, sched: Box<dyn Scheduler>, obs: Obs) -> Timing {
    timing(|| {
        run_schedule_traced(
            sched,
            &inp.schedule,
            inp.cluster.clone(),
            inp.orch,
            obs,
            inp.plan.clone(),
            knots_trace::Tracer::disabled(),
        )
    })
}

/// The crash-recovery run: `run_with_recovery` with the default 10-s
/// checkpoints, killing the controller at every planned crash.
pub fn recovered(inp: &Inputs, make: &dyn Fn() -> Box<dyn Scheduler>, obs: &Obs) -> Timing {
    timing(|| {
        run_with_recovery(
            &inp.cluster,
            make,
            &inp.orch,
            &inp.plan,
            &inp.schedule,
            &RecoveryConfig::default(),
            obs,
        )
        .expect("crash recovery replays to the uninterrupted timeline")
    })
}

/// The crash-recovery run of [`recovered`] with every scheduler instance
/// wrapped in the calibration decorator. Its times exclude the probes;
/// also returns the factor from its CPU seconds to reference seconds and
/// the number of probes.
pub fn recovered_calibrated(inp: &Inputs) -> (Timing, f64, usize) {
    let probes = Probes::start();
    let (probed, probed_wall) = {
        let p = probes.borrow();
        (p.total_s(), p.wall_s)
    };
    let mut t = recovered(inp, &|| Calibrated::boxed(cbp_pp(), &probes), &Obs::disabled());
    let p = probes.borrow();
    t.cpu_s -= p.total_s() - probed;
    t.wall_s -= p.wall_s - probed_wall;
    (t, p.scale(), p.times.len())
}

/// Costs of the recovery layer's pieces at each checkpoint instant.
#[derive(Debug, Default)]
pub struct Checkpoints {
    /// `Snapshot::capture` wall, ms.
    pub capture_ms: Vec<f64>,
    /// `Snapshot::state` (verify + decode) wall, ms.
    pub decode_ms: Vec<f64>,
    /// `KubeKnots::resume` wall, ms.
    pub resume_ms: Vec<f64>,
    /// Snapshot payload size, MB.
    pub snapshot_mb: Vec<f64>,
}

/// Drive an uninterrupted run with `begin` / `drive`, stopping at every
/// checkpoint instant of the default recovery cadence (t=0 included) to
/// time a capture, a decode and a resume of the paused state.
pub fn checkpoints(inp: &Inputs) -> Checkpoints {
    let every = RecoveryConfig::default().checkpoint_every;
    let mut k = orchestrator(inp, cbp_pp());
    k.begin(&inp.schedule);
    let mut out = Checkpoints::default();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let mut next = k.cluster().now();
    loop {
        let t0 = Instant::now();
        let snap = Snapshot::capture(&k).expect("a begun run is paused between drives");
        out.capture_ms.push(ms(t0));
        out.snapshot_mb.push(snap.payload.len() as f64 / 1e6);
        let t0 = Instant::now();
        let state = snap.state().expect("a fresh snapshot verifies");
        out.decode_ms.push(ms(t0));
        let t0 = Instant::now();
        let revived = KubeKnots::resume(
            inp.cluster.clone(),
            cbp_pp(),
            inp.orch,
            Some(inp.plan.clone()),
            state,
        )
        .expect("a fresh snapshot resumes");
        out.resume_ms.push(ms(t0));
        drop(revived);
        // The harness's cadence: a fixed grid, skipping instants a pause
        // boundary overshot.
        while next <= k.cluster().now() {
            next += every;
        }
        if k.drive(&inp.schedule, Some(next)) {
            break;
        }
    }
    out
}
