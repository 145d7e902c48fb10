//! The three workloads and their seeded inputs.
//!
//! Every workload runs CBP+PP, the paper's scheduler, on configs built from
//! `Default` / `dnn_sim()` plus the image pre-pulls the packaged runners
//! (`run_mix`, `run_dnn`) apply.

use std::time::Instant;

use knots_chaos::{gen, FaultPlan};
use knots_core::config::OrchestratorConfig;
use knots_sim::cluster::ClusterConfig;
use knots_sim::time::{SimDuration, SimTime};
use knots_workloads::djinn::InferenceService;
use knots_workloads::dnn::{self, DnnWorkloadConfig};
use knots_workloads::loadgen::{LoadGenConfig, LoadGenerator, ScheduledPod};
use knots_workloads::AppMix;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §V-C DNN study on the 256-GPU `dnn_sim` topology: scheduler-heavy,
    /// CBP+PP's decisions over a busy cluster.
    DnnCbp,
    /// 1,024 testbed nodes, Mix2: step- and telemetry-heavy on a mostly
    /// idle fleet.
    Fleet1024,
    /// The 10-node testbed, Mix2, under node faults plus controller crashes
    /// driven through crash recovery: recovery-heavy.
    TestbedCrash,
}

/// DNN trace: half the compressed trace's jobs (520 DLT + 1,400 DLI over
/// 360 s at time scale 1/120) over a quarter of its window, at half its
/// time scale. That keeps its offered load (GPU-seconds per second), and
/// the longest job (360 s) still completes, so a run is short enough to
/// repeat and no pod is left unfinished.
const DNN_SECS: u64 = 90;
const DNN_DLT: usize = 260;
const DNN_DLI: usize = 700;
const DNN_TIME_SCALE: f64 = 1.0 / 240.0;
/// Long enough for every DNN job to complete; the run ends when they have.
const DNN_DRAIN_SECS: u64 = 3000;
/// Fleet size and window of `fleet1024`.
const FLEET_NODES: usize = 1024;
const FLEET_SECS: u64 = 120;
/// Window and fault rates of `testbed-crash`.
const CRASH_SECS: u64 = 300;
const FAULTS_PER_MIN: f64 = 6.0;
const CRASHES_PER_MIN: f64 = 3.0;
/// Input sets `testbed-crash` takes its slice times over.
const TWINS: u64 = 8;
/// Distance between the seeds of those input sets.
const TWIN_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::DnnCbp, Workload::Fleet1024, Workload::TestbedCrash];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DnnCbp => "dnn-cbp",
            Workload::Fleet1024 => "fleet1024",
            Workload::TestbedCrash => "testbed-crash",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seeds of the input sets the slice times are taken over: `seed`
    /// itself and, on `testbed-crash`, `TWINS - 1` more derived from it.
    ///
    /// A 10-node Mix2 run over 300 s has only 19-34 batch jobs, and its
    /// per-second cost follows their total work, which varied 2.1x between
    /// seeds (slice-time spread 26% over 8 seeds). The uninterrupted runs
    /// that give `testbed-crash` its slice times take 0.2 s, so it pools
    /// them over eight input sets, about 200 batch jobs.
    pub fn twin_seeds(self, seed: u64) -> Vec<u64> {
        let n = if self == Workload::TestbedCrash { TWINS } else { 1 };
        (0..n).map(|k| seed.wrapping_add(k.wrapping_mul(TWIN_SEED_STRIDE))).collect()
    }

    /// Generate this workload's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::DnnCbp => {
                let dnn_cfg = DnnWorkloadConfig {
                    dlt_jobs: DNN_DLT,
                    dli_tasks: DNN_DLI,
                    duration: SimDuration::from_secs(DNN_SECS),
                    time_scale: DNN_TIME_SCALE,
                    seed,
                };
                let t0 = Instant::now();
                let schedule: Vec<ScheduledPod> = dnn::generate(&dnn_cfg)
                    .into_iter()
                    .map(|t| ScheduledPod { at: t.at, spec: t.spec })
                    .collect();
                let gen_s = t0.elapsed().as_secs_f64();
                // Serving images pre-pulled, as `run_dnn` does.
                let mut cluster = ClusterConfig::dnn_sim();
                cluster.prewarm_images = InferenceService::ALL.iter().map(|s| s.image()).collect();
                Inputs {
                    schedule,
                    cluster,
                    orch: OrchestratorConfig {
                        drain_grace: SimDuration::from_secs(DNN_DRAIN_SECS),
                        ..OrchestratorConfig::dnn_sim()
                    },
                    plan: FaultPlan::empty(),
                    gen_s,
                }
            }
            Workload::Fleet1024 => mix_inputs(FLEET_NODES, FLEET_SECS, seed, 0.0, 0.0),
            Workload::TestbedCrash => mix_inputs(
                knots_sim::config::TESTBED_WORKER_NODES,
                CRASH_SECS,
                seed,
                FAULTS_PER_MIN,
                CRASHES_PER_MIN,
            ),
        }
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Arrivals, sorted by time.
    pub schedule: Vec<ScheduledPod>,
    /// Cluster topology.
    pub cluster: ClusterConfig,
    /// Control-loop timing.
    pub orch: OrchestratorConfig,
    /// Fault plan (empty without chaos).
    pub plan: FaultPlan,
    /// Host seconds spent in the workload and fault-plan generators.
    pub gen_s: f64,
}

impl Inputs {
    /// Whether the plan schedules controller crashes (run through
    /// `run_with_recovery`).
    pub fn crashes(&self) -> bool {
        !self.plan.controller_crashes().is_empty()
    }
}

/// Independent Mix2 tenants a Mix2 workload is made of, each at this
/// fraction of Mix2's arrival rate. One Mix2 stream is bursty enough that
/// its pod count over 300 s varies by about 25% (quartile spread over
/// median) between seeds; four quarter-rate tenants keep Mix2's mean rate
/// and cut that to about 6%, so a seed changes the inputs, not their size.
const TENANTS: u64 = 4;

pub(crate) fn mix_inputs(
    nodes: usize,
    secs: u64,
    seed: u64,
    faults_pm: f64,
    crashes_pm: f64,
) -> Inputs {
    let duration = SimDuration::from_secs(secs);
    let t0 = Instant::now();
    let mut schedule = Vec::new();
    for tenant in 0..TENANTS {
        let mut cfg = LoadGenConfig::new(duration, seed.wrapping_mul(TENANTS).wrapping_add(tenant));
        cfg.rate_scale = 1.0 / TENANTS as f64;
        schedule.extend(LoadGenerator::generate(AppMix::Mix2, &cfg));
    }
    schedule.sort_by_key(|p| p.at);
    let mut events =
        gen::generate(&gen::GenConfig { seed, nodes, duration, faults_per_minute: faults_pm })
            .events;
    // One crash per stratum of 60/crashes_pm seconds, placed by the chaos
    // generator within it. Uniform crash instants over the whole window make
    // the recovery cost (which grows with the instant's snapshot size) vary
    // by about 20% between seeds; strata keep the rate and the jitter.
    if crashes_pm > 0.0 {
        let stratum = SimDuration::from_secs_f64(60.0 / crashes_pm);
        for k in 0..(duration.as_secs_f64() / stratum.as_secs_f64()) as u64 {
            let sub_seed = seed.wrapping_mul(1 << 20).wrapping_add(k);
            let start = SimTime::ZERO + stratum * k;
            events.extend(
                gen::generate_controller_crashes(sub_seed, stratum, crashes_pm).into_iter().map(
                    |mut e| {
                        e.at = start + e.at.saturating_since(SimTime::ZERO);
                        e
                    },
                ),
            );
        }
    }
    let plan = FaultPlan::from_events(events);
    let gen_s = t0.elapsed().as_secs_f64();
    // The testbed topology `run_mix` uses, LC images pre-pulled.
    let mut cluster = ClusterConfig::homogeneous(nodes, knots_sim::config::TESTBED_GPU);
    cluster.prewarm_images = AppMix::Mix2.lc_services().iter().map(|s| s.image()).collect();
    Inputs { schedule, cluster, orch: OrchestratorConfig::default(), plan, gen_s }
}
