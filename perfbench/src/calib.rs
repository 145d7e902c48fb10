//! A fixed CPU and memory probe, independent of the program under test,
//! run between pieces of the program's own work to measure how fast the
//! shared host is running at that moment.
//!
//! On a 2-vCPU VM that shares its cores, the CPU time of the same
//! simulation changes by up to 40% within a minute: the host's other
//! tenants slow the core down. A probe timed once before a multi-second
//! run misses most of that, so the probe runs every [`EVERY`] of host time
//! *during* the run, called from the [`Calibrated`] scheduler decorator.
//! The probes' time is subtracted from the run, and the run's CPU times
//! are scaled by `(REFERENCE_S / mean probe CPU time) ^ SENSITIVITY`: they
//! read as seconds on a host that runs the probe in `REFERENCE_S`.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use knots_sched::{Action, SchedContext, Scheduler};

use crate::procfs::cpu_clock_s;

/// Probe time of the reference host (about that of the 2-vCPU host the
/// benchmark was tuned on when it was quiet).
pub const REFERENCE_S: f64 = 0.008;

/// How much more the simulation's CPU time moves with the host's speed
/// than the probe's, as an exponent. Over two sets of 10-seed runs of
/// three workloads (`README.md`), the scaled metrics still rose as the
/// probe slowed. The least-squares exponent was about 1.35-1.5 on
/// `fleet1024` and on `testbed-crash`'s slice times, 1.75 on `dnn-cbp`,
/// and about 1 for `testbed-crash`'s CPU time. With 1.4 in place of 1,
/// the larger of the two sets' spreads shrank for 8 of the 9 pairs of
/// host-time metric and workload; for `testbed-crash`'s CPU time it grew
/// from 0.074 to 0.109.
pub const SENSITIVITY: f64 = 1.4;

/// Host time between the end of one probe and the start of the next.
pub const EVERY: Duration = Duration::from_millis(100);

/// Elements of the probe's sort; 1 MiB, more than a core's L2.
const SORT_LEN: usize = 1 << 17;
/// Insertions of the probe's allocation churn.
const CHURN: u64 = 20_000;
/// Live entries the churn keeps.
const CHURN_LIVE: usize = 4096;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// CPU seconds of one probe: sort 1 MiB of LCG output and make dependent
/// binary searches into it, then churn small heap blocks through a
/// `BTreeMap`. The first part is cache-bound, the second allocator- and
/// pointer-bound, like the simulation.
pub fn probe_s() -> f64 {
    let c0 = cpu_clock_s();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<u64> = (0..SORT_LEN).map(|_| lcg(&mut x) >> 11).collect();
    v.sort_unstable();
    let mut acc = 0u64;
    for i in 0..SORT_LEN / 4 {
        let key = v[(acc as usize ^ i) & (SORT_LEN - 1)];
        acc = acc.wrapping_add(v.partition_point(|&y| y < key) as u64);
    }
    let mut m = std::collections::BTreeMap::new();
    for i in 0..CHURN {
        let r = lcg(&mut x);
        m.insert(r >> 40, vec![i as u8; 64 + (r as usize & 127)]);
        if m.len() > CHURN_LIVE {
            m.pop_first();
        }
    }
    black_box((acc, m.len()));
    cpu_clock_s() - c0
}

/// The probes of one run.
#[derive(Debug)]
pub struct Probes {
    /// CPU seconds of each probe.
    pub times: Vec<f64>,
    /// Wall seconds of all probes.
    pub wall_s: f64,
    last: Instant,
}

impl Probes {
    /// Start a run with one probe, so every run has at least one.
    pub fn start() -> Rc<RefCell<Probes>> {
        let mut p = Probes { times: Vec::new(), wall_s: 0.0, last: Instant::now() };
        p.probe();
        Rc::new(RefCell::new(p))
    }

    fn probe(&mut self) {
        let t0 = Instant::now();
        self.times.push(probe_s());
        self.last = Instant::now();
        self.wall_s += (self.last - t0).as_secs_f64();
    }

    /// Probe if [`EVERY`] has passed since the last probe ended.
    pub fn poll(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.probe();
        }
    }

    /// CPU seconds spent probing so far.
    pub fn total_s(&self) -> f64 {
        self.times.iter().sum()
    }

    /// Factor that turns this run's CPU seconds into reference seconds.
    pub fn scale(&self) -> f64 {
        (REFERENCE_S * self.times.len() as f64 / self.total_s()).powf(SENSITIVITY)
    }
}

/// Forwards every [`Scheduler`] method to `inner`, polling the probes
/// before each `decide`: the one call every scheduling round makes, in
/// every kind of run, crash-recovery runs included.
pub struct Calibrated {
    inner: Box<dyn Scheduler>,
    probes: Rc<RefCell<Probes>>,
}

impl Calibrated {
    /// Wrap `inner`, probing into `probes`.
    pub fn boxed(inner: Box<dyn Scheduler>, probes: &Rc<RefCell<Probes>>) -> Box<dyn Scheduler> {
        Box::new(Calibrated { inner, probes: Rc::clone(probes) })
    }
}

impl Scheduler for Calibrated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        self.probes.borrow_mut().poll();
        self.inner.decide(ctx)
    }

    fn consolidates(&self) -> bool {
        self.inner.consolidates()
    }

    fn wants_cluster_auto_sleep(&self) -> bool {
        self.inner.wants_cluster_auto_sleep()
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{self, cbp_pp};
    use crate::workload::mix_inputs;
    use knots_analyzer::report_digest as digest;
    use knots_obs::Obs;

    #[test]
    fn probes_are_counted_and_scaled() {
        let p = Probes::start();
        assert_eq!(p.borrow().times.len(), 1);
        // Too soon for a second probe.
        p.borrow_mut().poll();
        assert_eq!(p.borrow().times.len(), 1);
        let p = p.borrow();
        assert!(p.total_s() > 0.0 && p.wall_s > 0.0);
        let speed = REFERENCE_S / p.total_s();
        assert!((p.scale() - speed.powf(SENSITIVITY)).abs() < 1e-12);
    }

    #[test]
    fn decorator_is_transparent() {
        // Node faults and controller crashes, so crash recovery exercises
        // the state forwarding of schedulers rebuilt on every restart.
        let inp = mix_inputs(10, 30, 7, 6.0, 3.0);
        assert!(inp.crashes());
        let plain = runs::public(&inp, cbp_pp(), Obs::disabled()).report;
        let probes = Probes::start();
        let calibrated =
            runs::public(&inp, Calibrated::boxed(cbp_pp(), &probes), Obs::disabled()).report;
        assert_eq!(digest(&plain), digest(&calibrated));
        let recovered =
            runs::recovered(&inp, &|| Calibrated::boxed(cbp_pp(), &probes), &Obs::disabled())
                .report;
        assert!(recovered.recovery.controller_crashes > 0);
        assert_eq!(digest(&plain), digest(&recovered));
    }
}
