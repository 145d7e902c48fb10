//! A timing decorator around the scheduler handed to the orchestrator, so
//! the scheduler layer is measured from outside the program.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use knots_sched::{Action, SchedContext, Scheduler};

/// What the decorator saw, shared by every decorator built from one log
/// (a crash-recovery run builds a fresh scheduler per restart).
#[derive(Debug, Default)]
pub struct DecideLog {
    /// Wall time of each `decide` call, µs.
    pub wall_us: Vec<f64>,
    /// Actions returned across all calls.
    pub actions: u64,
}

/// Forwards every [`Scheduler`] method to `inner`, timing `decide`.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    log: Rc<RefCell<DecideLog>>,
}

impl Timed {
    /// Wrap `inner`, recording into `log`.
    pub fn boxed(inner: Box<dyn Scheduler>, log: &Rc<RefCell<DecideLog>>) -> Box<dyn Scheduler> {
        Box::new(Timed { inner, log: Rc::clone(log) })
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let t0 = Instant::now();
        let actions = self.inner.decide(ctx);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let mut log = self.log.borrow_mut();
        log.wall_us.push(us);
        log.actions += actions.len() as u64;
        actions
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
    fn decorator_is_transparent() {
        // 10 testbed nodes, 30 s of Mix2, with node faults and controller
        // crashes, so crash recovery exercises the state forwarding.
        let inp = mix_inputs(10, 30, 7, 6.0, 3.0);
        assert!(inp.crashes());
        let log = Rc::new(RefCell::new(DecideLog::default()));
        let plain = runs::public(&inp, cbp_pp(), Obs::disabled()).report;
        let timed = runs::public(&inp, Timed::boxed(cbp_pp(), &log), Obs::disabled()).report;
        assert_eq!(digest(&plain), digest(&timed));
        let calls = log.borrow().wall_us.len();
        assert!(calls > 0);

        let recovered =
            runs::recovered(&inp, &|| Timed::boxed(cbp_pp(), &log), &Obs::disabled()).report;
        assert!(recovered.recovery.controller_crashes > 0);
        assert_eq!(digest(&plain), digest(&recovered));
        assert!(log.borrow().wall_us.len() > calls);
    }
}
