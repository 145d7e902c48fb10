//! End-to-end and per-layer benchmark of the Kube-Knots reproduction.
//!
//! Every number is measured from outside the program: by timing the
//! benchmark's own calls into public functions, by a timing decorator
//! around the scheduler, and from the counters and phase timers the
//! program already exports. See `README.md` in this directory.

pub mod calib;
pub mod procfs;
pub mod runs;
pub mod stats;
pub mod timed;
pub mod workload;
