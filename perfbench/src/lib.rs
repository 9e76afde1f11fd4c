//! The EPRONS controller-day benchmark: the workloads it drives and the
//! per-layer metrics it folds from a traced day. `run.py` is the front
//! door; it runs the `eprons-perfbench` binary once per measured process.

pub mod layers;
pub mod workload;
