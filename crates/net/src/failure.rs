//! Fault injection and graceful degradation (paper §IV-B's "backup
//! paths" remark, made concrete).
//!
//! The paper defers switch failures to "backup paths"; ElasticTree and
//! CARPO both observe that a consolidated topology is most fragile
//! exactly when the fewest switches are on. This module supplies the
//! machinery a controller needs to exercise that regime:
//!
//! * [`FailureSchedule`] — a deterministic, scripted timeline of switch
//!   fail/recover events.
//! * [`DegradationPolicy`] — the controller-side ladder: (1) in-epoch
//!   repair via [`Assignment::repair_after_switch_failure`], pricing the
//!   woken backups' boot energy through [`TransitionModel`]; (2) if the
//!   repair fails, the caller reconsolidates with the failed switches
//!   masked out; (3) as a last resort, the all-on configuration.
//! * [`DegradationStage`] — which rung of that ladder an epoch ended on.
//!
//! The schedule is pure data: it never touches the network itself, so
//! epochs that consult it stay independent (and parallelizable).

use eprons_topo::{MultipathTopology, NodeId};

use crate::consolidate::{Assignment, ConsolidationError};
use crate::flow::FlowSet;
use crate::power::NetworkPowerModel;
use crate::transition::{Churn, TransitionModel};

/// What happened to a switch at a schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureEventKind {
    /// The switch stops forwarding (crash, line-card death, mis-push).
    Fail,
    /// The switch is repaired and boots back into the candidate pool.
    Recover,
}

impl FailureEventKind {
    /// Journal-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            FailureEventKind::Fail => "fail",
            FailureEventKind::Recover => "recover",
        }
    }
}

/// One timestamped fail/recover event on one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Minutes since midnight (fractional minutes allowed).
    pub minute: f64,
    /// Node index of the affected switch.
    pub switch: usize,
    /// Fail or recover.
    pub kind: FailureEventKind,
}

/// A deterministic timeline of switch fail/recover events for one day.
///
/// Events are kept sorted by `(minute, switch)`; the schedule is pure
/// data and therefore safe to consult from parallel epoch evaluations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// The empty schedule: a failure-free day.
    pub fn none() -> Self {
        FailureSchedule { events: Vec::new() }
    }

    /// A schedule from explicit events (sorted internally).
    ///
    /// # Panics
    /// Panics if any event minute is non-finite.
    pub fn scripted(mut events: Vec<FailureEvent>) -> Self {
        assert!(
            events.iter().all(|e| e.minute.is_finite()),
            "event minutes must be finite"
        );
        events.sort_by(|a, b| {
            a.minute
                .partial_cmp(&b.minute)
                .expect("finite minutes")
                .then(a.switch.cmp(&b.switch))
        });
        FailureSchedule { events }
    }

    /// All events, sorted by `(minute, switch)`.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// True for the failure-free schedule.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Switches down at `minute`: those whose latest event at or before
    /// `minute` is a failure. Sorted by node index.
    pub fn failed_at(&self, minute: f64) -> Vec<usize> {
        let mut state: std::collections::BTreeMap<usize, bool> = std::collections::BTreeMap::new();
        for e in &self.events {
            if e.minute > minute {
                break;
            }
            state.insert(e.switch, e.kind == FailureEventKind::Fail);
        }
        state
            .into_iter()
            .filter_map(|(s, down)| down.then_some(s))
            .collect()
    }

    /// Events in the half-open window `[from, to)`, in order.
    pub fn events_in(&self, from: f64, to: f64) -> Vec<FailureEvent> {
        self.events
            .iter()
            .filter(|e| e.minute >= from && e.minute < to)
            .copied()
            .collect()
    }
}

/// How far down the degradation ladder an epoch had to go. Ordered:
/// later variants are worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationStage {
    /// Rung 1: victims re-routed in place; SLA evaluation stands.
    Repaired,
    /// Rung 2: the optimizer re-ran with failed switches masked out.
    Reconsolidated,
    /// Rung 3: fell back to the all-on configuration (minus failures).
    AllOnFallback,
    /// Rung 4: no surviving configuration; the epoch ran with broken
    /// paths and its SLA flag is forced false.
    Unprotected,
}

impl DegradationStage {
    /// Journal/CSV-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            DegradationStage::Repaired => "repaired",
            DegradationStage::Reconsolidated => "reconsolidated",
            DegradationStage::AllOnFallback => "all-on-fallback",
            DegradationStage::Unprotected => "unprotected",
        }
    }
}

/// Outcome of a successful in-epoch repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Indices of re-routed flows.
    pub rerouted: Vec<usize>,
    /// Switches woken to carry the re-routed traffic (node indices).
    pub woken: Vec<usize>,
    /// Boot energy charged for the woken backups (joules).
    pub boot_energy_j: f64,
    /// Power the crashed switch (and its still-lit ports) keeps drawing
    /// until the epoch-boundary power cycle (watts). A failed switch is
    /// hung, not gracefully powered down.
    pub dead_draw_w: f64,
}

/// The degradation ladder's knobs plus the transition model that prices
/// boot energy for woken backups and recovering switches.
#[derive(Debug, Clone)]
pub struct DegradationPolicy {
    /// Rung 1: attempt an in-epoch repair before anything drastic.
    pub attempt_repair: bool,
    /// Rung 2: if the repair fails, re-run the optimizer with failed
    /// switches masked out of every candidate.
    pub attempt_reconsolidate: bool,
    /// Boot-energy pricing (§IV-B: 72.52 s power-on per HPE switch).
    pub transition: TransitionModel,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            attempt_repair: true,
            attempt_reconsolidate: true,
            transition: TransitionModel::default(),
        }
    }
}

impl DegradationPolicy {
    /// Rung 1: repairs `assignment` around `failed`, returning what the
    /// repair cost. Wraps [`Assignment::repair_after_switch_failure`]
    /// (atomic: on `Err` the assignment is untouched) and prices the
    /// woken backups' boot energy through the transition model. The
    /// crashed switch's own draw until the next epoch boundary is
    /// reported as [`RepairReport::dead_draw_w`] so callers can keep
    /// charging it: a hung switch burns power without forwarding.
    pub fn try_repair(
        &self,
        assignment: &mut Assignment,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        failed: NodeId,
        power: &NetworkPowerModel,
    ) -> Result<RepairReport, ConsolidationError> {
        let mut sp = eprons_obs::Span::enter("net.repair");
        if eprons_obs::enabled() {
            sp.note(format!("failed={}", failed.0));
        }
        let topo = net.topology();
        let mut dead_draw_w = 0.0;
        if assignment.state().node_on(failed) {
            dead_draw_w += power.switch_w;
            for &(_, l) in topo.neighbors(failed) {
                if assignment.state().link_on(l) {
                    dead_draw_w += power.link_w;
                }
            }
        }
        let before = active_switch_ids(net, assignment);
        let rerouted = assignment.repair_after_switch_failure(net, flows, failed)?;
        let after = active_switch_ids(net, assignment);
        let woken = Churn::between(&before, &after).turned_on;
        let boot_energy_j =
            woken.len() as f64 * self.transition.boot_power_w * self.transition.power_on_s;
        Ok(RepairReport {
            rerouted,
            woken,
            boot_energy_j,
            dead_draw_w,
        })
    }

    /// Boot energy (joules) a repaired switch pays to rejoin the
    /// candidate pool after a recover event.
    pub fn recovery_boot_energy_j(&self) -> f64 {
        self.transition.boot_power_w * self.transition.power_on_s
    }
}

/// Active switch node indices of an assignment, sorted.
fn active_switch_ids(net: &dyn MultipathTopology, a: &Assignment) -> Vec<usize> {
    net.topology()
        .switches()
        .into_iter()
        .filter(|&n| a.state().node_on(n))
        .map(|n| n.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(minute: f64, switch: usize, kind: FailureEventKind) -> FailureEvent {
        FailureEvent {
            minute,
            switch,
            kind,
        }
    }

    #[test]
    fn scripted_events_are_sorted_and_queried_by_time() {
        let s = FailureSchedule::scripted(vec![
            ev(770.0, 3, FailureEventKind::Recover),
            ev(730.0, 3, FailureEventKind::Fail),
            ev(100.0, 7, FailureEventKind::Fail),
        ]);
        let minutes: Vec<f64> = s.events().iter().map(|e| e.minute).collect();
        assert_eq!(minutes, vec![100.0, 730.0, 770.0]);
        assert_eq!(s.failed_at(0.0), Vec::<usize>::new());
        assert_eq!(s.failed_at(200.0), vec![7]);
        assert_eq!(s.failed_at(740.0), vec![3, 7]);
        assert_eq!(s.failed_at(800.0), vec![7]); // 3 recovered at 770
    }

    /// A switch that fails, recovers and fails again is down exactly
    /// while its latest event at or before the minute is a failure —
    /// after an odd number of its alternating events.
    #[test]
    fn failed_at_follows_alternating_events() {
        let s = FailureSchedule::scripted(vec![
            ev(300.0, 5, FailureEventKind::Fail),
            ev(100.0, 5, FailureEventKind::Fail),
            ev(200.0, 5, FailureEventKind::Recover),
            ev(400.0, 5, FailureEventKind::Recover),
        ]);
        for (minute, down) in [
            (50.0, false),
            (100.0, true),
            (150.0, true),
            (200.0, false),
            (250.0, false),
            (300.0, true),
            (399.0, true),
            (400.0, false),
        ] {
            let expect: Vec<usize> = if down { vec![5] } else { vec![] };
            assert_eq!(s.failed_at(minute), expect, "minute {minute}");
        }
    }

    #[test]
    fn events_in_window_is_half_open() {
        let s = FailureSchedule::scripted(vec![
            ev(60.0, 1, FailureEventKind::Fail),
            ev(120.0, 1, FailureEventKind::Recover),
        ]);
        assert_eq!(s.events_in(0.0, 60.0).len(), 0);
        assert_eq!(s.events_in(60.0, 120.0).len(), 1);
        assert_eq!(s.events_in(120.0, 180.0).len(), 1);
        assert!(s.events_in(0.0, 240.0).len() == 2);
    }

    #[test]
    fn recovery_boot_energy_follows_transition_model() {
        let p = DegradationPolicy::default();
        let t = TransitionModel::default();
        assert!((p.recovery_boot_energy_j() - t.boot_power_w * t.power_on_s).abs() < 1e-9);
        assert!(p.recovery_boot_energy_j() > 0.0);
    }
}
