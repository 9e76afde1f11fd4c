//! Switch on/off transition overheads (paper §IV-B).
//!
//! "In the current design, we ignore the switch ON/OFF transition
//! overheads because we use a software switch. However, our measurement on
//! a HPE switch show that the power-on time is about 72.52 sec. We can
//! avoid the transition overheads by having 'backup' paths, as described
//! in \[5\] or a novel hardware design with sleep states \[2\]."
//!
//! This module provides the accounting the paper defers: energy spent
//! during power-on ramps (a booting switch burns power but carries no
//! traffic) and the reconfiguration churn between consecutive controller
//! epochs.

use std::collections::BTreeSet;

/// Transition cost model for one switch.
#[derive(Debug, Clone)]
pub struct TransitionModel {
    /// Seconds a switch takes to become forwarding after power-on
    /// (measured 72.52 s on the HPE E3800).
    pub power_on_s: f64,
    /// Seconds to quiesce and power down.
    pub power_off_s: f64,
    /// Watts drawn while booting (full switch power: the ASIC is up but
    /// not forwarding).
    pub boot_power_w: f64,
}

impl Default for TransitionModel {
    fn default() -> Self {
        TransitionModel {
            power_on_s: 72.52,
            power_off_s: 5.0,
            boot_power_w: 36.0,
        }
    }
}

/// Churn between two consecutive active sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Churn {
    /// Switch indices powered on this epoch.
    pub turned_on: Vec<usize>,
    /// Switch indices powered off this epoch.
    pub turned_off: Vec<usize>,
}

impl Churn {
    /// Computes the churn from the previous to the current active set.
    pub fn between(prev: &[usize], cur: &[usize]) -> Churn {
        let p: BTreeSet<usize> = prev.iter().copied().collect();
        let c: BTreeSet<usize> = cur.iter().copied().collect();
        Churn {
            turned_on: c.difference(&p).copied().collect(),
            turned_off: p.difference(&c).copied().collect(),
        }
    }

    /// Total switches touched.
    pub fn magnitude(&self) -> usize {
        self.turned_on.len() + self.turned_off.len()
    }

    /// `true` iff nothing changed.
    pub fn is_empty(&self) -> bool {
        self.magnitude() == 0
    }
}

impl TransitionModel {
    /// Extra energy (joules) one reconfiguration costs: every switch
    /// turning on burns boot power for the power-on time without serving,
    /// and a switch turning off keeps burning through its quiesce window.
    pub fn transition_energy_j(&self, churn: &Churn) -> f64 {
        churn.turned_on.len() as f64 * self.boot_power_w * self.power_on_s
            + churn.turned_off.len() as f64 * self.boot_power_w * self.power_off_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_between_sets() {
        let c = Churn::between(&[1, 2, 3], &[2, 3, 4, 5]);
        assert_eq!(c.turned_on, vec![4, 5]);
        assert_eq!(c.turned_off, vec![1]);
        assert_eq!(c.magnitude(), 3);
        assert!(!c.is_empty());
        assert!(Churn::between(&[1, 2], &[2, 1]).is_empty());
    }

    #[test]
    fn hpe_boot_energy() {
        let m = TransitionModel::default();
        let c = Churn::between(&[], &[0]);
        // One switch booting: 36 W × 72.52 s ≈ 2611 J.
        assert!((m.transition_energy_j(&c) - 36.0 * 72.52).abs() < 1e-9);
    }
}
