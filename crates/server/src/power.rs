//! CPU power model from the paper's measurements (§V-A).
//!
//! Measured on a 12-core Xeon E5-2697 v2: a core draws 1.4 W at 1.2 GHz
//! and 4.4 W at 2.7 GHz. We fit the classic `P(f) = P_leak + c·f³`
//! (dynamic power ∝ V²f with V roughly ∝ f) through those two points:
//! `c = 3.0 / (2.7³ − 1.2³) ≈ 0.1671`, `P_leak ≈ 1.111 W`. Static
//! (non-CPU) server power is 20 W, scaled from a Huawei XH320 V2 \[22\].

/// Per-core + per-server power model.
#[derive(Debug, Clone)]
pub struct CpuPowerModel {
    /// Leakage (frequency-independent) watts per active core.
    pub leak_w: f64,
    /// Cubic coefficient: dynamic watts per GHz³.
    pub cubic_coeff: f64,
    /// Watts drawn by an idle core (no request in service). Defaults to
    /// the busy power at the ladder minimum — the paper's DVFS-only setting
    /// (no sleep states; cores idle at the lowest P-state).
    pub idle_w: f64,
    /// Cores per server CPU (12 in the paper).
    pub cores: usize,
    /// Static watts per server (motherboard, memory, …): 20 W.
    pub static_w: f64,
}

impl Default for CpuPowerModel {
    fn default() -> Self {
        // Fit through (1.2 GHz, 1.4 W) and (2.7 GHz, 4.4 W).
        let cubic_coeff = 3.0 / (2.7f64.powi(3) - 1.2f64.powi(3));
        let leak_w = 1.4 - cubic_coeff * 1.2f64.powi(3);
        CpuPowerModel {
            leak_w,
            cubic_coeff,
            idle_w: 1.4,
            cores: 12,
            static_w: 20.0,
        }
    }
}

impl CpuPowerModel {
    /// Busy power of one core at `f_ghz`.
    pub fn core_busy_w(&self, f_ghz: f64) -> f64 {
        self.leak_w + self.cubic_coeff * f_ghz.powi(3)
    }

    /// Idle power of one core.
    #[inline]
    pub fn core_idle_w(&self) -> f64 {
        self.idle_w
    }

    /// Whole-server power when each core averages `core_w`:
    /// `static + cores × core_w`.
    pub fn server_w(&self, core_w: f64) -> f64 {
        self.static_w + self.cores as f64 * core_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_match_measurements() {
        let m = CpuPowerModel::default();
        assert!((m.core_busy_w(1.2) - 1.4).abs() < 1e-9);
        assert!((m.core_busy_w(2.7) - 4.4).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_and_convex_in_frequency() {
        let m = CpuPowerModel::default();
        let mut prev = 0.0;
        let mut prev_delta = 0.0;
        for i in 0..=15 {
            let f = 1.2 + 0.1 * i as f64;
            let p = m.core_busy_w(f);
            assert!(p > prev, "monotone");
            if i >= 2 {
                assert!(p - prev >= prev_delta - 1e-12, "convex (cubic)");
            }
            prev_delta = p - prev;
            prev = p;
        }
    }

    #[test]
    fn slowing_down_saves_energy_per_cycle() {
        // Energy per giga-cycle = P(f)/f must decrease toward lower f
        // (that is why DVFS pays off at all).
        let m = CpuPowerModel::default();
        assert!(m.core_busy_w(1.2) / 1.2 < m.core_busy_w(2.7) / 2.7);
    }

    #[test]
    fn server_power_composition() {
        let m = CpuPowerModel::default();
        // 12 cores flat out at 2.7 GHz: 20 + 12·4.4 = 72.8 W.
        assert!((m.server_w(m.core_busy_w(2.7)) - 72.8).abs() < 1e-9);
        assert!((m.server_w(0.0) - 20.0).abs() < 1e-12);
    }
}
