//! The violation-probability (VP) engine (paper §III-B).
//!
//! For a request with absolute deadline `D` processed at frequency `f`, the
//! cycles available before the deadline are `ω(D) = f · (D − T_start)`
//! (eq. 1), and the violation probability is the CCDF of the request's
//! *equivalent* work distribution at `ω(D)` — the equivalent distribution
//! of the n-th queued request being the convolution of its own work PMF
//! with those of all requests ahead of it (Fig. 5).
//!
//! Two refinements from the paper are implemented faithfully:
//!
//! * **departure instants** reuse cached self-convolutions of the work PMF
//!   ("the equivalent distributions can be reused once computed", §III-C);
//! * **arrival instants** condition the in-flight request on the cycles it
//!   has already received (`R0e` with "the distribution of the work left",
//!   §III-B) and then pay the `n` fresh convolutions the paper describes.
//!
//! Four exact shortcuts keep the per-decision kernel cheap without moving
//! a bit of any result:
//!
//! * **dispatch instants** — a head that has executed nothing yet has the
//!   work PMF itself as its remaining distribution. Convolution is
//!   symmetric to the bit ([`eprons_num::conv::Prepared`]), so
//!   `head ∗ equivalent(i)` *is* the cached level `i + 1`, and those
//!   instants are served from the ladder like departures;
//! * **conditioned heads** are prepared once per decision
//!   ([`Pmf::prepare`]): the head's spectrum is computed once per FFT
//!   size;
//! * **level spectra** are cached with their level ([`VpLadder`]), so each
//!   queued request behind a conditioned head pays one pointwise product
//!   and one inverse transform;
//! * **conditioned sums** with the first two levels (`CONDITIONED_DEPTH`) are
//!   memoized per head class: a conditioned head's masses depend only on
//!   the first bin of the work PMF it keeps, so `head ∗ level(i)` is
//!   computed once per class and level, and a repeat recomputes only its
//!   origin (the "can be reused once computed" of §III-C, carried over to
//!   arrival instants).
//!
//! Departure and dispatch items share the ladder's levels by `Arc`; a
//! memoized conditioned sum is copied out of its slot.
//!
//! The frequency-independent part of service (`t_fixed` per request) is
//! handled by shrinking the time budget before converting to cycles, per
//! the footnote-1 model.

use std::sync::{Arc, Mutex, OnceLock};

use eprons_num::conv::{Spectra, SpectrumUse};
use eprons_num::{Pmf, PreparedPmf};

use crate::service::ServiceModel;

/// Tail mass below which equivalent distributions are truncated to keep
/// convolution lengths bounded.
const TRUNC_EPS: f64 = 1e-10;

/// Ladder levels `1..=CONDITIONED_DEPTH` memoize their sums with
/// conditioned heads. Two, because on day seed 7000 levels 1–2 carry 82%
/// (`flashcrowd_k4`), 90% (`diurnal_k8`) and 90% (`replay_k8`) of the
/// conditioned lookups, while memoizing every level took `flashcrowd_k4`'s
/// peak RSS from 5.03 to 6.51 MB (+29%, 8-seed medians) against +12% for
/// levels 1–2. A work PMF of `bins` bins has `bins + 1` head classes, and
/// the two tables hold at most `(bins + 1) × ((2·bins − 1) + (3·bins − 2))`
/// masses: ≈1.0 MB per ladder at 160 bins.
const CONDITIONED_DEPTH: usize = 2;

/// `(head ∗ level).truncated(TRUNC_EPS)` for one head class: its masses,
/// and how many leading bins truncation dropped. The masses depend only on
/// the class and the level; the origin on the head's too, so a hit
/// recomputes only that.
#[derive(Debug)]
struct Conditioned {
    /// The sum as first computed; only its masses are reused.
    pmf: Pmf,
    lo: usize,
}

/// One ladder level: an n-fold self-convolution, its FFT spectra and, for
/// the first [`CONDITIONED_DEPTH`] levels, its conditioned sums.
#[derive(Debug)]
struct Level {
    pmf: Arc<Pmf>,
    spectra: Spectra,
    /// One slot per head class, allocated by the first conditioned
    /// decision that reaches this level.
    conditioned: OnceLock<Box<[OnceLock<Conditioned>]>>,
}

impl Level {
    fn new(pmf: Pmf) -> Arc<Self> {
        Arc::new(Level {
            pmf: Arc::new(pmf),
            spectra: Spectra::default(),
            conditioned: OnceLock::new(),
        })
    }

    /// The slot of head class `class`, one of `classes`.
    fn conditioned(&self, class: usize, classes: usize) -> &OnceLock<Conditioned> {
        &self
            .conditioned
            .get_or_init(|| (0..classes).map(|_| OnceLock::new()).collect())[class]
    }

    /// Bytes held by the conditioned sums' masses.
    fn conditioned_bytes(&self) -> usize {
        self.conditioned.get().map_or(0, |slots| {
            slots
                .iter()
                .filter_map(OnceLock::get)
                .map(|c| std::mem::size_of_val(c.pmf.masses()))
                .sum()
        })
    }
}

/// The self-convolution ladder of one service model, shared by every
/// engine over that model (the paper's "can be reused once computed",
/// §III-C): a scenario builds one and hands it to each server shard of
/// every candidate it evaluates, and it dies with the scenario.
///
/// Levels are grown on demand and never change; each is a pure function
/// of the previous one (`prev ∗ base`, truncated at `TRUNC_EPS` = 1e-10) and
/// each spectrum a pure function of its level and FFT size, so whichever
/// engine or thread grew a level, every engine reads the same bits.
#[derive(Debug)]
pub struct VpLadder {
    service: ServiceModel,
    /// `levels[n-1]` = n-fold self-convolution; append-only.
    levels: Mutex<Vec<Arc<Level>>>,
}

impl VpLadder {
    /// A ladder holding the 1-fold level (the work PMF itself).
    pub fn new(service: ServiceModel) -> Self {
        let base = Level::new(service.work_pmf().clone());
        VpLadder {
            service,
            levels: Mutex::new(vec![base]),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Level>>> {
        self.levels.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Levels grown so far.
    pub fn levels(&self) -> usize {
        self.lock().len()
    }

    /// Bytes held by the levels' cached FFT spectra.
    pub fn spectrum_bytes(&self) -> usize {
        self.lock().iter().map(|l| l.spectra.bytes()).sum()
    }

    /// Bytes held by the memoized conditioned sums' masses.
    pub fn conditioned_bytes(&self) -> usize {
        self.lock().iter().map(|l| l.conditioned_bytes()).sum()
    }

    /// Appends levels `view.len() + 1 ..= n` to `view`, growing the ladder
    /// to `n` levels first if it is shorter.
    fn extend(&self, view: &mut Vec<Arc<Level>>, n: usize) {
        let mut levels = self.lock();
        while levels.len() < n {
            let next = levels[levels.len() - 1].pmf.convolve(&levels[0].pmf);
            levels.push(Level::new(next.truncated(TRUNC_EPS)));
        }
        view.extend(levels[view.len()..n].iter().cloned());
    }
}

/// `true` iff `a` and `b` are the same PMF to the bit.
fn same_bits(a: &Pmf, b: &Pmf) -> bool {
    a.origin().to_bits() == b.origin().to_bits()
        && a.step().to_bits() == b.step().to_bits()
        && a.len() == b.len()
        && a.masses()
            .iter()
            .zip(b.masses())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Description of the head (in-service) request at a decision instant.
#[derive(Debug, Clone, Copy)]
pub struct InflightHead {
    /// Cycles (giga-cycles) already executed on the head request.
    pub done_work_gc: f64,
    /// Seconds of its frequency-independent part still outstanding.
    pub rem_fixed_s: f64,
}

/// Kernel work an engine has done since it was made.
///
/// `convolutions + conditioned_hits` is a pure function of the decisions
/// asked for, and so is each ladder's total of `convolutions` (every
/// conditioned slot is filled once), but the split between engines is
/// not: on a shared ladder, whichever engine first needs a conditioned sum
/// or a spectrum computes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpTally {
    /// Convolutions run behind a conditioned head (arrival instants).
    pub convolutions: u64,
    /// Conditioned sums served from a ladder slot instead.
    pub conditioned_hits: u64,
    /// Level spectra those convolutions built.
    pub spectra_built: u64,
    /// Level spectra those convolutions found already cached.
    pub spectra_reused: u64,
}

impl VpTally {
    /// The work counted after `earlier`, a tally of the same engine.
    pub fn since(self, earlier: VpTally) -> VpTally {
        VpTally {
            convolutions: self.convolutions - earlier.convolutions,
            conditioned_hits: self.conditioned_hits - earlier.conditioned_hits,
            spectra_built: self.spectra_built - earlier.spectra_built,
            spectra_reused: self.spectra_reused - earlier.spectra_reused,
        }
    }
}

/// Cached-convolution VP engine over a shared [`VpLadder`].
#[derive(Debug, Clone)]
pub struct VpEngine {
    ladder: Arc<VpLadder>,
    /// The ladder levels this engine has seen, read without the lock.
    levels: Vec<Arc<Level>>,
    tally: VpTally,
}

impl VpEngine {
    /// Creates an engine on a fresh ladder of its own.
    pub fn new(service: ServiceModel) -> Self {
        Self::shared(Arc::new(VpLadder::new(service)))
    }

    /// An engine on a shared ladder: levels and spectra any engine on it
    /// computes serve all of them.
    pub fn shared(ladder: Arc<VpLadder>) -> Self {
        VpEngine {
            ladder,
            levels: Vec::new(),
            tally: VpTally::default(),
        }
    }

    /// The underlying service model.
    #[inline]
    pub fn service(&self) -> &ServiceModel {
        &self.ladder.service
    }

    /// The cached n-fold self-convolution (n ≥ 1).
    pub fn equivalent(&mut self, n: usize) -> &Pmf {
        &self.level(n).pmf
    }

    /// The kernel work this engine has done so far.
    pub fn tally(&self) -> VpTally {
        self.tally
    }

    /// Ladder level `n` (n ≥ 1), growing the ladder up to it.
    fn level(&mut self, n: usize) -> &Arc<Level> {
        assert!(n >= 1, "equivalent distribution needs at least one request");
        if self.levels.len() < n {
            self.ladder.extend(&mut self.levels, n);
        }
        &self.levels[n - 1]
    }

    /// `(head ∗ level(i)).truncated(TRUNC_EPS)` for a conditioned head of
    /// class `class`: served from the level's slot for that class when it
    /// is filled, else convolved (and, up to [`CONDITIONED_DEPTH`], stored).
    fn behind_head(&mut self, head: &mut PreparedPmf<'_>, class: usize, i: usize) -> Pmf {
        let level = Arc::clone(self.level(i));
        let classes = self.levels[0].pmf.len() + 1;
        let tally = &mut self.tally;
        let mut convolve = || {
            let (sum, used) = head.convolve_cached(&level.pmf, &level.spectra);
            tally.convolutions += 1;
            match used {
                SpectrumUse::Built => tally.spectra_built += 1,
                SpectrumUse::Reused => tally.spectra_reused += 1,
                SpectrumUse::Direct => {}
            }
            sum.truncated_with_lo(TRUNC_EPS)
        };
        if i > CONDITIONED_DEPTH {
            return convolve().0;
        }
        let mut hit = true;
        let memo = level.conditioned(class, classes).get_or_init(|| {
            hit = false;
            let (pmf, lo) = convolve();
            Conditioned { pmf, lo }
        });
        self.tally.conditioned_hits += u64::from(hit);
        // The origin `convolve_cached` gives the sum, moved up `lo` bins as
        // `truncated` moves it (`Pmf::value_at`); on a miss, `memo.pmf`'s
        // own origin.
        let origin = head.pmf().origin() + level.pmf.origin();
        memo.pmf
            .with_origin(origin + memo.lo as f64 * memo.pmf.step())
    }

    /// Builds the per-position distributions for one decision instant.
    ///
    /// `head` describes the in-flight request, if the core is busy;
    /// `deadlines` are the absolute deadlines of all pending requests in
    /// processing order (head first when in-flight). `now` is the decision
    /// time.
    pub fn decision(
        &mut self,
        now: f64,
        head: Option<InflightHead>,
        deadlines: &[f64],
    ) -> Decision {
        let fixed = self.service().fixed_s();
        let mut items: Vec<DecisionItem> = Vec::with_capacity(deadlines.len());
        match head {
            Some(h) => {
                let budget = |i: usize, d: f64| d - now - (h.rem_fixed_s + i as f64 * fixed);
                // Remaining distribution of the head, conditioned on done
                // cycles, and its class: the first bin of the work PMF it
                // keeps. If the head has (numerically) exhausted its
                // support it is about to finish: treat remaining work as a
                // half-bin delta, the last class.
                let base = self.level(1).pmf.clone();
                let step = base.step();
                let (class, head_rem) = base
                    .remaining_given_done(h.done_work_gc)
                    .unwrap_or_else(|| (base.len(), Pmf::delta(step / 2.0, step)));
                if same_bits(&head_rem, &base) {
                    // Dispatch instant: `head_rem ∗ equivalent(i)` equals
                    // `equivalent(i) ∗ base` to the bit, which is the
                    // cached level `i + 1`.
                    for (i, &d) in deadlines.iter().enumerate() {
                        items.push(DecisionItem {
                            dist: self.level(i + 1).pmf.clone(),
                            budget_s: budget(i, d),
                        });
                    }
                } else {
                    // The paper's arrival-instant cost: one convolution
                    // per queued request behind the head, against the
                    // level's cached spectrum, with the head transformed
                    // once — unless the level holds this head class's sum.
                    let head_rem = Arc::new(head_rem);
                    let mut prepared = head_rem.prepare();
                    for (i, &d) in deadlines.iter().enumerate() {
                        let dist = if i == 0 {
                            head_rem.clone()
                        } else {
                            Arc::new(self.behind_head(&mut prepared, class, i))
                        };
                        items.push(DecisionItem {
                            dist,
                            budget_s: budget(i, d),
                        });
                    }
                }
            }
            None => {
                for (i, &d) in deadlines.iter().enumerate() {
                    items.push(DecisionItem {
                        dist: self.level(i + 1).pmf.clone(),
                        budget_s: d - now - (i + 1) as f64 * fixed,
                    });
                }
            }
        }
        Decision { items }
    }
}

/// One pending request's equivalent distribution and its time budget
/// (seconds until its deadline, net of all frequency-independent time that
/// must elapse first).
#[derive(Debug, Clone)]
struct DecisionItem {
    dist: Arc<Pmf>,
    budget_s: f64,
}

/// The frozen state of one decision instant: query VPs at any frequency.
#[derive(Debug, Clone)]
pub struct Decision {
    items: Vec<DecisionItem>,
}

impl Decision {
    /// Number of pending requests considered.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the queue was empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Violation probability of pending request `i` at frequency `f_ghz`:
    /// `P(equivalent work > f · budget)` (eq. 1 + CCDF). A non-positive
    /// budget yields VP 1, whatever the equivalent work.
    pub fn vp(&self, i: usize, f_ghz: f64) -> f64 {
        let it = &self.items[i];
        if it.budget_s <= 0.0 {
            return 1.0;
        }
        it.dist.ccdf(f_ghz * it.budget_s)
    }

    /// Maximum VP across pending requests (Rubik's criterion).
    pub fn max_vp(&self, f_ghz: f64) -> f64 {
        (0..self.items.len())
            .map(|i| self.vp(i, f_ghz))
            .fold(0.0, f64::max)
    }

    /// Average VP across pending requests (the EPRONS-Server criterion:
    /// "we simply need the average VP of all queued requests to be 5%").
    pub fn avg_vp(&self, f_ghz: f64) -> f64 {
        if self.items.is_empty() {
            return 0.0;
        }
        (0..self.items.len())
            .map(|i| self.vp(i, f_ghz))
            .sum::<f64>()
            / self.items.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic work: exactly 2.7e-3 Gcycles per request (1 ms at
    /// 2.7 GHz), no fixed part.
    fn deterministic_engine() -> VpEngine {
        VpEngine::new(ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 0.0))
    }

    /// Two-point work: 1 ms or 2 ms at f_max, with equal probability.
    fn bimodal_engine() -> VpEngine {
        let pmf = Pmf::from_masses(2.7e-3, 2.7e-3, vec![0.5, 0.5]);
        VpEngine::new(ServiceModel::new(pmf, 0.0))
    }

    #[test]
    fn deterministic_vp_is_a_step() {
        let mut e = deterministic_engine();
        // One fresh request, deadline 2 ms away.
        let d = e.decision(0.0, None, &[2.0e-3]);
        // At 2.7 GHz: ω = 5.4e-3 Gc > 2.7e-3 needed → VP 0.
        assert_eq!(d.vp(0, 2.7), 0.0);
        // At 1.2 GHz: ω = 2.4e-3 < 2.7e-3 → VP 1.
        assert_eq!(d.vp(0, 1.2), 1.0);
    }

    #[test]
    fn equivalent_distributions_accumulate() {
        let mut e = deterministic_engine();
        // Three queued fresh requests, 1 ms apart deadlines.
        let d = e.decision(0.0, None, &[2.0e-3, 4.0e-3, 6.0e-3]);
        // Third request's equivalent work = 8.1e-3 Gc, budget 6 ms:
        // needs ≥ 1.35 GHz.
        assert_eq!(d.vp(2, 1.3), 1.0);
        assert_eq!(d.vp(2, 1.4), 0.0);
    }

    #[test]
    fn vp_monotone_decreasing_in_frequency() {
        let mut e = bimodal_engine();
        let d = e.decision(0.0, None, &[3.0e-3, 5.0e-3]);
        let mut prev = f64::INFINITY;
        for i in 0..=15 {
            let f = 1.2 + 0.1 * i as f64;
            let v = d.max_vp(f);
            assert!(v <= prev + 1e-12, "VP must not rise with frequency");
            prev = v;
        }
    }

    #[test]
    fn avg_vp_between_min_and_max() {
        let mut e = bimodal_engine();
        let d = e.decision(0.0, None, &[2.0e-3, 3.0e-3, 4.0e-3]);
        for i in 0..=15 {
            let f = 1.2 + 0.1 * i as f64;
            let avg = d.avg_vp(f);
            let max = d.max_vp(f);
            let min = (0..d.len()).map(|i| d.vp(i, f)).fold(1.0, f64::min);
            assert!(avg <= max + 1e-12 && avg >= min - 1e-12);
        }
    }

    #[test]
    fn fig4_average_allows_lower_frequency() {
        // The paper's Fig. 4 situation: R1 needs a low frequency, R2e a
        // higher one. The average-VP criterion admits a frequency between
        // the two; the max-VP criterion must use the higher.
        let mut e = bimodal_engine();
        // R1 has a roomy deadline (VP 0 everywhere); R2's equivalent is
        // tight: VP(1.2 GHz) = 0.5, crossing the target near 1.4 GHz.
        let d = e.decision(0.0, None, &[6.0e-3, 5.625e-3]);
        let target = 0.3;
        let ladder = crate::freq::FreqLadder::paper_default();
        let f_max_crit = ladder.lowest_satisfying(|f| d.max_vp(f) <= target);
        let f_avg_crit = ladder.lowest_satisfying(|f| d.avg_vp(f) <= target);
        assert!(
            f_avg_crit < f_max_crit,
            "average criterion ({f_avg_crit}) should beat max criterion ({f_max_crit})"
        );
    }

    #[test]
    fn inflight_conditioning_reduces_remaining_work() {
        let mut e = bimodal_engine();
        // Head has already executed 3e-3 Gc: it must be the 5.4e-3 Gc
        // variant, 2.4e-3 Gc left. Budget 1 ms → needs 2.4 GHz.
        let head = InflightHead {
            done_work_gc: 3.0e-3,
            rem_fixed_s: 0.0,
        };
        let d = e.decision(0.0, Some(head), &[1.0e-3]);
        assert_eq!(d.vp(0, 2.3), 1.0);
        assert_eq!(d.vp(0, 2.5), 0.0);
    }

    #[test]
    fn exhausted_head_counts_as_nearly_done() {
        let mut e = deterministic_engine();
        let head = InflightHead {
            done_work_gc: 10.0e-3, // beyond the 2.7e-3 Gc support
            rem_fixed_s: 0.0,
        };
        let d = e.decision(0.0, Some(head), &[1.0e-3]);
        // Nearly-zero remaining work: even the lowest frequency meets it.
        assert!(d.vp(0, 1.2) < 1e-9);
    }

    #[test]
    fn fixed_time_shrinks_budget() {
        // 1 ms fixed + 2.7e-3 Gc work; deadline 2 ms → only 1 ms of cycles.
        let mut e = VpEngine::new(ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 1.0e-3));
        let d = e.decision(0.0, None, &[2.0e-3]);
        assert_eq!(d.vp(0, 2.6), 1.0); // 2.6 GHz × 1 ms = 2.6e-3 < 2.7e-3
        assert_eq!(d.vp(0, 2.7), 0.0);
    }

    #[test]
    fn past_deadline_is_certain_violation() {
        let mut e = deterministic_engine();
        let d = e.decision(10.0, None, &[9.0]);
        assert_eq!(d.vp(0, 2.7), 1.0);
    }

    #[test]
    fn empty_queue_has_zero_avg_vp() {
        let mut e = deterministic_engine();
        let d = e.decision(0.0, None, &[]);
        assert!(d.is_empty());
        assert_eq!(d.avg_vp(2.0), 0.0);
        assert_eq!(d.max_vp(2.0), 0.0);
    }

    /// The decision kernel without dispatch reuse or head preparation: one
    /// fresh `head ∗ equivalent(i)` per queued request behind any head,
    /// and a deep copy of every level. The bit-level reference.
    fn reference_decision(
        e: &mut VpEngine,
        now: f64,
        head: Option<InflightHead>,
        deadlines: &[f64],
    ) -> Decision {
        let fixed = e.service().fixed_s();
        let mut items = Vec::new();
        match head {
            Some(h) => {
                let step = e.service().work_pmf().step();
                let head_rem = e
                    .service()
                    .work_pmf()
                    .remaining_given_done(h.done_work_gc)
                    .map_or_else(|| Pmf::delta(step / 2.0, step), |(_, rem)| rem);
                for (i, &d) in deadlines.iter().enumerate() {
                    let dist = if i == 0 {
                        head_rem.clone()
                    } else {
                        head_rem.convolve(e.equivalent(i)).truncated(TRUNC_EPS)
                    };
                    items.push(DecisionItem {
                        dist: Arc::new(dist),
                        budget_s: d - now - (h.rem_fixed_s + i as f64 * fixed),
                    });
                }
            }
            None => {
                for (i, &d) in deadlines.iter().enumerate() {
                    items.push(DecisionItem {
                        dist: Arc::new(e.equivalent(i + 1).clone()),
                        budget_s: d - now - (i + 1) as f64 * fixed,
                    });
                }
            }
        }
        Decision { items }
    }

    #[test]
    fn decision_kernel_is_bit_identical_to_fresh_convolutions() {
        eprons_proplite::cases(40, |g, case| {
            // Work PMFs on both sides of the FFT threshold: short ones
            // convolve directly against short levels, long ones by FFT.
            let len = *g.choose(&[1, 2, 5, 20, 47, 48, 60, 120, 160]);
            let origin = g.f64_in(0.0, 2.0e-3);
            let step = g.f64_in(1.0e-5, 1.0e-4);
            let pmf = Pmf::from_masses(origin, step, g.vec_f64(len, 0.0, 1.0));
            let top = pmf.max_value();
            let fixed = g.f64_in(0.0, 1.0e-3);
            let mut engine = VpEngine::new(ServiceModel::new(pmf, fixed));
            for depth in 0..=12usize {
                let deadlines: Vec<f64> = (0..depth).map(|_| g.f64_in(1.0e-3, 60.0e-3)).collect();
                let heads = [
                    None,
                    // Dispatch instant: nothing executed yet.
                    Some(0.0),
                    // Mid-service: done work inside the support.
                    Some(g.f64_in(0.0, top)),
                    // Exhausted: done work past the support.
                    Some(top + step),
                ];
                for done in heads {
                    let head = done.map(|done_work_gc| InflightHead {
                        done_work_gc,
                        rem_fixed_s: fixed / 2.0,
                    });
                    let fast = engine.decision(0.0, head, &deadlines);
                    let reference = reference_decision(&mut engine, 0.0, head, &deadlines);
                    let what = format!("case {case}: depth {depth}, head {done:?}");
                    assert_same_vps(&fast, &reference, &what);
                }
            }
        });
    }

    #[test]
    fn conditioned_slots_are_bit_identical_to_fresh_convolutions() {
        eprons_proplite::cases(12, |g, case| {
            // Short PMFs convolve directly, long ones by FFT; the trailing
            // zeros make every head that keeps only them the exhausted
            // delta.
            let len = *g.choose(&[5, 20, 60, 160]);
            let mut masses = g.vec_f64(len, 0.0, 1.0);
            masses[0] += 0.5;
            let zeros = len / 5;
            for m in &mut masses[len - zeros..] {
                *m = 0.0;
            }
            let origin = g.f64_in(0.2e-3, 2.0e-3);
            let step = g.f64_in(1.0e-5, 1.0e-4);
            let pmf = Pmf::from_masses(origin, step, masses);
            let top = pmf.max_value();
            let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.1e-3));
            // Each bin's head at a quarter and three quarters of the bin:
            // the second is a hit at another origin, and a class computed
            // by rounding would mix neighbouring bins' masses. Then heads
            // in `(0, origin]`, in the zero tail and past the support.
            let mut dones: Vec<f64> = (0..len)
                .flat_map(|b| [0.25, 0.75].map(|f| origin + (b as f64 + f) * step))
                .collect();
            dones.extend([
                origin / 3.0,
                origin,
                top - 0.5 * step,
                top + step,
                2.0 * top,
            ]);
            for round in 0..2 {
                for &done in &dones {
                    let depth = g.usize_in(1, 12);
                    let deadlines: Vec<f64> =
                        (0..=depth).map(|_| g.f64_in(1.0e-3, 60.0e-3)).collect();
                    let head = Some(InflightHead {
                        done_work_gc: done,
                        rem_fixed_s: 0.05e-3,
                    });
                    let fast = engine.decision(0.0, head, &deadlines);
                    let reference = reference_decision(&mut engine, 0.0, head, &deadlines);
                    let what = format!("case {case}, round {round}: depth {depth}, done {done}");
                    assert_same_vps(&fast, &reference, &what);
                }
            }
            let tally = engine.tally();
            assert!(tally.conditioned_hits > 0, "case {case}: {tally:?}");
            assert!(engine.ladder.conditioned_bytes() > 0, "case {case}");
        });
    }

    #[test]
    fn conditioned_hits_replace_convolutions() {
        let pmf = Pmf::from_masses(0.4e-3, 2.0e-5, (1..=40).map(f64::from).collect());
        let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.0));
        let deadlines = [5.0e-3; 6];
        let head = |done_work_gc| {
            Some(InflightHead {
                done_work_gc,
                rem_fixed_s: 0.0,
            })
        };
        // The first decision fills levels 1–2 and convolves levels 3–5.
        let _ = engine.decision(0.0, head(0.51e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 5);
        assert_eq!(engine.tally().conditioned_hits, 0);
        assert_eq!(engine.ladder.levels(), 5);
        // Another head in the same bin hits levels 1–2 only.
        let _ = engine.decision(0.0, head(0.515e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 8);
        assert_eq!(engine.tally().conditioned_hits, 2);
        // A head in another bin misses.
        let _ = engine.decision(0.0, head(0.61e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 13);
        assert_eq!(engine.tally().conditioned_hits, 2);
    }

    /// Every VP of `fast` at every ladder frequency equals `reference`'s
    /// to the bit.
    fn assert_same_vps(fast: &Decision, reference: &Decision, what: &str) {
        assert_eq!(fast.len(), reference.len(), "{what}");
        for i in 0..fast.len() {
            for &f in crate::freq::FreqLadder::paper_default().steps() {
                assert_eq!(
                    fast.vp(i, f).to_bits(),
                    reference.vp(i, f).to_bits(),
                    "{what}: item {i}, {f} GHz"
                );
            }
        }
    }

    #[test]
    fn engines_on_one_shared_ladder_match_the_reference_across_threads() {
        // 120 bins: deep levels and conditioned heads take the FFT path.
        let masses = (0..120).map(|i| ((i * 37) % 11 + 1) as f64).collect();
        let pmf = Pmf::from_masses(0.4e-3, 2.0e-5, masses);
        let shared = Arc::new(VpLadder::new(ServiceModel::new(pmf, 0.2e-3)));
        let tallies: Vec<VpTally> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    s.spawn(move || {
                        let mut engine = VpEngine::shared(shared);
                        // The reference grows a private ladder and
                        // convolves from scratch.
                        let mut private = VpEngine::new(engine.service().clone());
                        let top = engine.service().work_pmf().max_value();
                        let mut g = eprons_proplite::Gen::from_seed(t);
                        for round in 0..24usize {
                            // The threads walk the depths in opposite
                            // orders, so each grows levels and spectra the
                            // other then reads.
                            let depth = if t == 0 { round % 13 } else { 12 - round % 13 };
                            let deadlines: Vec<f64> =
                                (0..=depth).map(|_| g.f64_in(1.0e-3, 60.0e-3)).collect();
                            let head = Some(InflightHead {
                                done_work_gc: g.f64_in(0.0, top),
                                rem_fixed_s: 0.1e-3,
                            });
                            let fast = engine.decision(0.0, head, &deadlines);
                            let reference = reference_decision(&mut private, 0.0, head, &deadlines);
                            assert_same_vps(
                                &fast,
                                &reference,
                                &format!("thread {t}, round {round}"),
                            );
                        }
                        engine.tally()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(shared.levels() >= 12);
        assert!(shared.spectrum_bytes() > 0);
        let built: u64 = tallies.iter().map(|t| t.spectra_built).sum();
        let reused: u64 = tallies.iter().map(|t| t.spectra_reused).sum();
        let convolutions: u64 = tallies.iter().map(|t| t.convolutions).sum();
        assert!(
            built > 0 && reused > built,
            "built {built}, reused {reused}"
        );
        assert!(built + reused <= convolutions);
    }

    #[test]
    fn equivalent_cache_extends_lazily() {
        let mut e = deterministic_engine();
        let mean1 = e.equivalent(1).mean();
        let mean5 = e.equivalent(5).mean();
        assert!((mean5 - 5.0 * mean1).abs() < 1e-6);
    }
}
