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
//! Two exact shortcuts keep the per-decision kernel cheap without moving a
//! bit of any result:
//!
//! * **dispatch instants** — a head that has executed nothing yet has the
//!   work PMF itself as its remaining distribution. Convolution is
//!   symmetric to the bit ([`eprons_num::conv::Prepared`]), so
//!   `head ∗ equivalent(i)` *is* the cached level `i + 1`, and those
//!   instants are served from the ladder like departures;
//! * **conditioned heads** are prepared once per decision
//!   ([`Pmf::prepare`]): the head's spectrum is computed once per FFT
//!   size, and only each level's transform and the inverse are paid per
//!   queued request.
//!
//! Items share the ladder's levels by `Arc`, so a decision copies no
//! distribution.
//!
//! The frequency-independent part of service (`t_fixed` per request) is
//! handled by shrinking the time budget before converting to cycles, per
//! the footnote-1 model.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use eprons_num::Pmf;

use crate::service::ServiceModel;

/// Tail mass below which equivalent distributions are truncated to keep
/// convolution lengths bounded.
const TRUNC_EPS: f64 = 1e-10;

/// One convolution ladder: `ladder[n-1]` = n-fold self-convolution.
type Ladder = Vec<Arc<Pmf>>;

/// Process-wide cache of precomputed self-convolution ladders, keyed by
/// the exact bits of the service model. A cluster run builds one engine
/// per server (and the optimizer one cluster per candidate) over the
/// *same* service model; the paper notes the equivalent distributions
/// "can be reused once computed" (§III-C), so they are computed once per
/// model here rather than once per server × candidate.
static EQUIV_CACHE: OnceLock<Mutex<HashMap<ModelKey, Arc<Ladder>>>> = OnceLock::new();

fn equiv_cache() -> &'static Mutex<HashMap<ModelKey, Arc<Ladder>>> {
    EQUIV_CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Exact identity of a service model: the bit patterns of the work PMF's
/// grid and masses plus the fixed time. Two models share a ladder iff
/// every input to the self-convolution recurrence is identical, which
/// makes prefix sharing invisible to results — and, unlike a hash, two
/// different models can never collide onto one ladder.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ModelKey {
    origin: u64,
    step: u64,
    fixed: u64,
    masses: Box<[u64]>,
}

impl ModelKey {
    fn of(service: &ServiceModel) -> Self {
        let pmf = service.work_pmf();
        ModelKey {
            origin: pmf.origin().to_bits(),
            step: pmf.step().to_bits(),
            fixed: service.fixed_s().to_bits(),
            masses: pmf.masses().iter().map(|m| m.to_bits()).collect(),
        }
    }
}

/// 64-bit hash of a service model's exact bits: the work PMF's grid and
/// masses plus the fixed time. A component of the [`crate::memo`]
/// server-evaluation key; the ladder cache keys on the bits themselves.
pub fn service_fingerprint(service: &ServiceModel) -> u64 {
    let mut h = DefaultHasher::new();
    let pmf = service.work_pmf();
    pmf.origin().to_bits().hash(&mut h);
    pmf.step().to_bits().hash(&mut h);
    pmf.masses().len().hash(&mut h);
    for &m in pmf.masses() {
        m.to_bits().hash(&mut h);
    }
    service.fixed_s().to_bits().hash(&mut h);
    h.finish()
}

/// Empties the shared equivalent-distribution cache (for benchmarks that
/// want to measure cold-start cost).
pub fn clear_equiv_cache() {
    equiv_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// `(distinct service models, total cached convolution levels)` currently
/// in the shared cache — introspection for tests and perfbench.
pub fn equiv_cache_stats() -> (usize, usize) {
    let map = equiv_cache().lock().unwrap_or_else(|e| e.into_inner());
    let models = map.len();
    let levels = map.values().map(|v| v.len()).sum();
    (models, levels)
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

/// Cached-convolution VP engine.
///
/// The n-fold self-convolution ladder is split in two: a frozen prefix
/// (`Arc`-shared with every other engine over the same service model, via
/// the process-wide cache) and a private copy-on-grow tail for levels the
/// prefix does not cover yet. Because each level is a pure function of the
/// previous one (`prev ∗ base`, truncated at [`TRUNC_EPS`]), an engine
/// computes bit-identical distributions whether it finds them in the
/// shared prefix or grows them locally — sharing changes wall-clock time,
/// never results.
#[derive(Debug, Clone)]
pub struct VpEngine {
    service: Arc<ServiceModel>,
    /// Frozen shared levels: `prefix[n-1]` = n-fold self-convolution.
    prefix: Arc<Ladder>,
    /// Locally grown levels `prefix.len()+1 ..= prefix.len()+tail.len()`.
    tail: Ladder,
}

impl VpEngine {
    /// Creates an engine for a service model, attaching to the shared
    /// convolution prefix for that model (and seeding the shared cache
    /// with the 1-fold level on first sight).
    pub fn new(service: ServiceModel) -> Self {
        Self::shared(Arc::new(service))
    }

    /// [`VpEngine::new`] over an already-shared model: the staged cluster
    /// pipeline builds one `Arc<ServiceModel>` per scenario and hands it
    /// to every server shard of every candidate, so the work PMF is never
    /// deep-cloned per engine.
    pub fn shared(service: Arc<ServiceModel>) -> Self {
        let prefix = {
            let mut map = equiv_cache().lock().unwrap_or_else(|e| e.into_inner());
            map.entry(ModelKey::of(&service))
                .or_insert_with(|| Arc::new(vec![Arc::new(service.work_pmf().clone())]))
                .clone()
        };
        VpEngine {
            service,
            prefix,
            tail: Vec::new(),
        }
    }

    /// The underlying service model.
    #[inline]
    pub fn service(&self) -> &ServiceModel {
        &self.service
    }

    /// Levels currently visible through the shared frozen prefix.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }

    /// Total convolution levels this engine can serve without computing
    /// (shared prefix + private tail).
    #[inline]
    pub fn cached_levels(&self) -> usize {
        self.prefix.len() + self.tail.len()
    }

    /// The cached n-fold self-convolution (n ≥ 1).
    pub fn equivalent(&mut self, n: usize) -> &Pmf {
        self.level(n)
    }

    /// The shared handle of the n-fold self-convolution (n ≥ 1), growing
    /// the private tail up to it.
    fn level(&mut self, n: usize) -> &Arc<Pmf> {
        assert!(n >= 1, "equivalent distribution needs at least one request");
        if n <= self.prefix.len() {
            return &self.prefix[n - 1];
        }
        let base = &self.prefix[0];
        while self.prefix.len() + self.tail.len() < n {
            let prev = self
                .tail
                .last()
                .unwrap_or_else(|| self.prefix.last().expect("prefix holds at least level 1"));
            let next = prev.convolve(base).truncated(TRUNC_EPS);
            self.tail.push(Arc::new(next));
        }
        &self.tail[n - 1 - self.prefix.len()]
    }

    /// Publishes this engine's privately grown tail back to the shared
    /// cache, so later engines over the same model start with a longer
    /// frozen prefix. Called automatically on drop; idempotent, and a
    /// no-op when another engine already published at least as many
    /// levels (the recurrence is deterministic, so equal-length ladders
    /// are bit-identical and there is nothing to reconcile).
    pub fn publish(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut map = equiv_cache().lock().unwrap_or_else(|e| e.into_inner());
        let entry = map
            .entry(ModelKey::of(&self.service))
            .or_insert_with(|| self.prefix.clone());
        if entry.len() < self.prefix.len() + self.tail.len() {
            let mut full = Vec::with_capacity(self.prefix.len() + self.tail.len());
            full.extend(self.prefix.iter().cloned());
            full.append(&mut self.tail);
            *entry = Arc::new(full);
        } else {
            self.tail.clear();
        }
        self.prefix = entry.clone();
    }
}

impl Drop for VpEngine {
    fn drop(&mut self) {
        self.publish();
    }
}

impl VpEngine {
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
        let fixed = self.service.fixed_s();
        let mut items: Vec<DecisionItem> = Vec::with_capacity(deadlines.len());
        match head {
            Some(h) => {
                let budget = |i: usize, d: f64| d - now - (h.rem_fixed_s + i as f64 * fixed);
                // Remaining distribution of the head, conditioned on done
                // cycles. If the head has (numerically) exhausted its
                // support it is about to finish: treat remaining work as a
                // half-bin delta.
                let base = self.level(1).clone();
                let step = base.step();
                let head_rem = base
                    .remaining_given_done(h.done_work_gc)
                    .unwrap_or_else(|| Pmf::delta(step / 2.0, step));
                if same_bits(&head_rem, &base) {
                    // Dispatch instant: `head_rem ∗ equivalent(i)` equals
                    // `equivalent(i) ∗ base` to the bit, which is the
                    // cached level `i + 1`.
                    for (i, &d) in deadlines.iter().enumerate() {
                        items.push(DecisionItem {
                            dist: self.level(i + 1).clone(),
                            budget_s: budget(i, d),
                        });
                    }
                } else {
                    // The paper's arrival-instant cost: one convolution
                    // per queued request behind the head, with the head
                    // transformed once.
                    let head_rem = Arc::new(head_rem);
                    let mut prepared = head_rem.prepare();
                    for (i, &d) in deadlines.iter().enumerate() {
                        let dist = if i == 0 {
                            head_rem.clone()
                        } else {
                            Arc::new(prepared.convolve(self.equivalent(i)).truncated(TRUNC_EPS))
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
                        dist: self.level(i + 1).clone(),
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
    /// budget yields VP 1 unless the equivalent work is zero.
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

    /// Index of the *limiting request* at frequency `f_ghz` — the request
    /// with the highest VP, i.e. the one that dictates Rubik's frequency
    /// ("the frequency setting is then determined by the request with the
    /// least latency slack", §III). `None` when the queue is empty.
    pub fn limiting_index(&self, f_ghz: f64) -> Option<usize> {
        (0..self.items.len()).max_by(|&a, &b| {
            self.vp(a, f_ghz)
                .partial_cmp(&self.vp(b, f_ghz))
                .expect("VPs are finite")
        })
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

    #[test]
    fn limiting_request_is_the_tightest() {
        let mut e = bimodal_engine();
        // Second request's equivalent is much tighter than the first's.
        let d = e.decision(0.0, None, &[50.0e-3, 5.0e-3]);
        assert_eq!(d.limiting_index(2.0), Some(1));
        let empty = e.decision(0.0, None, &[]);
        assert_eq!(empty.limiting_index(2.0), None);
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
                    .unwrap_or_else(|| Pmf::delta(step / 2.0, step));
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
        let ladder = crate::freq::FreqLadder::paper_default();
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
                    assert_eq!(fast.len(), reference.len());
                    for i in 0..fast.len() {
                        for &f in ladder.steps() {
                            assert_eq!(
                                fast.vp(i, f).to_bits(),
                                reference.vp(i, f).to_bits(),
                                "case {case}: depth {depth}, head {done:?}, item {i}, {f} GHz"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn ladder_cache_keys_on_exact_model_bits() {
        // A model seen only by this test, and a twin one ulp away in its
        // fixed time: the twin must not see the first model's ladder.
        let pmf = Pmf::from_masses(1.25e-3, 3.0e-5, vec![0.3, 0.1, 0.45, 0.15]);
        let fixed = 0.37e-3;
        let mut first = VpEngine::new(ServiceModel::new(pmf.clone(), fixed));
        let _ = first.equivalent(6);
        drop(first);
        let again = VpEngine::new(ServiceModel::new(pmf.clone(), fixed));
        assert!(again.prefix_len() >= 6, "same bits share the ladder");
        let twin = ServiceModel::new(pmf, f64::from_bits(fixed.to_bits() + 1));
        assert_ne!(ModelKey::of(&twin), ModelKey::of(again.service()));
        assert_eq!(VpEngine::new(twin).prefix_len(), 1);
    }

    #[test]
    fn equivalent_cache_extends_lazily() {
        let mut e = deterministic_engine();
        let mean1 = e.equivalent(1).mean();
        let mean5 = e.equivalent(5).mean();
        assert!((mean5 - 5.0 * mean1).abs() < 1e-6);
    }
}
