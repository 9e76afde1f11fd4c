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
//! Seven exact shortcuts keep the per-decision kernel cheap without moving
//! a bit of any result:
//!
//! * **head classes** are memoized once per ladder: a conditioned head's
//!   masses depend only on its *class*, the first bin of the work PMF it
//!   keeps ([`Pmf::remaining_given_done`]), so each class's normalized
//!   tail masses are computed on its first use and shared by every later
//!   head of the class. A decision computes only the class and the head's
//!   origin; class 0, the whole work PMF, is level 1 itself;
//! * **dispatch instants** — a head that has executed nothing yet has the
//!   work PMF itself as its remaining distribution. Convolution is
//!   symmetric to the bit ([`eprons_num::conv::Prepared`]), so
//!   `head ∗ equivalent(i)` *is* the cached level `i + 1`, and those
//!   instants are served from the ladder like departures. A head is one
//!   exactly when its class shares level 1's masses and its origin is
//!   level 1's to the bit;
//! * **conditioned heads** are prepared once per decision
//!   ([`Pmf::prepare`]): the head's spectrum is computed once per FFT
//!   size;
//! * **level spectra** are cached with their level ([`VpLadder`]), so each
//!   queued request behind a conditioned head pays one pointwise product
//!   and one inverse transform;
//! * **conditioned sums** are memoized per head class at every level: a
//!   conditioned head's masses depend only on its class, so
//!   `head ∗ level(i)` is computed once per class and level, and a repeat
//!   recomputes only its origin (the "can be reused once computed" of
//!   §III-C, carried over to arrival instants). A slot keeps only the
//!   masses a VP query can read: [`Pmf::cdf`] at `ω` reads the bins up to
//!   `ω`'s and one more, and no query asks above the top of the DVFS
//!   ladder ([`ServiceModel::f_max_ghz`]), so a sum read at budget `b`
//!   needs the bins up to `f_max · b` ([`PmfPrefix::bins_read`]). A miss
//!   keeps those, and those any head of its class reads at the furthest
//!   `ω` the ladder has been asked; a query that needs more than its slot
//!   keeps convolves afresh and widens the slot. How much a slot keeps
//!   decides only hit or miss, never a bit of a VP: the sum is normalized
//!   and truncated whole. A slot holds at most `⌊f_max · B / step⌋ + 2`
//!   masses at the longest budget `B`, at any level: 1.37 MB per ladder
//!   against 4.61 MB of whole sums on a 60 s single-core run at 70 % load,
//!   and +0.9 % peak RSS on the flash-crowd benchmark day (DESIGN.md,
//!   "Conditioned slots");
//! * **running sums** ([`running_sums`]) are kept beside the masses of
//!   every ladder level and head class, so a VP query on them reads one
//!   sum and one mass ([`PmfPrefix::cdf_summed`]) instead of adding up
//!   every bin below `ω`: the same additions in the same order, done once.
//!   A conditioned slot's prefix is summed at each query;
//! * **borrowed items** — a [`Decision`] borrows the masses it reads from
//!   its engine: a decision first fills the engine's caches, then reads
//!   them, and allocates nothing once the caches hold what it needs.
//!
//! The ladder shares a level's masses, a head class's and a conditioned
//! slot's by `Arc` between the engines on it.
//!
//! The frequency-independent part of service (`t_fixed` per request) is
//! handled by shrinking the time budget before converting to cycles, per
//! the footnote-1 model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use eprons_num::conv::{Spectra, SpectrumUse};
use eprons_num::pmf::running_sums;
use eprons_num::{Pmf, PmfPrefix};

use crate::service::ServiceModel;

/// Tail mass below which equivalent distributions are truncated to keep
/// convolution lengths bounded.
const TRUNC_EPS: f64 = 1e-10;

/// A PMF and its [`running_sums`]: a ladder level, or a head class's
/// masses (whose origin each decision computes).
#[derive(Debug)]
struct Summed {
    pmf: Pmf,
    cum: Box<[f64]>,
}

impl Summed {
    fn new(pmf: Pmf) -> Arc<Self> {
        let cum = running_sums(pmf.masses());
        Arc::new(Summed { pmf, cum })
    }

    /// Bytes held by the masses and their running sums.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.pmf.masses()) + std::mem::size_of_val(&*self.cum)
    }
}

/// `(head ∗ level).truncated(TRUNC_EPS)` for one head class: its length,
/// how many leading bins truncation dropped, and its first masses, as
/// many as the queries it serves read. All three depend only on the class
/// and the level; the origin on the head's too, so a hit recomputes only
/// that.
#[derive(Debug)]
struct Conditioned {
    mass: Box<[f64]>,
    len: usize,
    lo: usize,
}

/// A shared conditioned slot: empty until a decision fills it, replaced by
/// a longer prefix when one is needed.
type Slot = Mutex<Option<Arc<Conditioned>>>;

/// One ladder level: an n-fold self-convolution with its running sums, its
/// FFT spectra and its conditioned sums.
#[derive(Debug)]
struct Level {
    sums: Arc<Summed>,
    spectra: Spectra,
    /// One slot per head class, allocated by the first conditioned
    /// decision that reaches this level.
    conditioned: OnceLock<Box<[Slot]>>,
}

impl Level {
    fn new(sums: Arc<Summed>) -> Arc<Self> {
        Arc::new(Level {
            sums,
            spectra: Spectra::default(),
            conditioned: OnceLock::new(),
        })
    }

    /// The slot of head class `class`, one of `classes`.
    fn conditioned(&self, class: usize, classes: usize) -> &Slot {
        &self
            .conditioned
            .get_or_init(|| (0..classes).map(|_| Mutex::default()).collect())[class]
    }

    /// Bytes held by the conditioned sums' kept masses.
    fn conditioned_bytes(&self) -> usize {
        self.conditioned.get().map_or(0, |slots| {
            slots
                .iter()
                .filter_map(|slot| lock(slot).as_ref().map(|c| std::mem::size_of_val(&*c.mass)))
                .sum()
        })
    }
}

/// Locks `m`; a panic elsewhere leaves nothing half-written behind it.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The self-convolution ladder of one service model, shared by every
/// engine over that model (the paper's "can be reused once computed",
/// §III-C): a scenario builds one and hands it to each server shard of
/// every candidate it evaluates, and it dies with the scenario.
///
/// Levels are grown on demand and never change; each is a pure function
/// of the previous one (`prev ∗ base`, truncated at `TRUNC_EPS` = 1e-10) and
/// each spectrum a pure function of its level and FFT size, so whichever
/// engine or thread grew a level, every engine reads the same bits. A head
/// class's masses are a pure function of the class, and a conditioned
/// sum's of its head class and level; how many of a sum's masses its slot
/// keeps decides only whether a query hits it.
#[derive(Debug)]
pub struct VpLadder {
    service: ServiceModel,
    /// `levels[n-1]` = n-fold self-convolution; append-only.
    levels: Mutex<Vec<Arc<Level>>>,
    /// Each head class's masses, filled on the class's first use. Class 0
    /// is level 1's, set at construction.
    heads: Box<[OnceLock<Arc<Summed>>]>,
    /// One past the work PMF's last bin of positive mass: a head whose
    /// first kept bin is at or past it has nothing left to condition on.
    live: usize,
    /// Conditioned slots refilled with a longer prefix.
    widened: AtomicU64,
    /// The furthest `ω` a conditioned slot was filled to serve, as the
    /// bits of a non-negative `f64` (which order as the values do).
    reach: AtomicU64,
}

impl VpLadder {
    /// A ladder holding the 1-fold level (the work PMF itself).
    pub fn new(service: ServiceModel) -> Self {
        let base = Summed::new(service.work_pmf().clone());
        let live = base
            .pmf
            .masses()
            .iter()
            .rposition(|&m| m > 0.0)
            .map_or(0, |b| b + 1);
        let heads: Box<[OnceLock<Arc<Summed>>]> =
            (0..=base.pmf.len()).map(|_| OnceLock::new()).collect();
        heads[0].get_or_init(|| Arc::clone(&base));
        VpLadder {
            service,
            levels: Mutex::new(vec![Level::new(base)]),
            heads,
            live,
            widened: AtomicU64::new(0),
            reach: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Levels grown so far.
    pub fn levels(&self) -> usize {
        lock(&self.levels).len()
    }

    /// Bytes held by the levels' cached FFT spectra.
    pub fn spectrum_bytes(&self) -> usize {
        lock(&self.levels).iter().map(|l| l.spectra.bytes()).sum()
    }

    /// Bytes held by the memoized conditioned sums' kept masses.
    pub fn conditioned_bytes(&self) -> usize {
        lock(&self.levels)
            .iter()
            .map(|l| l.conditioned_bytes())
            .sum()
    }

    /// Bytes held by the memoized head classes' masses and running sums,
    /// less those they share with level 1.
    pub fn head_bytes(&self) -> usize {
        let whole = self.whole();
        self.heads
            .iter()
            .filter_map(OnceLock::get)
            .filter(|h| !Arc::ptr_eq(h, whole))
            .map(|h| h.bytes())
            .sum()
    }

    /// How many times a filled conditioned slot was too short for a query
    /// and was refilled with a longer prefix.
    pub fn widened(&self) -> u64 {
        self.widened.load(Ordering::Relaxed)
    }

    /// Appends levels `view.len() + 1 ..= n` to `view`, growing the ladder
    /// to `n` levels first if it is shorter.
    fn extend(&self, view: &mut Vec<Arc<Level>>, n: usize) {
        let mut levels = lock(&self.levels);
        while levels.len() < n {
            let next = levels[levels.len() - 1]
                .sums
                .pmf
                .convolve(&levels[0].sums.pmf);
            levels.push(Level::new(Summed::new(next.truncated(TRUNC_EPS))));
        }
        view.extend(levels[view.len()..n].iter().cloned());
    }

    /// Level 1, the work PMF: head class 0.
    fn whole(&self) -> &Arc<Summed> {
        self.heads[0].get().expect("class 0 is set at construction")
    }

    /// The class of a head that has executed `done` cycles and the origin
    /// of its remaining distribution: the first bin of the work PMF that
    /// [`Pmf::remaining_given_done`] keeps and the origin it gives, by the
    /// same expressions. A head with no mass left above `done` is about to
    /// finish: its remaining work is a half-bin delta, the last class.
    fn head_class(&self, done: f64) -> (usize, f64) {
        let base = self.service.work_pmf();
        if done <= base.origin() {
            return (0, base.origin() - done);
        }
        let start = (((done - base.origin()) / base.step()).floor() as usize) + 1;
        if start < self.live {
            (start, base.value_at(start) - done)
        } else {
            (base.len(), base.step() / 2.0)
        }
    }

    /// The masses of head class `class` with their running sums, computed
    /// on the class's first use as [`Pmf::remaining_given_done`] computes
    /// them. The exhausted class shares level 1's masses when they are the
    /// same delta.
    fn head(&self, class: usize) -> &Arc<Summed> {
        self.heads[class].get_or_init(|| {
            let base = self.service.work_pmf();
            let step = base.step();
            if class < base.len() {
                Summed::new(Pmf::from_masses(0.0, step, base.masses()[class..].to_vec()))
            } else if base.masses() == [1.0] {
                Arc::clone(self.whole())
            } else {
                Summed::new(Pmf::delta(step / 2.0, step))
            }
        })
    }

    /// `true` iff a head of class `class` at `origin` is the work PMF
    /// itself to the bit.
    fn is_whole(&self, class: usize, origin: f64) -> bool {
        let whole = self.whole();
        Arc::ptr_eq(self.head(class), whole) && origin.to_bits() == whole.pmf.origin().to_bits()
    }
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
/// asked for, but the split is not once engines share a ladder: whichever
/// engine first needs a conditioned sum, a longer prefix of one or a
/// spectrum computes it.
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
    /// The conditioned slots this engine has read, `[class][level - 1]`,
    /// read without their locks. A decision reads a class's levels from 1
    /// up, so each class's are filled from level 1.
    conditioned: Vec<Vec<Arc<Conditioned>>>,
    /// The last decision's items, kept for their allocation.
    items: Vec<Item>,
    tally: VpTally,
}

impl VpEngine {
    /// Creates an engine on a fresh ladder of its own.
    pub fn new(service: ServiceModel) -> Self {
        Self::shared(Arc::new(VpLadder::new(service)))
    }

    /// An engine on a shared ladder: levels, spectra and conditioned sums
    /// any engine on it computes serve all of them.
    pub fn shared(ladder: Arc<VpLadder>) -> Self {
        VpEngine {
            ladder,
            levels: Vec::new(),
            conditioned: Vec::new(),
            items: Vec::new(),
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
        assert!(n >= 1, "equivalent distribution needs at least one request");
        self.grow(n);
        &self.levels[n - 1].sums.pmf
    }

    /// The kernel work this engine has done so far.
    pub fn tally(&self) -> VpTally {
        self.tally
    }

    /// Makes the engine's view hold at least `n` levels, growing the
    /// ladder up to them.
    fn grow(&mut self, n: usize) {
        if self.levels.len() < n {
            self.ladder.extend(&mut self.levels, n);
        }
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
    ) -> Decision<'_> {
        let fixed = self.service().fixed_s();
        self.items.clear();
        let mut class = 0;
        match head {
            Some(h) => {
                let budget = |i: usize, d: f64| d - now - (h.rem_fixed_s + i as f64 * fixed);
                // The head's class and the origin of its remaining
                // distribution, conditioned on the cycles done.
                let (c, origin) = self.ladder.head_class(h.done_work_gc);
                if self.ladder.is_whole(c, origin) {
                    // Dispatch instant: `head ∗ equivalent(i)` equals
                    // `equivalent(i) ∗ base` to the bit, which is the
                    // cached level `i + 1`.
                    self.ladder_items(deadlines, budget);
                } else {
                    class = c;
                    self.conditioned_items(class, origin, deadlines, budget);
                }
            }
            None => self.ladder_items(deadlines, |i, d| d - now - (i + 1) as f64 * fixed),
        }
        Decision {
            step: self.service().work_pmf().step(),
            f_max_ghz: self.service().f_max_ghz(),
            items: &self.items,
            levels: &self.levels,
            head: self.ladder.head(class),
            slots: self.conditioned.get(class).map_or(&[][..], Vec::as_slice),
        }
    }

    /// Item `i` is ladder level `i + 1` with budget `budget(i, deadline)`.
    fn ladder_items(&mut self, deadlines: &[f64], budget: impl Fn(usize, f64) -> f64) {
        self.grow(deadlines.len());
        let levels = &self.levels;
        self.items
            .extend(deadlines.iter().enumerate().map(|(i, &d)| Item {
                src: Src::Level(i),
                origin: levels[i].sums.pmf.origin(),
                len: levels[i].sums.pmf.len(),
                budget_s: budget(i, d),
            }));
    }

    /// Item 0 is a head of class `class` at `origin`, and item `i ≥ 1` is
    /// `(head ∗ level(i)).truncated(TRUNC_EPS)`: the paper's arrival-instant
    /// cost, one convolution per queued request behind the head, against
    /// the level's cached spectrum, with the head transformed once —
    /// unless the level's slot for this head class keeps every mass a
    /// query at or below the ceiling frequency reads.
    fn conditioned_items(
        &mut self,
        class: usize,
        origin: f64,
        deadlines: &[f64],
        budget: impl Fn(usize, f64) -> f64,
    ) {
        self.grow(deadlines.len().saturating_sub(1));
        let VpEngine {
            ladder,
            levels,
            conditioned,
            items,
            tally,
        } = self;
        let ladder: &VpLadder = ladder;
        let head = ladder.head(class);
        let classes = ladder.heads.len();
        if conditioned.is_empty() {
            conditioned.resize_with(classes, Vec::new);
        }
        let seen = &mut conditioned[class];
        let mut prepared = head.pmf.prepare();
        let step = head.pmf.step();
        // How many masses of a sum of `len` bins from `origin` a query at or
        // below `x` reads.
        let reads = |origin: f64, len: usize, x: f64| {
            PmfPrefix {
                origin,
                step,
                len,
                mass: &[],
            }
            .bins_read(x)
        };
        if let Some(&d) = deadlines.first() {
            items.push(Item {
                src: Src::Head,
                origin,
                len: head.pmf.len(),
                budget_s: budget(0, d),
            });
        }
        for (i, &d) in deadlines.iter().enumerate().skip(1) {
            let budget_s = budget(i, d);
            let level = &levels[i - 1];
            // The origin `convolve_cached` gives the sum, moved up `lo`
            // bins as `truncated` moves it (`Pmf::value_at`).
            let sum_origin = origin + level.sums.pmf.origin();
            let at = |lo: usize| sum_origin + lo as f64 * step;
            // The furthest `ω` a query of this item reads at
            // (`Decision::vp`).
            let reach = if budget_s > 0.0 {
                ladder.service.f_max_ghz() * budget_s
            } else {
                f64::NEG_INFINITY
            };
            let serves = |c: &Conditioned| reads(at(c.lo), c.len, reach) <= c.mass.len();
            if seen.get(i - 1).is_some_and(|c| serves(c)) {
                tally.conditioned_hits += 1;
            } else {
                let slot = level.conditioned(class, classes);
                let shared = lock(slot).as_ref().filter(|c| serves(c)).cloned();
                let c = match shared {
                    Some(c) => {
                        tally.conditioned_hits += 1;
                        c
                    }
                    None => {
                        // A miss: convolve, normalize and truncate the
                        // whole sum without holding the slot. Keep the
                        // masses this item reads, and those any head of
                        // this class reads at the furthest reach the ladder
                        // has been asked, since a budget seen once comes
                        // back: every head's origin is ≥ 0, so `floor` is
                        // the lowest origin of the class's sum.
                        let (sum, used) = prepared.convolve_cached(&level.sums.pmf, &level.spectra);
                        tally.convolutions += 1;
                        match used {
                            SpectrumUse::Built => tally.spectra_built += 1,
                            SpectrumUse::Reused => tally.spectra_reused += 1,
                            SpectrumUse::Direct => {}
                        }
                        let (sum, lo) = sum.truncated_with_lo(TRUNC_EPS);
                        let before = ladder
                            .reach
                            .fetch_max(reach.max(0.0).to_bits(), Ordering::Relaxed);
                        let furthest = reach.max(f64::from_bits(before));
                        let floor = level.sums.pmf.origin() + lo as f64 * step;
                        let keep =
                            reads(at(lo), sum.len(), reach).max(reads(floor, sum.len(), furthest));
                        let fresh = Arc::new(Conditioned {
                            mass: sum.masses()[..keep].into(),
                            len: sum.len(),
                            lo,
                        });
                        // Store it unless another engine stored a longer
                        // prefix meanwhile; both have the same `len`, `lo`
                        // and leading masses.
                        let mut stored = lock(slot);
                        match stored.as_ref() {
                            Some(c) if c.mass.len() >= keep => Arc::clone(c),
                            filled => {
                                if filled.is_some() {
                                    ladder.widened.fetch_add(1, Ordering::Relaxed);
                                }
                                *stored = Some(Arc::clone(&fresh));
                                fresh
                            }
                        }
                    }
                };
                if seen.len() < i {
                    seen.push(c);
                } else {
                    seen[i - 1] = c;
                }
            }
            let c = &seen[i - 1];
            items.push(Item {
                src: Src::Slot(i - 1),
                origin: at(c.lo),
                len: c.len,
                budget_s,
            });
        }
    }
}

/// Where a decision item's masses are.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Ladder level `n + 1`, with its running sums.
    Level(usize),
    /// The conditioned head's class, with its running sums.
    Head,
    /// The head class's conditioned sum at level `n + 1`: a prefix.
    Slot(usize),
}

/// One pending request's equivalent distribution — where its masses are,
/// the value of its first bin and its length — and its time budget
/// (seconds until its deadline, net of all frequency-independent time that
/// must elapse first).
#[derive(Debug, Clone, Copy)]
struct Item {
    src: Src,
    origin: f64,
    len: usize,
    budget_s: f64,
}

/// The frozen state of one decision instant: query VPs at any frequency up
/// to the top of the DVFS ladder. It borrows every mass it reads from its
/// engine.
#[derive(Debug, Clone, Copy)]
pub struct Decision<'a> {
    /// The grid step every item shares: the work PMF's.
    step: f64,
    f_max_ghz: f64,
    items: &'a [Item],
    /// The engine's ladder levels, `[level - 1]`.
    levels: &'a [Arc<Level>],
    /// The conditioned head's class (level 1 when there is none).
    head: &'a Summed,
    /// The head class's conditioned sums, `[level - 1]`.
    slots: &'a [Arc<Conditioned>],
}

impl<'a> Decision<'a> {
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

    /// Item `i`'s equivalent distribution, with its running sums if it is
    /// a ladder level or the head.
    fn dist(&self, i: usize) -> (PmfPrefix<'a>, Option<&'a [f64]>) {
        let it = &self.items[i];
        let (mass, cum): (&'a [f64], _) = match it.src {
            Src::Level(n) => {
                let s = &self.levels[n].sums;
                (s.pmf.masses(), Some(&s.cum[..]))
            }
            Src::Head => (self.head.pmf.masses(), Some(&self.head.cum[..])),
            Src::Slot(n) => (&self.slots[n].mass, None),
        };
        let prefix = PmfPrefix {
            origin: it.origin,
            step: self.step,
            len: it.len,
            mass,
        };
        (prefix, cum)
    }

    /// Violation probability of pending request `i` at frequency `f_ghz`:
    /// `P(equivalent work > f · budget)` (eq. 1 + CCDF). A non-positive
    /// budget yields VP 1, whatever the equivalent work.
    ///
    /// # Panics
    /// Panics if `f_ghz` is above the service model's
    /// [`ServiceModel::f_max_ghz`]: a conditioned sum keeps only the
    /// masses a query up to it reads.
    pub fn vp(&self, i: usize, f_ghz: f64) -> f64 {
        assert!(
            f_ghz <= self.f_max_ghz,
            "VP asked at {f_ghz} GHz, above the {} GHz ceiling",
            self.f_max_ghz
        );
        let budget_s = self.items[i].budget_s;
        if budget_s <= 0.0 {
            return 1.0;
        }
        let x = f_ghz * budget_s;
        match self.dist(i) {
            (prefix, Some(cum)) => prefix.ccdf_summed(cum, x),
            (prefix, None) => prefix.ccdf(x),
        }
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
        VpEngine::new(ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 0.0, 2.7))
    }

    /// Two-point work: 1 ms or 2 ms at f_max, with equal probability.
    fn bimodal_engine() -> VpEngine {
        let pmf = Pmf::from_masses(2.7e-3, 2.7e-3, vec![0.5, 0.5]);
        VpEngine::new(ServiceModel::new(pmf, 0.0, 2.7))
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
        let mut e = VpEngine::new(ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 1.0e-3, 2.7));
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

    /// The decision kernel without the head memo, dispatch reuse, head
    /// preparation or running sums: the head conditioned by
    /// `remaining_given_done`, one fresh `head ∗ equivalent(i)` per queued
    /// request behind any head, a deep copy of every level, and VPs by the
    /// whole PMF's `Pmf::ccdf`. The bit-level reference.
    struct Reference {
        items: Vec<(Pmf, f64)>,
    }

    impl Reference {
        fn vp(&self, i: usize, f_ghz: f64) -> f64 {
            let (dist, budget_s) = &self.items[i];
            if *budget_s <= 0.0 {
                return 1.0;
            }
            dist.ccdf(f_ghz * budget_s)
        }
    }

    fn reference_decision(
        e: &mut VpEngine,
        now: f64,
        head: Option<InflightHead>,
        deadlines: &[f64],
    ) -> Reference {
        let fixed = e.service().fixed_s();
        let mut items = Vec::new();
        match head {
            Some(h) => {
                let head_rem = reference_head(e.service().work_pmf(), h.done_work_gc);
                for (i, &d) in deadlines.iter().enumerate() {
                    let dist = if i == 0 {
                        head_rem.clone()
                    } else {
                        head_rem.convolve(e.equivalent(i)).truncated(TRUNC_EPS)
                    };
                    items.push((dist, d - now - (h.rem_fixed_s + i as f64 * fixed)));
                }
            }
            None => {
                for (i, &d) in deadlines.iter().enumerate() {
                    items.push((
                        e.equivalent(i + 1).clone(),
                        d - now - (i + 1) as f64 * fixed,
                    ));
                }
            }
        }
        Reference { items }
    }

    /// The remaining distribution of a head that has executed `done` of
    /// `work`, by `remaining_given_done`: a half-bin delta once exhausted.
    fn reference_head(work: &Pmf, done: f64) -> Pmf {
        let step = work.step();
        work.remaining_given_done(done)
            .map_or_else(|| Pmf::delta(step / 2.0, step), |(_, rem)| rem)
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
            let mut engine = VpEngine::new(ServiceModel::new(pmf, fixed, 2.7));
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
                    let reference = reference_decision(&mut engine, 0.0, head, &deadlines);
                    let fast = engine.decision(0.0, head, &deadlines);
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
            let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.1e-3, 2.7));
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
                    let reference = reference_decision(&mut engine, 0.0, head, &deadlines);
                    let fast = engine.decision(0.0, head, &deadlines);
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
        let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.0, 2.7));
        let deadlines = [5.0e-3; 6];
        let head = |done_work_gc| {
            Some(InflightHead {
                done_work_gc,
                rem_fixed_s: 0.0,
            })
        };
        // The first decision fills levels 1–5.
        let _ = engine.decision(0.0, head(0.51e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 5);
        assert_eq!(engine.tally().conditioned_hits, 0);
        assert_eq!(engine.ladder.levels(), 5);
        // Another head in the same bin hits every level.
        let _ = engine.decision(0.0, head(0.515e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 5);
        assert_eq!(engine.tally().conditioned_hits, 5);
        // A head in another bin misses.
        let _ = engine.decision(0.0, head(0.61e-3), &deadlines);
        assert_eq!(engine.tally().convolutions, 10);
        assert_eq!(engine.tally().conditioned_hits, 5);
        assert_eq!(engine.ladder.widened(), 0);
    }

    #[test]
    fn a_slot_filled_under_a_short_budget_widens_for_a_longer_one() {
        // 160 bins: the sums take the FFT path and run far past what a
        // budget of a few milliseconds reads.
        let masses = (0..160).map(|i| ((i * 29) % 13 + 1) as f64).collect();
        let pmf = Pmf::from_masses(0.4e-3, 2.0e-5, masses);
        let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.1e-3, 2.7));
        let mut reference = VpEngine::new(engine.service().clone());
        let head = Some(InflightHead {
            done_work_gc: 0.9e-3,
            rem_fixed_s: 0.05e-3,
        });
        // `assert_same_vps` reads every ladder step, the 2.7 GHz ceiling
        // among them.
        let check = |engine: &mut VpEngine, reference: &mut VpEngine, deadlines: &[f64]| {
            let fast = engine.decision(0.0, head, deadlines);
            let slow = reference_decision(reference, 0.0, head, deadlines);
            assert_same_vps(&fast, &slow, &format!("deadlines {deadlines:?}"));
        };
        let short = [0.8e-3; 4];
        let long = [0.8e-3, 3.0e-3, 3.0e-3, 3.0e-3];
        // Short budgets fill levels 1–3 with short prefixes.
        check(&mut engine, &mut reference, &short);
        assert_eq!(engine.tally().convolutions, 3);
        let short_bytes = engine.ladder.conditioned_bytes();
        // The same budgets hit.
        check(&mut engine, &mut reference, &short);
        assert_eq!(engine.tally().conditioned_hits, 3);
        // Longer budgets read further: each slot is convolved again and
        // widened.
        check(&mut engine, &mut reference, &long);
        assert_eq!(engine.tally().convolutions, 6);
        assert_eq!(engine.ladder.widened(), 3);
        assert!(engine.ladder.conditioned_bytes() > short_bytes);
        // Now the short budgets hit the widened slots.
        check(&mut engine, &mut reference, &short);
        assert_eq!(engine.tally().conditioned_hits, 6);
        // A second engine on the shared ladder reads the widened slots.
        let mut other = VpEngine::shared(Arc::clone(&engine.ladder));
        check(&mut other, &mut reference, &long);
        assert_eq!(other.tally().conditioned_hits, 3);
        assert_eq!(other.tally().convolutions, 0);
        // The slots keep less than the whole sums.
        let whole: usize = (1..=3)
            .map(|i| {
                let head_rem = engine
                    .service()
                    .work_pmf()
                    .remaining_given_done(0.9e-3)
                    .unwrap()
                    .1;
                let sum = head_rem.convolve(engine.equivalent(i)).truncated(TRUNC_EPS);
                std::mem::size_of_val(sum.masses())
            })
            .sum();
        assert!(
            engine.ladder.conditioned_bytes() < whole,
            "{} of {whole} bytes",
            engine.ladder.conditioned_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "above the 2.7 GHz ceiling")]
    fn vp_above_the_ceiling_is_rejected() {
        let mut e = bimodal_engine();
        let d = e.decision(0.0, None, &[3.0e-3]);
        let _ = d.vp(0, 2.8);
    }

    /// Every VP of `fast` at every ladder frequency equals `reference`'s
    /// to the bit.
    fn assert_same_vps(fast: &Decision<'_>, reference: &Reference, what: &str) {
        assert_eq!(fast.len(), reference.items.len(), "{what}");
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
        let shared = Arc::new(VpLadder::new(ServiceModel::new(pmf, 0.2e-3, 2.7)));
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

    /// `true` iff `a` and `b` are the same PMF to the bit.
    fn same_bits(a: &Pmf, b: &Pmf) -> bool {
        a.origin().to_bits() == b.origin().to_bits()
            && a.step().to_bits() == b.step().to_bits()
            && bits(a.masses()) == bits(b.masses())
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|m| m.to_bits()).collect()
    }

    #[test]
    fn running_sum_cdf_is_the_prefix_sum_to_the_bit() {
        eprons_proplite::cases(32, |g, case| {
            // A 1-bin work PMF is a delta; every exhausted head is one too.
            let len = *g.choose(&[1, 2, 3, 7, 20, 60, 160]);
            let origin = g.f64_in(0.0, 2.0e-3);
            let step = g.f64_in(1.0e-5, 1.0e-4);
            let pmf = Pmf::from_masses(origin, step, g.vec_f64(len, 0.0, 1.0));
            let top = pmf.max_value();
            let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.0, 2.7));
            let deadlines: Vec<f64> = (0..4).map(|_| g.f64_in(1.0e-3, 30.0e-3)).collect();
            let dones = [
                None,
                Some(0.0),
                Some(g.f64_in(0.0, top)),
                Some(top - 0.5 * step),
                Some(top + step),
            ];
            let mut summed = 0;
            for done in dones {
                let head = done.map(|done_work_gc| InflightHead {
                    done_work_gc,
                    rem_fixed_s: 0.0,
                });
                let d = engine.decision(0.0, head, &deadlines);
                for i in 0..d.len() {
                    // Conditioned slots add their prefix up at each query.
                    let (prefix, Some(cum)) = d.dist(i) else {
                        continue;
                    };
                    summed += 1;
                    let last = prefix.origin + (prefix.len - 1) as f64 * step;
                    // From below the origin to past the top, off the bin
                    // centers, and on both ends.
                    let xs = (0..=4 * prefix.len + 16)
                        .map(|k| prefix.origin + (k as f64 - 4.3) * 0.25 * step)
                        .chain([prefix.origin, last, last + step]);
                    for x in xs {
                        if prefix.bins_read(x) > prefix.mass.len() {
                            continue;
                        }
                        let what = format!("case {case}: head {done:?}, item {i}, x {x}");
                        assert_eq!(
                            prefix.cdf_summed(cum, x).to_bits(),
                            prefix.cdf(x).to_bits(),
                            "{what}"
                        );
                        assert_eq!(
                            prefix.ccdf_summed(cum, x).to_bits(),
                            prefix.ccdf(x).to_bits(),
                            "{what}"
                        );
                    }
                }
            }
            // Every decision's first item is a level or a head.
            assert!(summed >= dones.len(), "case {case}");
        });
    }

    #[test]
    fn head_classes_hold_remaining_given_done_masses_to_the_bit() {
        eprons_proplite::cases(16, |g, case| {
            let len = *g.choose(&[1, 2, 5, 20, 160]);
            let mut masses = g.vec_f64(len, 0.0, 1.0);
            masses[0] += 0.5;
            // A zero tail: a head that keeps only it is exhausted.
            let zeros = len / 4;
            for m in &mut masses[len - zeros..] {
                *m = 0.0;
            }
            let origin = g.f64_in(0.2e-3, 2.0e-3);
            let step = g.f64_in(1.0e-5, 1.0e-4);
            let work = Pmf::from_masses(origin, step, masses);
            let ladder = VpLadder::new(ServiceModel::new(work.clone(), 0.0, 2.7));
            // Heads short of the origin, at it, mid-bin in every bin and
            // past the support.
            let mut dones = vec![0.0, origin / 3.0, origin, work.max_value() + step];
            dones.extend((0..len).map(|b| origin + (b as f64 + 0.5) * step));
            let mut zero_tails = 0;
            for done in dones {
                let (class, head_origin) = ladder.head_class(done);
                let memo = ladder.head(class);
                let reference = reference_head(&work, done);
                let what = format!("case {case}: done {done}, class {class}");
                assert_eq!(bits(memo.pmf.masses()), bits(reference.masses()), "{what}");
                assert_eq!(
                    head_origin.to_bits(),
                    reference.origin().to_bits(),
                    "{what}"
                );
                match work.remaining_given_done(done) {
                    Some((start, _)) => assert_eq!(class, start, "{what}"),
                    None => {
                        assert_eq!(class, len, "{what}: the exhausted class");
                        zero_tails += usize::from(done < work.max_value());
                    }
                }
            }
            assert_eq!(zero_tails, zeros, "case {case}: one head per zero bin");
        });
    }

    #[test]
    fn dispatch_detection_agrees_with_same_bits() {
        let step = 1.0e-5;
        let models = [
            Pmf::from_masses(1.0e-3, step, (1..=40).map(f64::from).collect()),
            Pmf::delta(2.7e-3, step),
            // A delta at half a bin: the exhausted head is the work PMF.
            Pmf::delta(step / 2.0, step),
        ];
        let mut dispatches = 0;
        for work in models {
            let ladder = VpLadder::new(ServiceModel::new(work.clone(), 0.0, 2.7));
            let o = work.origin();
            // Nothing done; too little to move the origin; `0 < done <
            // origin`; at the origin; inside and past the support.
            let dones = [
                0.0,
                o * 1.0e-20,
                o / 3.0,
                o,
                o + 0.5 * step,
                work.max_value() + step,
            ];
            for done in dones {
                let (class, origin) = ladder.head_class(done);
                let whole = ladder.is_whole(class, origin);
                assert_eq!(
                    whole,
                    same_bits(&reference_head(&work, done), &work),
                    "origin {o}, done {done}"
                );
                dispatches += usize::from(whole);
            }
        }
        // `0` and `o · 1e-20` on every model, and the half-bin delta's
        // two exhausted heads.
        assert_eq!(dispatches, 3 * 2 + 2);
    }

    #[test]
    fn head_bytes_count_each_memoized_class_once() {
        let pmf = Pmf::from_masses(0.4e-3, 2.0e-5, (1..=40).map(f64::from).collect());
        let mut engine = VpEngine::new(ServiceModel::new(pmf, 0.0, 2.7));
        assert_eq!(engine.ladder.head_bytes(), 0);
        let mut after = |done_work_gc| {
            let head = Some(InflightHead {
                done_work_gc,
                rem_fixed_s: 0.0,
            });
            let _ = engine.decision(0.0, head, &[5.0e-3; 3]);
            engine.ladder.head_bytes()
        };
        // A dispatch and a head short of the origin read level 1's masses.
        assert_eq!(after(0.0), 0);
        assert_eq!(after(0.2e-3), 0);
        // A head in bin 5 keeps 34 bins: a mass and a running sum each.
        assert_eq!(after(0.4e-3 + 5.5 * 2.0e-5), 34 * 16);
        assert_eq!(after(0.4e-3 + 5.7 * 2.0e-5), 34 * 16);
        // The exhausted half-bin delta.
        assert_eq!(after(1.0), 35 * 16);
    }
}
