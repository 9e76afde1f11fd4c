//! Hierarchical pod-decomposed consolidation.
//!
//! A k-ary fat-tree is structurally hierarchical: intra-pod traffic
//! never leaves its pod, and inter-pod flows contend only on the
//! agg→core tier. This module exploits that to split the monolithic
//! greedy consolidation into
//!
//! 1. **per-pod sub-problems** — each pod places its intra-pod flows
//!    over its own edge/agg bipartite tier ([`eprons_topo::PodView`]
//!    geometry), a pure function of pod-local inputs only, so pods are
//!    embarrassingly parallel *and* a failure masked into one pod
//!    provably leaves every other pod's solve byte-identical;
//! 2. **a core stitch** — a serial pass that walks the inter-pod flows
//!    in global greedy order and consolidates them onto core switches,
//!    charging each placement against the pod solves' residual edge→agg
//!    capacities plus the agg↔core links.
//!
//! When the stitch cannot carry a pod's uplink aggregate because that
//! pod's intra placement consumed edge→agg capacity the inter traffic
//! needs, it *pushes back* a tightened uplink budget (per-edge floors
//! spread across the stitch-usable groups), the pod re-solves, and the
//! stitch re-runs — bounded to two stitch rounds.
//! Anything the decomposition cannot place falls back to the monolithic
//! [`GreedyConsolidator`], which therefore remains the differential
//! oracle: feasibility verdicts always agree, and the objective tracks
//! within the tolerance pinned by `crates/core/tests/diff_pod_decomp.rs`.
//!
//! Determinism: pods are solved in fixed order (the runner must
//! preserve order, as `parallel_map_range` does), the stitch walks one
//! globally sorted flow list, and every tie-break is by ordinal — no
//! iteration over hash maps anywhere on the decision path.

use eprons_topo::{FatTree, MultipathTopology, PathRef};

use super::greedy::GreedyConsolidator;
use super::{Assignment, ConsolidationConfig, ConsolidationError, Consolidator, PathCollector};
use crate::flow::FlowSet;

const EPS: f64 = 1e-9;

/// Stitch rounds per pass: round 0 plus one push-back re-run before the
/// pass falls back to the monolithic consolidator.
const MAX_ROUNDS: usize = 2;

/// The pure outcome of one pod-local solve: candidate choices for the
/// pod's intra flows plus the residual edge→agg capacities and active
/// switches the core stitch builds on. Depends only on pod-local inputs
/// (the pod's flows, its slice of the failure mask, and any push-back
/// floors), never on other pods' decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSolve {
    /// `(flow id, candidate index)` per intra flow, in pod-local greedy
    /// order. Same-edge flows pick candidate 0; cross-edge flows pick
    /// the agg index `j`.
    choices: Vec<(u32, u32)>,
    /// Residual usable capacity edge `i` → agg `j` (`i·(k/2)+j`) after
    /// intra reservations. Push-back floors are *not* subtracted — they
    /// were reserved for the stitch, which spends from these residuals.
    res_up: Vec<f64>,
    /// Residual agg `j` → edge `i` (same indexing as `res_up`).
    res_dn: Vec<f64>,
    /// Aggs activated by intra placements.
    agg_active: Vec<bool>,
    /// Set when some intra flow (or a host uplink aggregate) cannot be
    /// placed; the caller falls back to the monolithic path, which
    /// reproduces the exact monolithic error.
    infeasible: bool,
}

/// Driver for the embarrassingly-parallel round-0 pod solves: given the
/// pod count and a solve closure, returns the solves **in pod order**.
/// `eprons-core` passes an adapter over its thread-budgeted
/// `parallel_map_range`; `None` runs serially.
pub type PodRunner<'a> =
    &'a (dyn Fn(usize, &(dyn Fn(usize) -> PodSolve + Sync)) -> Vec<PodSolve> + Sync);

/// How a pod-decomposed pass went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodDecompStats {
    /// Pods in the fabric.
    pub pods: usize,
    /// Round-0 solves.
    pub solved: usize,
    /// Push-back re-solves.
    pub resolves: usize,
    /// Stitch rounds executed (0 when the pass fell back before any).
    pub rounds: usize,
    /// Headroom-balanced stitch retries (a packed stitch wedged on
    /// member fragmentation and was re-run with spreading).
    pub balanced: usize,
    /// Whether the monolithic path produced the assignment.
    pub fell_back: bool,
}

/// A pod-decomposed consolidation result.
#[derive(Debug)]
pub struct PodDecompReport {
    /// The (validated-shape) assignment, one path per flow.
    pub assignment: Assignment,
    /// Pass statistics (also exported as `net.pods.*` counters and a
    /// `PodConsolidation` journal event).
    pub stats: PodDecompStats,
    /// The per-pod solves the assignment was stitched from, pod order.
    /// Empty when the pass fell back to the monolithic path.
    pub solves: Vec<PodSolve>,
}

struct PodFlow {
    id: u32,
    si: u32,
    di: u32,
    d: f64,
}

struct InterFlow {
    id: u32,
    sp: u32,
    si: u32,
    dp: u32,
    di: u32,
    d: f64,
}

/// Everything the pod solves and the stitch read, computed once per
/// pass. All per-pod slices are pod-local; the stitch owns the rest.
struct Prep {
    half: usize,
    n_pods: usize,
    intra: Vec<Vec<PodFlow>>,
    inter: Vec<InterFlow>,
    /// Scaled egress/ingress per host ordinal (forced host-uplink hops).
    host_eg: Vec<f64>,
    host_in: Vec<f64>,
    host_usable: Vec<f64>,
    /// Usable capacity of edge(p,i)↔agg(p,j) per `(p, i, j)`.
    ea_usable: Vec<f64>,
    /// Usable capacity of agg(p,j)↔core(j,m) per `(p, j, m)`.
    ac_usable: Vec<f64>,
    edge_ex: Vec<bool>,
    agg_ex: Vec<bool>,
    core_ex: Vec<bool>,
}

struct Fallback(&'static str);

fn prepare(ft: &FatTree, flows: &FlowSet, cfg: &ConsolidationConfig) -> Result<Prep, Fallback> {
    let half = ft.k() / 2;
    let n_pods = ft.num_pods();
    let topo = ft.topology();
    let n_hosts = ft.hosts().len();

    let mut host_eg = vec![0.0; n_hosts];
    let mut host_in = vec![0.0; n_hosts];
    let mut host_usable = vec![0.0; n_hosts];
    for (ord, &h) in ft.hosts().iter().enumerate() {
        if cfg.is_excluded(h) {
            // An excluded endpoint host kills every candidate path of its
            // flows; let the monolithic pass produce the exact verdict.
            return Err(Fallback("host excluded"));
        }
        host_usable[ord] = cfg.usable_capacity(topo.link(ft.host_uplink(h)).capacity_mbps);
    }

    let mut intra: Vec<Vec<PodFlow>> = (0..n_pods).map(|_| Vec::new()).collect();
    let mut inter: Vec<InterFlow> = Vec::new();
    for flow in flows.flows() {
        let Some((sp, si, ss)) = ft.host_slot(flow.src) else {
            return Err(Fallback("endpoint not a fat-tree host"));
        };
        let Some((dp, di, ds)) = ft.host_slot(flow.dst) else {
            return Err(Fallback("endpoint not a fat-tree host"));
        };
        let d = flow.scaled_demand(cfg.scale_k);
        host_eg[(sp * half + si) * half + ss] += d;
        host_in[(dp * half + di) * half + ds] += d;
        if sp == dp {
            intra[sp].push(PodFlow {
                id: flow.id.0 as u32,
                si: si as u32,
                di: di as u32,
                d,
            });
        } else {
            inter.push(InterFlow {
                id: flow.id.0 as u32,
                sp: sp as u32,
                si: si as u32,
                dp: dp as u32,
                di: di as u32,
                d,
            });
        }
    }
    // Greedy order everywhere: largest scaled demand first, then flow id.
    let by_demand = |da: f64, a: u32, db: f64, db_id: u32| {
        db.partial_cmp(&da)
            .expect("demands are finite")
            .then(a.cmp(&db_id))
    };
    for l in &mut intra {
        l.sort_by(|x, y| by_demand(x.d, x.id, y.d, y.id));
    }
    inter.sort_by(|x, y| by_demand(x.d, x.id, y.d, y.id));

    let mut ea_usable = vec![0.0; n_pods * half * half];
    let mut ac_usable = vec![0.0; n_pods * half * half];
    for p in 0..n_pods {
        let pv = ft.pod_view(p);
        for i in 0..half {
            for j in 0..half {
                let l = pv.edge_agg_link(i, j);
                ea_usable[(p * half + i) * half + j] =
                    cfg.usable_capacity(topo.link(l).capacity_mbps);
            }
        }
        pv.for_each_core_uplink(|j, m, _, l| {
            ac_usable[(p * half + j) * half + m] = cfg.usable_capacity(topo.link(l).capacity_mbps);
        });
    }

    let mut edge_ex = vec![false; n_pods * half];
    let mut agg_ex = vec![false; n_pods * half];
    let mut core_ex = vec![false; half * half];
    for &n in &cfg.excluded {
        if let Some((p, i)) = ft.edge_ordinal(n) {
            edge_ex[p * half + i] = true;
        } else if let Some((p, j)) = ft.agg_ordinal(n) {
            agg_ex[p * half + j] = true;
        } else if let Some((g, m)) = ft.core_ordinal(n) {
            core_ex[g * half + m] = true;
        }
    }

    Ok(Prep {
        half,
        n_pods,
        intra,
        inter,
        host_eg,
        host_in,
        host_usable,
        ea_usable,
        ac_usable,
        edge_ex,
        agg_ex,
        core_ex,
    })
}

/// Push-back floors for one pod: capacity the intra placement must keep
/// free on the edge→agg tier for the stitch.
struct PodFloors {
    up: Vec<f64>,
    dn: Vec<f64>,
}

/// Solves one pod: place its intra flows greedily over the edge/agg
/// bipartite tier, mirroring the monolithic greedy's candidate order
/// (same-edge → the single 2-hop path, cross-edge → one 4-hop path per
/// agg `j`), fit rule, and `(new switches, candidate index)` key.
fn solve_pod(prep: &Prep, pod: usize, floors: Option<&PodFloors>) -> PodSolve {
    let half = prep.half;
    let hp = half * half;
    let mut out = PodSolve {
        choices: Vec::with_capacity(prep.intra[pod].len()),
        res_up: vec![0.0; hp],
        res_dn: vec![0.0; hp],
        agg_active: vec![false; half],
        infeasible: false,
    };
    // Forced host-uplink hops: every candidate path of a host's flow
    // crosses its single uplink, so the aggregate check is equivalent to
    // the monolithic incremental one for feasibility.
    for h in 0..hp {
        let ord = pod * hp + h;
        if prep.host_eg[ord] > prep.host_usable[ord] + EPS
            || prep.host_in[ord] > prep.host_usable[ord] + EPS
        {
            out.infeasible = true;
            return out;
        }
    }
    let ea = |i: usize, j: usize| prep.ea_usable[(pod * half + i) * half + j];
    let mut up = vec![0.0; hp]; // reserved edge i → agg j
    let mut dn = vec![0.0; hp]; // reserved agg j → edge i
    let mut edge_active = vec![false; half];
    let zero;
    let (fl_up, fl_dn) = match floors {
        Some(f) => (&f.up, &f.dn),
        None => {
            zero = vec![0.0; hp];
            (&zero, &zero)
        }
    };

    for f in &prep.intra[pod] {
        let (si, di) = (f.si as usize, f.di as usize);
        if prep.edge_ex[pod * half + si] || prep.edge_ex[pod * half + di] {
            out.infeasible = true;
            return out;
        }
        if si == di {
            // Single 2-hop candidate; host links are aggregate-checked.
            edge_active[si] = true;
            out.choices.push((f.id, 0));
            continue;
        }
        let mut best: Option<(usize, usize)> = None; // (new switches, j)
        for j in 0..half {
            if prep.agg_ex[pod * half + j] {
                continue;
            }
            let fits = up[si * half + j] + f.d + fl_up[si * half + j] <= ea(si, j) + EPS
                && dn[di * half + j] + f.d + fl_dn[di * half + j] <= ea(di, j) + EPS;
            if !fits {
                continue;
            }
            let new =
                !edge_active[si] as usize + !out.agg_active[j] as usize + !edge_active[di] as usize;
            if best.is_none_or(|b| (new, j) < b) {
                best = Some((new, j));
            }
        }
        let Some((_, j)) = best else {
            out.infeasible = true;
            return out;
        };
        up[si * half + j] += f.d;
        dn[di * half + j] += f.d;
        edge_active[si] = true;
        edge_active[di] = true;
        out.agg_active[j] = true;
        out.choices.push((f.id, j as u32));
    }
    for i in 0..half {
        for j in 0..half {
            out.res_up[i * half + j] = ea(i, j) - up[i * half + j];
            out.res_dn[i * half + j] = ea(i, j) - dn[i * half + j];
        }
    }
    out
}

enum StitchOutcome {
    /// `(flow id, candidate index)` per inter flow.
    Done(Vec<(u32, u32)>),
    /// Edge→agg residuals blocked a flow; tighten these pods and retry.
    PushBack {
        src_pod: Option<usize>,
        dst_pod: Option<usize>,
    },
    /// Blocked on the agg↔core tier (or exclusions) — push-back cannot
    /// help; fall back to the monolithic path.
    Stuck,
}

/// Consolidates the inter-pod flows onto core switches against the pod
/// solves' residuals. Serial and deterministic: one globally sorted
/// walk; candidate `(g, m)` order matches the monolithic candidate
/// enumeration (`idx = g·(k/2)+m`), the key is `(new switches, idx)`,
/// and a per-pod-pair cursor short-circuits to the pair's last core —
/// always zero-new-switch once set — so repeat pairs cost O(1).
///
/// `balance` switches the cost tie-break from lowest index to largest
/// bilateral headroom (the minimum residual of the four links a
/// candidate consumes). Packed mode saturates low `(g, m)` first, which
/// near fabric saturation can drain a source pod's and a destination
/// pod's core members in disjoint orders until no shared member is left
/// despite ample aggregate slack; headroom-aware spreading keeps both
/// sides' member residuals wide so a common `(g, m)` survives. It never
/// activates more switches than packed mode needs — the switch-count
/// cost still dominates the key — so it is the wedge-recovery retry,
/// not the default.
fn run_stitch(prep: &Prep, solves: &[PodSolve], balance: bool) -> StitchOutcome {
    let half = prep.half;
    let np = prep.n_pods;
    let hp = half * half;
    let mut ea_up = vec![0.0; np * hp];
    let mut ea_dn = vec![0.0; np * hp];
    for (p, s) in solves.iter().enumerate() {
        ea_up[p * hp..(p + 1) * hp].copy_from_slice(&s.res_up);
        ea_dn[p * hp..(p + 1) * hp].copy_from_slice(&s.res_dn);
    }
    let mut ac = prep.ac_usable.clone(); // residual agg(p,g) → core(g,m)
    let mut ca = prep.ac_usable.clone(); // residual core(g,m) → agg(p,g)
    let mut agg_on: Vec<bool> = solves
        .iter()
        .flat_map(|s| s.agg_active.iter().copied())
        .collect();
    let mut core_on = vec![false; hp];
    let mut cursor = vec![u32::MAX; np * np];
    let mut choices = Vec::with_capacity(prep.inter.len());

    for f in &prep.inter {
        let (sp, si, dp, di) = (f.sp as usize, f.si as usize, f.dp as usize, f.di as usize);
        if prep.edge_ex[sp * half + si] || prep.edge_ex[dp * half + di] {
            return StitchOutcome::Stuck;
        }
        let fits = |g: usize, m: usize, ea_up: &[f64], ea_dn: &[f64], ac: &[f64], ca: &[f64]| {
            f.d <= ea_up[(sp * half + si) * half + g] + EPS
                && f.d <= ac[(sp * half + g) * half + m] + EPS
                && f.d <= ca[(dp * half + g) * half + m] + EPS
                && f.d <= ea_dn[(dp * half + di) * half + g] + EPS
        };
        let mut chosen: Option<u32> = None;
        let cur = cursor[sp * np + dp];
        if cur != u32::MAX {
            let (g, m) = (cur as usize / half, cur as usize % half);
            // The cursor's aggs and core are active (this pair activated
            // them), so it is always a zero-new-switch candidate.
            if fits(g, m, &ea_up, &ea_dn, &ac, &ca) {
                chosen = Some(cur);
            }
        }
        if chosen.is_none() {
            let mut best: Option<(usize, u32)> = None; // (new switches, idx)
            let mut best_head = f64::NEG_INFINITY;
            let mut ea_blocked_src = false;
            let mut ea_blocked_dst = false;
            'scan: for g in 0..half {
                if prep.agg_ex[sp * half + g] || prep.agg_ex[dp * half + g] {
                    continue;
                }
                let up_res = ea_up[(sp * half + si) * half + g];
                let dn_res = ea_dn[(dp * half + di) * half + g];
                let up_ok = f.d <= up_res + EPS;
                let dn_ok = f.d <= dn_res + EPS;
                for m in 0..half {
                    if prep.core_ex[g * half + m] {
                        continue;
                    }
                    let ac_res = ac[(sp * half + g) * half + m];
                    let ca_res = ca[(dp * half + g) * half + m];
                    let core_ok = f.d <= ac_res + EPS && f.d <= ca_res + EPS;
                    if !(up_ok && dn_ok) {
                        if core_ok {
                            ea_blocked_src |= !up_ok;
                            ea_blocked_dst |= !dn_ok;
                        }
                        continue;
                    }
                    if !core_ok {
                        continue;
                    }
                    let new = !agg_on[sp * half + g] as usize
                        + !core_on[g * half + m] as usize
                        + !agg_on[dp * half + g] as usize;
                    let idx = (g * half + m) as u32;
                    if balance {
                        // Same switch-count cost, tie broken toward the
                        // candidate whose tightest link has the most
                        // residual left (then low idx, via the ascending
                        // scan replacing only on strict improvement).
                        let head = up_res.min(dn_res).min(ac_res).min(ca_res);
                        let better = match best {
                            None => true,
                            Some((bn, _)) => new < bn || (new == bn && head > best_head),
                        };
                        if better {
                            best = Some((new, idx));
                            best_head = head;
                        }
                    } else {
                        if new == 0 {
                            // Scanning in idx order: the first
                            // zero-new-switch fit is the global minimum
                            // of (new, idx).
                            best = Some((0, idx));
                            break 'scan;
                        }
                        if best.is_none_or(|b| (new, idx) < b) {
                            best = Some((new, idx));
                        }
                    }
                }
            }
            match best {
                Some((_, idx)) => chosen = Some(idx),
                None => {
                    if ea_blocked_src || ea_blocked_dst {
                        return StitchOutcome::PushBack {
                            src_pod: ea_blocked_src.then_some(sp),
                            dst_pod: ea_blocked_dst.then_some(dp),
                        };
                    }
                    return StitchOutcome::Stuck;
                }
            }
        }
        let idx = chosen.expect("placed");
        let (g, m) = (idx as usize / half, idx as usize % half);
        ea_up[(sp * half + si) * half + g] -= f.d;
        ac[(sp * half + g) * half + m] -= f.d;
        ca[(dp * half + g) * half + m] -= f.d;
        ea_dn[(dp * half + di) * half + g] -= f.d;
        agg_on[sp * half + g] = true;
        agg_on[dp * half + g] = true;
        core_on[g * half + m] = true;
        cursor[sp * np + dp] = idx;
        choices.push((f.id, idx));
    }
    StitchOutcome::Done(choices)
}

/// The agg groups of `pod` the stitch can actually route through:
/// unmasked agg in this pod and at least one unmasked core in the group.
/// A pure function of pod-local inputs (own mask slice) plus the core
/// mask, which is shared stitch-layer state every pod sees identically.
fn stitch_usable_groups(prep: &Prep, pod: usize) -> Vec<usize> {
    let half = prep.half;
    (0..half)
        .filter(|&g| !prep.agg_ex[pod * half + g] && (0..half).any(|m| !prep.core_ex[g * half + m]))
        .collect()
}

/// Per-edge totals of this pod's inter egress/ingress (scaled demand).
fn inter_sums(prep: &Prep, pod: usize) -> (Vec<f64>, Vec<f64>) {
    let mut s_up = vec![0.0; prep.half];
    let mut s_dn = vec![0.0; prep.half];
    for f in &prep.inter {
        if f.sp as usize == pod {
            s_up[f.si as usize] += f.d;
        }
        if f.dp as usize == pod {
            s_dn[f.di as usize] += f.d;
        }
    }
    (s_up, s_dn)
}

/// Round-0 floors: each edge's inter egress/ingress reserved *low-group
/// first* across the stitch-usable groups, capped per link. The stitch
/// breaks cost ties toward low `(g, m)` indices, so concentrating the
/// reservation low means intra placement packs around exactly the
/// capacity the stitch will ask for — mirroring how the monolithic
/// greedy's demand-ordered interleaving lets inter elephants claim the
/// low groups first. Zero floors when no group is usable (the stitch
/// will block and the pass falls back with the monolithic verdict).
fn floors_low_first(prep: &Prep, pod: usize) -> PodFloors {
    let half = prep.half;
    let groups = stitch_usable_groups(prep, pod);
    let (s_up, s_dn) = inter_sums(prep, pod);
    let mut up = vec![0.0; half * half];
    let mut dn = vec![0.0; half * half];
    for i in 0..half {
        let (mut need_up, mut need_dn) = (s_up[i], s_dn[i]);
        for &g in &groups {
            let cap = prep.ea_usable[(pod * half + i) * half + g];
            up[i * half + g] = need_up.min(cap);
            dn[i * half + g] = need_dn.min(cap);
            need_up = (need_up - cap).max(0.0);
            need_dn = (need_dn - cap).max(0.0);
        }
    }
    PodFloors { up, dn }
}

/// Push-back floors: the same totals spread *evenly* across the
/// stitch-usable groups — a genuinely different arrangement for when
/// low-first concentration left per-group residuals too lumpy for the
/// stitch's per-flow placements. `None` when no group is usable.
fn floors_even(prep: &Prep, pod: usize) -> Option<PodFloors> {
    let half = prep.half;
    let groups = stitch_usable_groups(prep, pod);
    if groups.is_empty() {
        return None;
    }
    let (s_up, s_dn) = inter_sums(prep, pod);
    let mut up = vec![0.0; half * half];
    let mut dn = vec![0.0; half * half];
    let share = groups.len() as f64;
    for i in 0..half {
        for &g in &groups {
            let cap = prep.ea_usable[(pod * half + i) * half + g];
            up[i * half + g] = (s_up[i] / share).min(cap);
            dn[i * half + g] = (s_dn[i] / share).min(cap);
        }
    }
    Some(PodFloors { up, dn })
}

/// Consolidates `flows` via the two-level pod decomposition, falling
/// back to the monolithic [`GreedyConsolidator`] whenever the
/// decomposition cannot place everything (so feasibility verdicts are
/// always identical to the monolithic path's).
///
/// `ft` supplies the pod structure; `net` is what paths are enumerated
/// and materialized on (typically the shared-segment
/// [`super::arena::PathArena`] over the same tree). `runner` fans the
/// round-0 pod solves out ([`PodRunner`]; `None` solves them serially).
///
/// # Errors
/// Only when the monolithic fallback itself fails — i.e. the instance
/// is infeasible.
pub fn consolidate_pod_decomposed(
    ft: &FatTree,
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
    runner: Option<PodRunner<'_>>,
) -> Result<PodDecompReport, ConsolidationError> {
    let _t = eprons_obs::Timer::scoped("net.consolidate.pod_s");
    let mut sp = eprons_obs::Span::enter("net.consolidate");
    if eprons_obs::enabled() {
        sp.note(format!(
            "algo=pod_decomposed flows={} pods={}",
            flows.len(),
            ft.num_pods()
        ));
    }
    let mut stats = PodDecompStats {
        pods: ft.num_pods(),
        solved: 0,
        resolves: 0,
        rounds: 0,
        balanced: 0,
        fell_back: false,
    };
    let result = try_decomposed(ft, net, flows, cfg, runner, sp.id(), &mut stats);
    let report = match result {
        Ok((assignment, solves)) => Ok(PodDecompReport {
            assignment,
            stats,
            solves,
        }),
        Err(Fallback(reason)) => {
            stats.fell_back = true;
            if eprons_obs::enabled() {
                eprons_obs::registry().counter("net.pods.fallbacks").inc();
                sp.note(format!(
                    "algo=pod_decomposed flows={} pods={} fallback={reason}",
                    flows.len(),
                    ft.num_pods()
                ));
            }
            GreedyConsolidator
                .consolidate(net, flows, cfg)
                .map(|assignment| PodDecompReport {
                    assignment,
                    stats,
                    solves: Vec::new(),
                })
        }
    };
    // Telemetry runs whether or not the monolithic fallback succeeded:
    // the pass happened either way, and the `PodConsolidation` event must
    // reconcile 1:1 with the `net.consolidate` span (`obsctl audit`
    // counts both sides), even when the instance is infeasible.
    if eprons_obs::enabled() {
        let reg = eprons_obs::registry();
        reg.counter("net.pods.solved").add(stats.solved as u64);
        reg.counter("net.pods.resolves").add(stats.resolves as u64);
        reg.counter("net.pods.balanced_stitches")
            .add(stats.balanced as u64);
        reg.counter("net.consolidate.passes").inc();
        eprons_obs::record(eprons_obs::Event::PodConsolidation {
            pods: stats.pods as u64,
            solved: stats.solved as u64,
            resolves: stats.resolves as u64,
            rounds: stats.rounds as u64,
            balanced: stats.balanced as u64,
            fallback: stats.fell_back,
        });
        if let Ok(report) = &report {
            if !stats.fell_back {
                eprons_obs::record(eprons_obs::Event::ConsolidationPass {
                    algo: "pod_decomposed".into(),
                    flows: flows.len() as u64,
                    placed: flows.len() as u64,
                    active_switches: report.assignment.active_switch_count(net) as u64,
                });
            }
        }
    }
    report
}

fn try_decomposed(
    ft: &FatTree,
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
    runner: Option<PodRunner<'_>>,
    parent_span: u64,
    stats: &mut PodDecompStats,
) -> Result<(Assignment, Vec<PodSolve>), Fallback> {
    let prep = prepare(ft, flows, cfg)?;
    let n_pods = prep.n_pods;

    // Round 0: embarrassingly parallel pod solves.
    let solve_one = |p: usize| -> PodSolve {
        let mut psp = eprons_obs::Span::enter_under(parent_span, "pod.consolidate");
        if eprons_obs::enabled() {
            psp.note(format!("pod={p} of={n_pods}"));
        }
        // Round 0 reserves low-first floors for the pod's own inter
        // traffic; if the floors themselves make intra infeasible (they
        // over-reserve), retry unfloored — the stitch may still manage,
        // and if not the push-back/fallback ladder takes over.
        let floors = floors_low_first(&prep, p);
        let solved = solve_pod(&prep, p, Some(&floors));
        if solved.infeasible {
            solve_pod(&prep, p, None)
        } else {
            solved
        }
    };
    let mut solves: Vec<PodSolve> = match runner {
        Some(run) => run(n_pods, &solve_one),
        None => (0..n_pods).map(solve_one).collect(),
    };
    assert_eq!(solves.len(), n_pods, "pod runner must preserve arity");
    stats.solved = n_pods;
    if solves.iter().any(|s| s.infeasible) {
        return Err(Fallback("pod sub-problem infeasible"));
    }
    // Stitch, with bounded push-back. Each round tries the packed walk
    // first and, if it wedges, retries balanced against the same pod
    // solves — member fragmentation is stitch-internal, so no pod
    // re-solve can fix it and no pod re-solve is paid for it.
    let inter_choices = loop {
        stats.rounds += 1;
        let mut ssp = eprons_obs::Span::enter_under(parent_span, "pod.stitch");
        if eprons_obs::enabled() {
            ssp.note(format!("round={} inter={}", stats.rounds, prep.inter.len()));
        }
        let outcome = match run_stitch(&prep, &solves, false) {
            StitchOutcome::Done(c) => StitchOutcome::Done(c),
            _ => {
                stats.balanced += 1;
                if eprons_obs::enabled() {
                    ssp.note(format!(
                        "round={} inter={} balanced=true",
                        stats.rounds,
                        prep.inter.len()
                    ));
                }
                run_stitch(&prep, &solves, true)
            }
        };
        match outcome {
            StitchOutcome::Done(c) => break c,
            StitchOutcome::Stuck => return Err(Fallback("core tier exhausted")),
            StitchOutcome::PushBack { src_pod, dst_pod } => {
                if stats.rounds >= MAX_ROUNDS {
                    return Err(Fallback("push-back rounds exhausted"));
                }
                let mut pods: Vec<usize> = src_pod.into_iter().chain(dst_pod).collect();
                pods.dedup();
                for p in pods {
                    let Some(floors) = floors_even(&prep, p) else {
                        return Err(Fallback("no stitch-usable group"));
                    };
                    let mut rsp = eprons_obs::Span::enter_under(parent_span, "pod.consolidate");
                    if eprons_obs::enabled() {
                        rsp.note(format!("pod={p} of={n_pods} resolve=true"));
                    }
                    let s = solve_pod(&prep, p, Some(&floors));
                    drop(rsp);
                    if s.infeasible {
                        return Err(Fallback("floored pod sub-problem infeasible"));
                    }
                    solves[p] = s;
                    stats.resolves += 1;
                }
            }
        }
    };

    // Deterministic bit-stable merge: collect every choice, then
    // materialize paths in flow-id order.
    let mut choice = vec![u32::MAX; flows.len()];
    for s in &solves {
        for &(fid, c) in &s.choices {
            choice[fid as usize] = c;
        }
    }
    for &(fid, c) in &inter_choices {
        choice[fid as usize] = c;
    }
    let mut store = PathCollector::new();
    // Fat-tree paths are at most 6 hops (host–edge–agg–core–agg–edge–host).
    store.reserve(flows.len(), 6);
    let mut nbuf = Vec::new();
    let mut lbuf = Vec::new();
    for flow in flows.flows() {
        let c = choice[flow.id.0];
        debug_assert_ne!(c, u32::MAX, "every flow must have a choice");
        assert!(
            net.nth_candidate_into(flow.src, flow.dst, c as usize, &mut nbuf, &mut lbuf),
            "candidate index within enumeration"
        );
        store.push(PathRef {
            nodes: &nbuf,
            links: &lbuf,
        });
    }
    let a = Assignment::from_collector(net, flows, store);
    Ok((a, solves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowClass, FlowId};

    fn decomp(ft: &FatTree, flows: &FlowSet, cfg: &ConsolidationConfig) -> PodDecompReport {
        consolidate_pod_decomposed(ft, ft, flows, cfg, None).unwrap()
    }

    /// A representative mix: elephants, cross-pod queries, intra traffic.
    fn mixed_flows(ft: &FatTree) -> FlowSet {
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(1, 0, 1),
            20.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.host(0, 1, 0),
            ft.host(1, 1, 0),
            20.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.host(2, 0, 0),
            ft.host(2, 1, 0),
            300.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(2, 0, 1),
            ft.host(2, 0, 0),
            50.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.host(3, 0, 0),
            ft.host(0, 1, 1),
            120.0,
            FlowClass::LatencySensitive,
        );
        fs
    }

    #[test]
    fn valid_and_close_to_monolithic() {
        let ft = FatTree::new(4, 1000.0);
        let fs = mixed_flows(&ft);
        for k in [1.0, 2.0, 3.0] {
            let cfg = ConsolidationConfig::with_k(k);
            let r = decomp(&ft, &fs, &cfg);
            assert!(!r.stats.fell_back, "K={k} fell back");
            r.assignment.validate(&ft, &fs, &cfg).unwrap();
            let mono = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
            let dw = r.assignment.network_power_w(&ft, &cfg.power);
            let mw = mono.network_power_w(&ft, &cfg.power);
            assert!(
                (dw - mw).abs() <= 0.005 * mw + 1e-9,
                "K={k}: decomposed {dw} W vs monolithic {mw} W"
            );
        }
    }

    #[test]
    fn intra_only_traffic_lights_no_cores() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        for p in 0..4 {
            fs.add(
                ft.host(p, 0, 0),
                ft.host(p, 1, 0),
                100.0,
                FlowClass::LatencySensitive,
            );
        }
        let cfg = ConsolidationConfig::with_k(1.0);
        let r = decomp(&ft, &fs, &cfg);
        assert!(!r.stats.fell_back);
        for &c in ft.core_switches() {
            assert!(
                !r.assignment.state().node_on(c),
                "core lit by intra-only traffic"
            );
        }
        r.assignment.validate(&ft, &fs, &cfg).unwrap();
    }

    #[test]
    fn repeat_pod_pairs_share_one_core() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        for i in 0..2 {
            for h in 0..2 {
                fs.add(
                    ft.host(0, i, h),
                    ft.host(2, i, h),
                    30.0,
                    FlowClass::LatencySensitive,
                );
            }
        }
        let cfg = ConsolidationConfig::with_k(1.0);
        let r = decomp(&ft, &fs, &cfg);
        let lit: Vec<_> = ft
            .core_switches()
            .iter()
            .filter(|&&c| r.assignment.state().node_on(c))
            .collect();
        assert_eq!(
            lit.len(),
            1,
            "pod-pair cursor should consolidate onto one core"
        );
    }

    #[test]
    fn foreign_pod_mask_leaves_other_solves_byte_identical() {
        let ft = FatTree::new(4, 1000.0);
        let fs = mixed_flows(&ft);
        let cfg = ConsolidationConfig::with_k(2.0);
        let base = decomp(&ft, &fs, &cfg);
        // Mask one agg of pod 1; pods 0/2/3 see identical inputs.
        let masked_cfg = ConsolidationConfig::with_k(2.0).with_excluded(vec![ft.agg(1, 0)]);
        let masked = decomp(&ft, &fs, &masked_cfg);
        assert!(!base.stats.fell_back && !masked.stats.fell_back);
        for p in [0usize, 2, 3] {
            assert_eq!(
                base.solves[p].choices, masked.solves[p].choices,
                "pod {p} solve changed under a foreign-pod mask"
            );
        }
        assert!(
            !masked.solves[1].agg_active[0],
            "masked agg must not be activated"
        );
    }

    #[test]
    fn infeasible_matches_monolithic_verdict() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        // One host's uplink cannot carry 1200 Mbps.
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            600.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 0),
            ft.host(2, 0, 0),
            600.0,
            FlowClass::LatencyTolerant,
        );
        let cfg = ConsolidationConfig::with_k(1.0);
        let dec = consolidate_pod_decomposed(&ft, &ft, &fs, &cfg, None);
        let mono = GreedyConsolidator.consolidate(&ft, &fs, &cfg);
        assert_eq!(dec.unwrap_err(), mono.unwrap_err());
    }

    #[test]
    fn proactive_floors_survive_core_masked_uplink_contention() {
        // Cores of group 1 are masked, so inter traffic must ride group
        // 0. The round-0 low-first floors reserve the 900 Mbps elephant's
        // share of edge0→agg0 before intra placement, so intra packs onto
        // agg 1 and the stitch succeeds in a single round.
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(0, 1, 0),
            500.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(0, 1, 1),
            400.0,
            FlowClass::LatencyTolerant,
        );
        let cfg =
            ConsolidationConfig::with_k(1.0).with_excluded(vec![ft.core(1, 0), ft.core(1, 1)]);
        let r = decomp(&ft, &fs, &cfg);
        assert!(
            !r.stats.fell_back,
            "floors should have pre-empted the contention"
        );
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(r.stats.resolves, 0);
        r.assignment.validate(&ft, &fs, &cfg).unwrap();
        // The inter elephant rides group 0 (the only stitch-usable one).
        let inter_path = r.assignment.path(FlowId(0));
        assert!(
            inter_path.nodes.contains(&ft.core(0, 0)) || inter_path.nodes.contains(&ft.core(0, 1))
        );
    }

    #[test]
    fn push_back_respreads_when_concentration_is_too_lumpy() {
        // Edge 0 of pod 0 sends two 500 Mbps inter elephants (1000 total,
        // more than one 950 Mbps-usable uplink) plus 900 Mbps of intra.
        // Low-first floors concentrate 950 on group 0, shoving all intra
        // onto agg 1 — after which the second elephant fits neither group
        // (g0 residual 450, g1 residual 50). The push-back's even-spread
        // floors (500/500) split the intra across both aggs instead, and
        // the round-2 stitch places one elephant per group.
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            500.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(1, 1, 0),
            500.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 0),
            ft.host(0, 1, 0),
            450.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(0, 1, 1),
            450.0,
            FlowClass::LatencyTolerant,
        );
        let cfg = ConsolidationConfig::with_k(1.0);
        let r = decomp(&ft, &fs, &cfg);
        assert!(
            !r.stats.fell_back,
            "even-spread push-back should have recovered"
        );
        assert_eq!(r.stats.rounds, 2);
        assert_eq!(r.stats.resolves, 1);
        r.assignment.validate(&ft, &fs, &cfg).unwrap();
        // The monolithic oracle also places this instance; power parity
        // within one switch.
        let mono = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        let dw = r.assignment.network_power_w(&ft, &cfg.power);
        let mw = mono.network_power_w(&ft, &cfg.power);
        assert!(
            (dw - mw).abs() <= 40.0,
            "decomposed {dw} W vs monolithic {mw} W"
        );
    }

    #[test]
    fn excluded_edge_falls_back_with_monolithic_error() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            100.0,
            FlowClass::LatencySensitive,
        );
        let cfg = ConsolidationConfig::with_k(1.0).with_excluded(vec![ft.edge(0, 0)]);
        let dec = consolidate_pod_decomposed(&ft, &ft, &fs, &cfg, None);
        let mono = GreedyConsolidator.consolidate(&ft, &fs, &cfg);
        assert_eq!(dec.unwrap_err(), mono.unwrap_err());
    }

    #[test]
    fn deterministic_across_runs_and_runners() {
        let ft = FatTree::new(8, 1000.0);
        let mut fs = FlowSet::new();
        let hosts = ft.hosts();
        for a in 0..24usize {
            let b = (a * 7 + 13) % hosts.len();
            if hosts[a] == hosts[b] {
                continue;
            }
            fs.add(
                hosts[a],
                hosts[b],
                15.0 + a as f64,
                FlowClass::LatencySensitive,
            );
        }
        let cfg = ConsolidationConfig::with_k(1.5);
        let serial = decomp(&ft, &fs, &cfg);
        // A deliberately reordered (but order-preserving in results)
        // runner must not change anything.
        let runner: PodRunner<'_> = &|n, f| {
            let mut out: Vec<Option<PodSolve>> = (0..n).map(|_| None).collect();
            for p in (0..n).rev() {
                out[p] = Some(f(p));
            }
            out.into_iter().map(|o| o.unwrap()).collect()
        };
        let alt = consolidate_pod_decomposed(&ft, &ft, &fs, &cfg, Some(runner)).unwrap();
        for i in 0..fs.len() {
            assert_eq!(
                serial.assignment.path(FlowId(i)).nodes,
                alt.assignment.path(FlowId(i)).nodes,
                "flow {i} diverged across runners"
            );
        }
    }

    #[test]
    fn empty_flow_set_is_trivially_placed() {
        let ft = FatTree::new(4, 1000.0);
        let fs = FlowSet::new();
        let cfg = ConsolidationConfig::with_k(1.0);
        let r = decomp(&ft, &fs, &cfg);
        assert!(!r.stats.fell_back);
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(r.assignment.active_switch_count(&ft), 0);
    }
}
