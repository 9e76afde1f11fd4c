//! The joint server+network power optimizer (paper §IV).
//!
//! EPRONS "minimizes the entire data center's power consumption through
//! dynamically searching the optimal parameter K … while guaranteeing the
//! latency constraints". Concretely: evaluate each candidate network
//! configuration (scale factor `K` or aggregation preset), keep those that
//! meet the end-to-end SLA, and choose the one with the lowest *total*
//! power. When nothing is feasible the optimizer "turns on a minimal
//! number of additional network links and switches": it falls back to the
//! candidate with the lowest measured tail latency.
//!
//! Both search strategies run on the staged pipeline: candidates share one
//! [`ScenarioContext`], so the per-candidate cost is consolidation +
//! latency sampling + DVFS simulation, never a workload rebuild. Use
//! [`optimize_in_context`] / [`adaptive_k_in_context`] directly when a
//! context is already in hand (the day controller builds one per epoch);
//! the template-taking entry points build it for you.

use std::ops::ControlFlow;

use eprons_topo::{AggregationLevel, LinkId, MultipathTopology, NodeId};

use crate::cluster::{ClusterError, ClusterRun, ClusterRunResult, ConsolidationSpec};
use crate::config::ClusterConfig;
use crate::scenario::{scheme_idle_floor_w, ScenarioContext};

/// The optimizer's selection.
#[derive(Debug, Clone)]
pub struct JointChoice {
    /// The chosen network configuration.
    pub spec: ConsolidationSpec,
    /// Its measured run.
    pub result: ClusterRunResult,
    /// Whether the choice met the SLA (false = least-bad fallback).
    pub feasible: bool,
    /// Candidates actually measured before committing (the optimizer's
    /// cost currency — [`adaptive_k`] exists to make this smaller than
    /// the full ladder's).
    pub evaluated: u64,
}

/// Journals one measured candidate's verdict (no-op when telemetry is
/// off). Shared by both search strategies so the trace schema cannot
/// drift between them.
fn journal_candidate(spec: ConsolidationSpec, result: &ClusterRunResult, feasible: bool) {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::OptimizerCandidate {
            k: spec.label(),
            total_w: result.breakdown.total_w(),
            p95_us: result.e2e_latency.p95_s * 1.0e6,
            feasible,
        });
    }
}

/// Journals a candidate that failed to evaluate at all.
fn journal_failure(spec: ConsolidationSpec, err: &ClusterError) {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::CandidateFailed {
            k: spec.label(),
            error: err.to_string(),
        });
    }
}

/// Journals the committed choice and returns it.
fn journal_choice(choice: JointChoice) -> JointChoice {
    if eprons_obs::enabled() {
        eprons_obs::record(eprons_obs::Event::OptimizerChoice {
            k: choice.spec.label(),
            total_w: choice.result.breakdown.total_w(),
            p95_us: choice.result.e2e_latency.p95_s * 1.0e6,
            feasible: choice.feasible,
            evaluated: choice.evaluated,
        });
    }
    choice
}

/// Evaluates `candidates` (in parallel) under the given run template and
/// returns the minimum-total-power feasible choice, or the lowest-latency
/// candidate if none is feasible. Returns `None` only if every candidate
/// fails outright (e.g. consolidation cannot place the traffic anywhere).
///
/// Convenience wrapper over [`optimize_total_power_traced`] that drops the
/// per-candidate failure reasons.
pub fn optimize_total_power(
    cfg: &ClusterConfig,
    template: &ClusterRun,
    candidates: &[ConsolidationSpec],
) -> Option<JointChoice> {
    optimize_total_power_traced(cfg, template, candidates).0
}

/// [`optimize_total_power`] with full decision tracing: every candidate's
/// verdict is journaled (when telemetry is on) as an `OptimizerCandidate`
/// or `CandidateFailed` event, the commit as an `OptimizerChoice`, and the
/// failures are returned alongside the choice so callers can report *why*
/// candidates dropped out instead of silently swallowing their errors.
///
/// Builds one [`ScenarioContext`] from the template and delegates to
/// [`optimize_in_context`].
pub fn optimize_total_power_traced(
    cfg: &ClusterConfig,
    template: &ClusterRun,
    candidates: &[ConsolidationSpec],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    if candidates.is_empty() {
        return (None, Vec::new());
    }
    let ctx = ScenarioContext::for_template(cfg, template);
    optimize_in_context(&ctx, template.scheme, candidates)
}

/// The exhaustive search against an already-built scenario: evaluates
/// every candidate (fanning out over the thread budget), journals each
/// verdict, and commits the minimum-total-power feasible candidate (or
/// the lowest-tail fallback).
pub fn optimize_in_context(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    optimize_in_context_masked(ctx, scheme, candidates, &[])
}

/// [`optimize_in_context`] with a failed-switch mask: every candidate is
/// consolidated with `excluded` switches forced off, so the ladder an
/// epoch searches after a failure never routes through dead hardware
/// (the next-epoch half of the degradation ladder, §IV-B).
pub fn optimize_in_context_masked(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
    excluded: &[eprons_topo::NodeId],
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    let cfg = ctx.cfg();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if eprons_obs::enabled() {
        search_span.note(format!("mode=exhaustive candidates={}", candidates.len()));
    }
    let results = ctx.evaluate_candidates_masked(scheme, candidates, excluded);
    let mut ok: Vec<(ConsolidationSpec, ClusterRunResult, bool)> = Vec::new();
    let mut failures: Vec<(ConsolidationSpec, ClusterError)> = Vec::new();
    for (spec, res) in results {
        match res {
            Ok(r) => {
                let feasible = r.is_feasible(cfg);
                journal_candidate(spec, &r, feasible);
                ok.push((spec, r, feasible));
            }
            Err(e) => {
                journal_failure(spec, &e);
                failures.push((spec, e));
            }
        }
    }
    if ok.is_empty() {
        return (None, failures);
    }
    let evaluated = ok.len() as u64;
    // Feasible set → min total power.
    let feasible = ok
        .iter()
        .filter(|(_, _, feasible)| *feasible)
        .min_by(|a, b| {
            a.1.breakdown
                .total_w()
                .partial_cmp(&b.1.breakdown.total_w())
                .expect("power is finite")
        });
    let choice = if let Some((spec, result, _)) = feasible {
        JointChoice {
            spec: *spec,
            result: result.clone(),
            feasible: true,
            evaluated,
        }
    } else {
        // Fallback: least-bad latency (most generous network).
        let (spec, result, _) = ok
            .iter()
            .min_by(|a, b| {
                a.1.e2e_latency
                    .p95_s
                    .partial_cmp(&b.1.e2e_latency.p95_s)
                    .expect("latency is finite")
            })
            .expect("non-empty");
        JointChoice {
            spec: *spec,
            result: result.clone(),
            feasible: false,
            evaluated,
        }
    };
    (Some(journal_choice(choice)), failures)
}

/// A provably-sound lower bound on the total power any evaluation of
/// `spec` can report, computed without simulating anything.
///
/// Two summands, both floors of what the accounting stage later adds up:
///
/// * **Network.** For the aggregation presets the active set is known in
///   advance — the preset switches minus the mask, links on iff both
///   endpoints are on — so the bound is the *exact* DCN power the plan
///   will report. For `GreedyK` the bound counts only the *mandatory*
///   elements: nodes/links present in every candidate path of a flow must
///   be powered by any assignment that routes it, and greedy never powers
///   a link it does not use. Flows of one access class
///   ([`MultipathTopology::access_class`]) share their candidates'
///   interiors, so the interior intersection runs once per class, and
///   each flow adds its two host links, which every candidate carries. A
///   flow without a class intersects its own candidates whole.
/// * **Servers.** Every simulated core draws at least its policy's idle
///   floor at every instant (`scheme_idle_floor_w` is the same floor
///   stage 3 integrates through trailing idle), so each server reports at
///   least `server_w(floor)`.
///
/// Soundness (`bound ≤ measured total`) is what lets the ladder skip a
/// candidate whose bound exceeds a feasible incumbent's measured power
/// without changing which candidate wins.
pub fn candidate_power_floor_w(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    spec: ConsolidationSpec,
    excluded: &[NodeId],
) -> f64 {
    let cfg = ctx.cfg();
    let d = &*ctx.data;
    let topo = d.ft.topology();
    let mut masked = vec![false; topo.num_nodes()];
    for &n in excluded {
        masked[n.0] = true;
    }
    let server_floor =
        ctx.num_servers() as f64 * cfg.cpu.server_w(scheme_idle_floor_w(cfg, scheme));
    let net_floor = match spec {
        ConsolidationSpec::AllOn | ConsolidationSpec::Level(_) => {
            let level = match spec {
                ConsolidationSpec::Level(l) => l,
                _ => AggregationLevel::Agg0,
            };
            let on = topo.node_mask(
                level
                    .active_switches(&d.ft)
                    .into_iter()
                    .filter(|n| !masked[n.0]),
            );
            let switches = topo
                .nodes()
                .filter(|(id, n)| n.kind.is_switch() && on[id.0])
                .count();
            let links = topo.links().filter(|(_, l)| on[l.a.0] && on[l.b.0]).count();
            cfg.net_power.power_w_for_counts(switches, links)
        }
        ConsolidationSpec::GreedyK(_) => {
            let mut m_sw = vec![false; topo.num_nodes()];
            let mut m_ln = vec![false; topo.num_links()];
            let (mut sw, mut ln) = (Vec::new(), Vec::new());
            // Per access class: 0 unseen, 1 walked, 2 walked and found
            // without candidates (its flows then add nothing).
            let mut class = vec![0u8; d.arena.access_classes()];
            for fl in d.flows.flows() {
                match d.arena.access_class(fl.src, fl.dst) {
                    Some(c) => {
                        sw.clear();
                        ln.clear();
                        if class[c] == 0 {
                            let any =
                                common_elements(&d.arena, fl.src, fl.dst, true, &mut sw, &mut ln);
                            class[c] = if any { 1 } else { 2 };
                        }
                        if class[c] == 1 {
                            // Single-homed by the class contract: each
                            // host's one link is on every candidate.
                            m_ln[topo.neighbors(fl.src)[0].1 .0] = true;
                            m_ln[topo.neighbors(fl.dst)[0].1 .0] = true;
                        }
                    }
                    None => {
                        common_elements(&d.arena, fl.src, fl.dst, false, &mut sw, &mut ln);
                    }
                }
                for n in &sw {
                    m_sw[n.0] = true;
                }
                for l in &ln {
                    m_ln[l.0] = true;
                }
            }
            // Masked elements can never be powered (a flow whose mandatory
            // hardware is dead makes the candidate fail instead).
            let switches = (0..m_sw.len()).filter(|&i| m_sw[i] && !masked[i]).count();
            let links = topo
                .links()
                .filter(|&(id, l)| m_ln[id.0] && !masked[l.a.0] && !masked[l.b.0])
                .count();
            cfg.net_power.power_w_for_counts(switches, links)
        }
    };
    server_floor + net_floor
}

/// Intersects the interior switches and the links of every candidate of
/// `(src, dst)` into `sw` and `ln` (cleared first), without materializing
/// a path; with `interior_links` the two host links are left out.
/// Returns `false` when the pair has no candidate.
fn common_elements(
    net: &dyn MultipathTopology,
    src: NodeId,
    dst: NodeId,
    interior_links: bool,
    sw: &mut Vec<NodeId>,
    ln: &mut Vec<LinkId>,
) -> bool {
    sw.clear();
    ln.clear();
    let mut first = true;
    net.for_each_candidate(src, dst, &mut |p| {
        let links = if interior_links {
            &p.links[1..p.links.len() - 1]
        } else {
            p.links
        };
        if first {
            sw.extend_from_slice(p.interior());
            ln.extend_from_slice(links);
            first = false;
        } else {
            sw.retain(|x| p.interior().contains(x));
            ln.retain(|x| links.contains(x));
        }
        ControlFlow::Continue(())
    });
    !first
}

/// [`optimize_in_context_masked`] with lower-bound pruning and
/// best-first candidate ordering — same winner, fewer simulations.
///
/// Candidates are evaluated cheapest-bound-first (`warm_hint`, typically
/// the previous epoch's winner, jumps the queue), and once a feasible
/// incumbent exists every remaining candidate whose
/// [`candidate_power_floor_w`] *strictly* exceeds the incumbent's
/// measured total is skipped: its measurement could only come in above
/// its bound, so it cannot tie or beat the incumbent. Skips are journaled
/// as `CandidatePruned` events and counted under
/// `core.optimizer.pruned`; they do not count toward
/// [`JointChoice::evaluated`].
///
/// **Bit-identity.** The returned choice equals the exhaustive sweep's
/// bit for bit: bounds are sound, ties are never pruned (strict
/// inequality), and the final selection re-ranks the measured survivors
/// in original candidate order, reproducing the exhaustive `min_by`
/// tie-breaking. When nothing is feasible, no pruning has happened (an
/// incumbent is a precondition), so the least-bad fallback also matches.
/// The hint affects evaluation order only, never the result.
pub fn optimize_in_context_pruned(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    candidates: &[ConsolidationSpec],
    excluded: &[eprons_topo::NodeId],
    warm_hint: Option<ConsolidationSpec>,
) -> (Option<JointChoice>, Vec<(ConsolidationSpec, ClusterError)>) {
    let cfg = ctx.cfg();
    let obs_on = eprons_obs::enabled();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if obs_on {
        search_span.note(format!(
            "mode=pruned candidates={} warm={}",
            candidates.len(),
            warm_hint.is_some()
        ));
    }
    // Leaf span: bound computation is the search's only serial work of
    // note, so give the flame view a frame for it.
    let bounds_span = eprons_obs::Span::enter("optimizer.bounds");
    // The GreedyK bound counts mandatory elements only, so it does not
    // depend on K: every rung of a K ladder shares one computation.
    let mut greedy_floor: Option<f64> = None;
    let floors: Vec<f64> = candidates
        .iter()
        .map(|&spec| match spec {
            ConsolidationSpec::GreedyK(_) => {
                *greedy_floor.get_or_insert_with(|| ctx.floor_cached(scheme, spec, excluded))
            }
            _ => ctx.floor_cached(scheme, spec, excluded),
        })
        .collect();
    drop(bounds_span);
    // Cheapest bound first: the likely winner is measured early, so the
    // incumbent that powers the pruning exists as soon as possible.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&i, &j| {
        floors[i]
            .partial_cmp(&floors[j])
            .expect("power bounds are finite")
            .then(i.cmp(&j))
    });
    if let Some(hint) = warm_hint {
        if let Some(pos) = order.iter().position(|&i| candidates[i] == hint) {
            let i = order.remove(pos);
            order.insert(0, i);
        }
    }

    let mut measured: Vec<Option<(ClusterRunResult, bool)>> =
        (0..candidates.len()).map(|_| None).collect();
    let mut failures: Vec<(ConsolidationSpec, ClusterError)> = Vec::new();
    let mut incumbent_w: Option<f64> = None;
    let mut evaluated = 0u64;
    for &i in &order {
        let spec = candidates[i];
        if let Some(best_w) = incumbent_w {
            if floors[i] > best_w {
                if obs_on {
                    eprons_obs::registry()
                        .counter("core.optimizer.pruned")
                        .inc();
                    eprons_obs::record(eprons_obs::Event::CandidatePruned {
                        k: spec.label(),
                        bound_w: floors[i],
                        incumbent_w: best_w,
                    });
                }
                continue;
            }
        }
        let mut cand_span = eprons_obs::Span::enter("optimizer.candidate");
        if obs_on {
            cand_span.note(format!("spec={}", spec.label()));
        }
        match ctx.evaluate_masked(scheme, spec, excluded) {
            Ok(r) => {
                evaluated += 1;
                let feasible = r.is_feasible(cfg);
                journal_candidate(spec, &r, feasible);
                if feasible {
                    let w = r.breakdown.total_w();
                    incumbent_w = Some(incumbent_w.map_or(w, |b| b.min(w)));
                }
                measured[i] = Some((r, feasible));
            }
            Err(e) => {
                journal_failure(spec, &e);
                failures.push((spec, e));
            }
        }
    }
    // Re-rank the survivors in original candidate order so tie-breaking
    // matches the exhaustive sweep exactly.
    let ok: Vec<(ConsolidationSpec, &ClusterRunResult, bool)> = measured
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|(r, f)| (candidates[i], r, *f)))
        .collect();
    if ok.is_empty() {
        return (None, failures);
    }
    let feasible = ok
        .iter()
        .filter(|(_, _, feasible)| *feasible)
        .min_by(|a, b| {
            a.1.breakdown
                .total_w()
                .partial_cmp(&b.1.breakdown.total_w())
                .expect("power is finite")
        });
    let choice = if let Some(&(spec, result, _)) = feasible {
        JointChoice {
            spec,
            result: result.clone(),
            feasible: true,
            evaluated,
        }
    } else {
        let &(spec, result, _) = ok
            .iter()
            .min_by(|a, b| {
                a.1.e2e_latency
                    .p95_s
                    .partial_cmp(&b.1.e2e_latency.p95_s)
                    .expect("latency is finite")
            })
            .expect("non-empty");
        JointChoice {
            spec,
            result: result.clone(),
            feasible: false,
            evaluated,
        }
    };
    (Some(journal_choice(choice)), failures)
}

/// The paper's candidate ladder: the four Fig. 9 aggregation presets.
pub fn aggregation_candidates() -> Vec<ConsolidationSpec> {
    eprons_topo::AggregationLevel::ALL
        .iter()
        .map(|&l| ConsolidationSpec::Level(l))
        .collect()
}

/// A scale-factor ladder for `K`-based consolidation (Fig. 11's sweep).
pub fn scale_factor_candidates(k_max: usize) -> Vec<ConsolidationSpec> {
    (1..=k_max)
        .map(|k| ConsolidationSpec::GreedyK(k as f64))
        .collect()
}

/// The §II feedback variant: "latency-aware traffic consolidation
/// dynamically adjusts the scale factor K to control the network latency".
/// Starting at `K = 1` (maximum consolidation, minimum DCN power), the
/// controller raises K — reserving more headroom and thereby activating
/// more switches — until the measured end-to-end tail meets the SLA, and
/// returns the first feasible configuration. Unlike
/// [`optimize_total_power`] it does not evaluate the whole ladder, so it
/// converges with fewer measurements at the cost of possibly stopping one
/// step early on non-monotone instances.
pub fn adaptive_k(cfg: &ClusterConfig, template: &ClusterRun, k_max: usize) -> Option<JointChoice> {
    let ctx = ScenarioContext::for_template(cfg, template);
    adaptive_k_in_context(&ctx, template.scheme, k_max)
}

/// [`adaptive_k`] against an already-built scenario. The sequential K
/// ladder shares the context too: each step re-runs only consolidation,
/// latency sampling, and the DVFS sweep.
pub fn adaptive_k_in_context(
    ctx: &ScenarioContext,
    scheme: crate::cluster::ServerScheme,
    k_max: usize,
) -> Option<JointChoice> {
    let cfg = ctx.cfg();
    let mut search_span = eprons_obs::Span::enter("optimizer.search");
    if eprons_obs::enabled() {
        search_span.note(format!("mode=adaptive-k k_max={k_max}"));
    }
    let mut evaluated = 0u64;
    let measure =
        |spec: ConsolidationSpec, evaluated: &mut u64| -> Option<(ClusterRunResult, bool)> {
            let mut cand_span = eprons_obs::Span::enter("optimizer.candidate");
            if eprons_obs::enabled() {
                cand_span.note(format!("spec={}", spec.label()));
            }
            match ctx.evaluate(scheme, spec) {
                Ok(r) => {
                    *evaluated += 1;
                    let feasible = r.is_feasible(cfg);
                    journal_candidate(spec, &r, feasible);
                    Some((r, feasible))
                }
                Err(e) => {
                    journal_failure(spec, &e); // K too large for the capacity
                    None
                }
            }
        };
    let mut best_fallback: Option<(f64, JointChoice)> = None;
    for k in 1..=k_max {
        let spec = ConsolidationSpec::GreedyK(k as f64);
        let Some((result, feasible)) = measure(spec, &mut evaluated) else {
            continue;
        };
        let choice = JointChoice {
            spec,
            result,
            feasible,
            evaluated,
        };
        if feasible {
            return Some(journal_choice(choice));
        }
        let tail = choice.result.e2e_latency.p95_s;
        if best_fallback.as_ref().is_none_or(|(t, _)| tail < *t) {
            best_fallback = Some((tail, choice));
        }
    }
    best_fallback.map(|(_, mut c)| {
        c.evaluated = evaluated;
        journal_choice(c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ServerScheme;

    fn template() -> ClusterRun {
        ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn, // overwritten per candidate
            server_utilization: 0.3,
            background_util: 0.1,
            duration_s: 4.0,
            warmup_s: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn picks_a_feasible_minimum_power_candidate() {
        let cfg = ClusterConfig::default();
        let choice = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        assert!(choice.feasible, "30 ms SLA at light load must be feasible");
        assert_eq!(choice.evaluated, 4, "the full ladder is always measured");
        // With light background and a 30 ms SLA, an aggressive aggregation
        // should win (fewer switches than Agg0's 20).
        assert!(
            choice.result.active_switches < 20,
            "expected consolidation to pay off, kept {}",
            choice.result.active_switches
        );
    }

    #[test]
    fn tight_sla_forces_more_switches_on() {
        let mut cfg = ClusterConfig::default();
        let loose = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        // Tighten the SLA drastically: the optimizer must react by
        // selecting a configuration with at least as many switches.
        cfg.sla = cfg.sla.with_total(9.0e-3);
        let tight = optimize_total_power(&cfg, &template(), &aggregation_candidates()).unwrap();
        assert!(
            tight.result.active_switches >= loose.result.active_switches,
            "tight SLA kept {} switches, loose kept {}",
            tight.result.active_switches,
            loose.result.active_switches
        );
    }

    #[test]
    fn candidate_builders() {
        assert_eq!(aggregation_candidates().len(), 4);
        let ks = scale_factor_candidates(5);
        assert_eq!(ks.len(), 5);
        assert!(matches!(ks[0], ConsolidationSpec::GreedyK(k) if k == 1.0));
        assert!(matches!(ks[4], ConsolidationSpec::GreedyK(k) if k == 5.0));
    }

    #[test]
    fn adaptive_k_finds_a_feasible_configuration() {
        let cfg = ClusterConfig::default();
        let choice = adaptive_k(&cfg, &template(), 5).unwrap();
        assert!(choice.feasible, "30 ms SLA at light load must be reachable");
        assert!(matches!(choice.spec, ConsolidationSpec::GreedyK(_)));
        // Feedback stops at the first feasible K — the most consolidated
        // network that meets the SLA.
        assert!(choice.result.active_switches <= 20);
    }

    #[test]
    fn adaptive_k_measures_fewer_candidates_than_the_full_ladder() {
        // The whole point of the feedback variant: on a feasible instance
        // it commits after the first feasible K instead of measuring the
        // entire ladder.
        let cfg = ClusterConfig::default();
        let ctx = ScenarioContext::for_template(&cfg, &template());
        let full = optimize_in_context(
            &ctx,
            ServerScheme::EpronsServer,
            &scale_factor_candidates(5),
        )
        .0
        .unwrap();
        let adaptive = adaptive_k_in_context(&ctx, ServerScheme::EpronsServer, 5).unwrap();
        assert!(adaptive.feasible);
        assert_eq!(full.evaluated, 5);
        assert!(
            adaptive.evaluated < full.evaluated,
            "adaptive measured {} of {} candidates",
            adaptive.evaluated,
            full.evaluated
        );
        // And the configuration it stops at is feasible under the same
        // scenario the exhaustive search measured.
        assert!(adaptive.result.is_feasible(&cfg));
    }

    #[test]
    fn adaptive_k_falls_back_to_least_bad_when_impossible() {
        let mut cfg = ClusterConfig::default();
        cfg.sla = cfg.sla.with_total(7.0e-3); // nothing meets 7 ms
        let choice = adaptive_k(&cfg, &template(), 3).unwrap();
        assert!(!choice.feasible);
        assert_eq!(choice.evaluated, 3, "infeasible ladders are fully measured");
    }

    #[test]
    fn empty_candidates_yield_none() {
        let cfg = ClusterConfig::default();
        let (choice, failures) = optimize_total_power_traced(&cfg, &template(), &[]);
        assert!(choice.is_none());
        assert!(failures.is_empty());
    }

    #[test]
    fn traced_surfaces_failure_reasons() {
        let cfg = ClusterConfig::default();
        // An absurd K makes every latency-sensitive reservation exceed link
        // capacity: that candidate must fail with a reported reason while
        // the sane candidate still wins.
        let cands = [
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(1.0e6),
        ];
        let (choice, failures) = optimize_total_power_traced(&cfg, &template(), &cands);
        let choice = choice.expect("K=1 evaluates");
        assert!(matches!(choice.spec, ConsolidationSpec::GreedyK(k) if k == 1.0));
        assert_eq!(choice.evaluated, 1, "only the sane candidate measured");
        assert_eq!(failures.len(), 1);
        let (spec, err) = &failures[0];
        assert!(matches!(spec, ConsolidationSpec::GreedyK(k) if *k == 1.0e6));
        assert!(err.to_string().contains("consolidation failed"));
    }
}
