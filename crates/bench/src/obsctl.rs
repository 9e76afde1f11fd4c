//! Journal analysis/audit engines behind the `obsctl` binary.
//!
//! A run journal (`--journal <path>` on any fig binary) is a JSON-lines
//! dump of typed [`eprons_obs::Event`]s. This module turns one (or two)
//! of those dumps into answers:
//!
//! * [`summarize`] — what happened: event counts, per-stage wall time
//!   (from the causal spans), per-epoch snapshots, day energy roll-ups.
//! * [`flame`] — collapsed-stack output (`a;b;leaf µs`) for
//!   `flamegraph.pl`/inferno, built from the span forest; parallel
//!   shards attach to their parent span by id, so fan-out work is
//!   attributed to the stage that spawned it.
//! * [`diff`] — order-insensitive comparison of two journals (kind
//!   counts, span-name counts, event multisets) with optional relative
//!   tolerances, for CI gating of determinism.
//! * [`audit`] — replay the journal and check the conservation
//!   invariants the simulator claims: power segments integrate to each
//!   epoch's snapshot energy, snapshots sum to the day roll-up, repair
//!   boot energy reconciles against `RepairOutcome` events, and every
//!   optimizer search commits at most one winner per epoch.
//!
//! Everything here is pure over `&[JournalEntry]` so the library is unit
//! testable without touching the process-global telemetry sinks.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use eprons_core::report::{
    journal_daycache_table, journal_epoch_table, journal_kind_table, journal_online_table,
    journal_pods_table, journal_vp_table, Table,
};
use eprons_obs::{Event, JournalEntry, Snapshot};

/// Reads and parses a JSON-lines journal dump.
///
/// # Errors
/// Reports I/O failures and the first malformed line.
pub fn load(path: &Path) -> Result<Vec<JournalEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    eprons_obs::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Span forest
// ---------------------------------------------------------------------------

/// One reconstructed span: a `SpanStart` joined with its `SpanEnd`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub thread: u64,
    pub name: String,
    /// Seconds since the process telemetry epoch.
    pub start_s: f64,
    /// `None` when the journal holds no matching `SpanEnd`.
    pub elapsed_s: Option<f64>,
    pub detail: String,
    /// Indices into [`SpanForest::spans`].
    pub children: Vec<usize>,
}

/// All spans of a journal with parent/child edges resolved.
#[derive(Debug, Default)]
pub struct SpanForest {
    pub spans: Vec<SpanRec>,
    /// Indices of spans with no (known) parent.
    pub roots: Vec<usize>,
    /// Structural problems found while joining starts and ends —
    /// non-empty means the journal is incomplete or corrupt.
    pub errors: Vec<String>,
    index: HashMap<u64, usize>,
}

impl SpanForest {
    /// Looks a span up by its process-wide id.
    fn by_id(&self, id: u64) -> Option<&SpanRec> {
        self.index.get(&id).map(|&i| &self.spans[i])
    }

    /// Wall seconds spent in `spans[i]` itself, excluding child spans
    /// (clamped at zero: parallel children can sum past the parent).
    pub fn self_s(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let Some(elapsed) = s.elapsed_s else {
            return 0.0;
        };
        let in_children: f64 = s
            .children
            .iter()
            .filter_map(|&c| self.spans[c].elapsed_s)
            .sum();
        (elapsed - in_children).max(0.0)
    }
}

/// Joins `SpanStart`/`SpanEnd` events into a [`SpanForest`].
pub fn span_forest(entries: &[JournalEntry]) -> SpanForest {
    let mut f = SpanForest::default();
    for e in entries {
        match &e.event {
            Event::SpanStart {
                id,
                parent,
                thread,
                name,
                start_s,
            } => {
                if f.index.contains_key(id) {
                    f.errors.push(format!("duplicate span id {id} ({name})"));
                    continue;
                }
                f.index.insert(*id, f.spans.len());
                f.spans.push(SpanRec {
                    id: *id,
                    parent: *parent,
                    thread: *thread,
                    name: name.clone(),
                    start_s: *start_s,
                    elapsed_s: None,
                    detail: String::new(),
                    children: Vec::new(),
                });
            }
            Event::SpanEnd {
                id,
                name,
                elapsed_s,
                detail,
            } => match f.index.get(id) {
                Some(&i) => {
                    if f.spans[i].elapsed_s.is_some() {
                        f.errors.push(format!("span {id} ({name}) ended twice"));
                    }
                    f.spans[i].elapsed_s = Some(*elapsed_s);
                    f.spans[i].detail = detail.clone();
                }
                None => f
                    .errors
                    .push(format!("SpanEnd {id} ({name}) without a SpanStart")),
            },
            _ => {}
        }
    }
    for i in 0..f.spans.len() {
        let parent = f.spans[i].parent;
        if parent == eprons_obs::NO_SPAN {
            f.roots.push(i);
        } else {
            match f.index.get(&parent) {
                Some(&p) => f.spans[p].children.push(i),
                None => {
                    let s = &f.spans[i];
                    f.errors.push(format!(
                        "span {} ({}) has unknown parent {parent}",
                        s.id, s.name
                    ));
                    f.roots.push(i);
                }
            }
        }
    }
    for s in &f.spans {
        if s.elapsed_s.is_none() {
            f.errors
                .push(format!("span {} ({}) never ended", s.id, s.name));
        }
    }
    f
}

// ---------------------------------------------------------------------------
// summarize
// ---------------------------------------------------------------------------

/// Renders the "what happened" tables for one journal: event kinds,
/// per-span wall-time attribution (total and self), per-epoch wall time,
/// the epoch snapshot timeline, and the day energy roll-ups.
pub fn summarize(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    out.push_str(&journal_kind_table(entries).to_string());

    let f = span_forest(entries);
    if !f.spans.is_empty() {
        // Per-stage attribution: count, total wall, self wall by name.
        let mut agg: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in f.spans.iter().enumerate() {
            let a = agg.entry(s.name.as_str()).or_insert((0, 0.0, 0.0));
            a.0 += 1;
            a.1 += s.elapsed_s.unwrap_or(0.0);
            a.2 += f.self_s(i);
        }
        let mut rows: Vec<(&str, u64, f64, f64)> =
            agg.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
        rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite").then(a.0.cmp(b.0)));
        let mut t = Table::new(
            "span wall-time by stage",
            &["span", "count", "total_s", "self_s"],
        );
        for (name, count, total, self_s) in rows {
            t.row(&[
                name.to_string(),
                count.to_string(),
                format!("{total:.4}"),
                format!("{self_s:.4}"),
            ]);
        }
        out.push('\n');
        out.push_str(&t.to_string());

        // Per-epoch wall time, recovered from the epoch spans' notes.
        let mut epochs: Vec<(u64, f64, String)> = f
            .spans
            .iter()
            .filter(|s| s.name == "epoch")
            .filter_map(|s| {
                let e = parse_detail_u64(&s.detail, "epoch")?;
                Some((e, s.elapsed_s.unwrap_or(0.0), s.detail.clone()))
            })
            .collect();
        if !epochs.is_empty() {
            epochs.sort_by_key(|&(e, _, _)| e);
            let mut t = Table::new("epoch wall-time", &["epoch", "wall_s", "detail"]);
            for (e, wall, detail) in epochs {
                t.row(&[e.to_string(), format!("{wall:.4}"), detail]);
            }
            out.push('\n');
            out.push_str(&t.to_string());
        }
    }

    let epoch_table = journal_epoch_table(entries);
    if !epoch_table.is_empty() {
        out.push('\n');
        out.push_str(&epoch_table.to_string());
    }
    let pods_table = journal_pods_table(entries);
    if !pods_table.is_empty() {
        out.push('\n');
        out.push_str(&pods_table.to_string());
    }
    let vp_table = journal_vp_table(entries);
    if !vp_table.is_empty() {
        out.push('\n');
        out.push_str(&vp_table.to_string());
    }
    let online_table = journal_online_table(entries);
    if !online_table.is_empty() {
        out.push('\n');
        out.push_str(&online_table.to_string());
    }
    let daycache_table = journal_daycache_table(entries);
    if !daycache_table.is_empty() {
        out.push('\n');
        out.push_str(&daycache_table.to_string());
    }
    for e in entries {
        if let Event::DayEnergy {
            strategy,
            epochs,
            energy_j,
            boot_energy_j,
        } = &e.event
        {
            out.push_str(&format!(
                "\nday energy ({strategy}): {energy_j:.1} J over {epochs} epochs \
                 (boot/repair share {boot_energy_j:.1} J)\n"
            ));
        }
    }
    if let Some(cov) = flame_leaf_coverage(entries) {
        out.push_str(&format!(
            "\nflame attribution: {:.1}% of day wall-time lands on leaf spans\n",
            cov * 100.0
        ));
    }
    out
}

/// Extracts `key=<u64>` from a span's detail string.
fn parse_detail_u64(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    })
}

// ---------------------------------------------------------------------------
// flame
// ---------------------------------------------------------------------------

/// Collapsed-stack flame output: one `root;child;leaf <µs>` line per
/// distinct span path, value = the path's *self* wall-time in integer
/// microseconds (zero-self paths are dropped). Feed to `flamegraph.pl`
/// or inferno. Cross-thread spans (epoch fan-out, server shards,
/// candidate fan-out) fold under their causal parent, not their thread.
pub fn flame(entries: &[JournalEntry]) -> String {
    let f = span_forest(entries);
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    // Path from each span to its root, following parent edges.
    for (i, s) in f.spans.iter().enumerate() {
        let self_us = (f.self_s(i) * 1.0e6).round() as u64;
        if self_us == 0 {
            continue;
        }
        let mut names = vec![s.name.as_str()];
        let mut cur = s.parent;
        while cur != eprons_obs::NO_SPAN {
            match f.by_id(cur) {
                Some(p) => {
                    names.push(p.name.as_str());
                    cur = p.parent;
                }
                None => break,
            }
        }
        names.reverse();
        *stacks.entry(names.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (stack, us) in stacks {
        out.push_str(&format!("{stack} {us}\n"));
    }
    out
}

/// Fraction of `day`-span wall-time covered by leaf spans (spans with no
/// children), measured as the union of leaf intervals clipped to the day
/// window — the acceptance metric for flame attribution. `None` when the
/// journal has no completed `day` span.
pub fn flame_leaf_coverage(entries: &[JournalEntry]) -> Option<f64> {
    let f = span_forest(entries);
    let mut day_total = 0.0;
    let mut covered = 0.0;
    for &di in f.roots.iter().filter(|&&i| f.spans[i].name == "day") {
        let day = &f.spans[di];
        let Some(day_elapsed) = day.elapsed_s else {
            continue;
        };
        let (d0, d1) = (day.start_s, day.start_s + day_elapsed);
        // Collect leaf intervals in this day's subtree.
        let mut ivs: Vec<(f64, f64)> = Vec::new();
        let mut stack = vec![di];
        while let Some(i) = stack.pop() {
            let s = &f.spans[i];
            stack.extend(&s.children);
            if i == di || !s.children.is_empty() {
                continue;
            }
            if let Some(e) = s.elapsed_s {
                let (a, b) = (s.start_s.max(d0), (s.start_s + e).min(d1));
                if b > a {
                    ivs.push((a, b));
                }
            }
        }
        ivs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite"));
        let mut union = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in ivs {
            match &mut cur {
                Some((_, ce)) if a <= *ce => *ce = ce.max(b),
                _ => {
                    if let Some((cs, ce)) = cur {
                        union += ce - cs;
                    }
                    cur = Some((a, b));
                }
            }
        }
        if let Some((cs, ce)) = cur {
            union += ce - cs;
        }
        day_total += d1 - d0;
        covered += union;
    }
    (day_total > 0.0).then(|| covered / day_total)
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// Tolerances for [`diff`].
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Relative tolerance on numeric event fields. `0.0` (default)
    /// demands bit-identical event multisets — the CI determinism gate.
    /// Positive values relax the comparison to per-epoch snapshots and
    /// day-energy roll-ups matched by key.
    pub rel_tol: f64,
    /// When set, per-span-name total wall times whose relative gap
    /// exceeds this are reported too (timings are nondeterministic, so
    /// they are ignored by default).
    pub time_tol: Option<f64>,
}

/// `|a − b| ≤ tol · max(|a|, |b|, 1)` — relative with an absolute floor
/// so exact zeros compare clean.
fn within(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Timing-independent event payload: the JSON line with the `seq` field
/// pinned to zero.
fn canonical_line(event: &Event) -> String {
    JournalEntry {
        seq: 0,
        event: event.clone(),
    }
    .to_json_line()
}

/// Span ids/timings vary run to run even on identical seeds; everything
/// else in a journal is deterministic and diffable as a multiset.
fn is_timing_event(event: &Event) -> bool {
    matches!(
        event,
        Event::SpanStart { .. } | Event::SpanEnd { .. } | Event::ClockSkew { .. }
    )
}

/// Order-insensitive comparison of two journals. Returns one line per
/// difference; an empty vector means the journals agree (under the given
/// tolerances). Span ids, span timings, and sequence numbers never
/// count as differences.
pub fn diff(a: &[JournalEntry], b: &[JournalEntry], opts: &DiffOptions) -> Vec<String> {
    let mut out = Vec::new();

    // 1. Event-kind counts.
    let kind_counts = |es: &[JournalEntry]| -> BTreeMap<&'static str, i64> {
        let mut m = BTreeMap::new();
        for e in es {
            *m.entry(e.event.kind()).or_insert(0) += 1;
        }
        m
    };
    let (ka, kb) = (kind_counts(a), kind_counts(b));
    for kind in ka
        .keys()
        .copied()
        .chain(kb.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (na, nb) = (
            ka.get(kind).copied().unwrap_or(0),
            kb.get(kind).copied().unwrap_or(0),
        );
        if na != nb {
            out.push(format!("event count {kind}: {na} vs {nb}"));
        }
    }

    // 2. Span-name counts (structure without ids/timings).
    let name_counts = |es: &[JournalEntry]| -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for e in es {
            if let Event::SpanStart { name, .. } = &e.event {
                *m.entry(name.clone()).or_insert(0) += 1;
            }
        }
        m
    };
    let (sa, sb) = (name_counts(a), name_counts(b));
    for name in sa
        .keys()
        .chain(sb.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (na, nb) = (
            sa.get(name).copied().unwrap_or(0),
            sb.get(name).copied().unwrap_or(0),
        );
        if na != nb {
            out.push(format!("span count {name}: {na} vs {nb}"));
        }
    }

    // 3. Payloads.
    if opts.rel_tol == 0.0 {
        // Exact multiset of every non-timing event.
        let mut bag: BTreeMap<String, i64> = BTreeMap::new();
        for e in a.iter().filter(|e| !is_timing_event(&e.event)) {
            *bag.entry(canonical_line(&e.event)).or_insert(0) += 1;
        }
        for e in b.iter().filter(|e| !is_timing_event(&e.event)) {
            *bag.entry(canonical_line(&e.event)).or_insert(0) -= 1;
        }
        let mut mismatched: Vec<String> = bag
            .into_iter()
            .filter(|&(_, n)| n != 0)
            .map(|(line, n)| {
                let side = if n > 0 {
                    "only in first"
                } else {
                    "only in second"
                };
                format!("{side} (×{}): {line}", n.abs())
            })
            .collect();
        let extra = mismatched.len().saturating_sub(8);
        mismatched.truncate(8);
        out.extend(mismatched);
        if extra > 0 {
            out.push(format!("... and {extra} more event payload difference(s)"));
        }
    } else {
        // Tolerant mode: snapshots matched by (strategy, epoch,
        // occurrence), day energies by (strategy, occurrence).
        let snaps = |es: &[JournalEntry]| -> BTreeMap<(String, u64, usize), Snapshot> {
            let mut seen: HashMap<(String, u64), usize> = HashMap::new();
            let mut m = BTreeMap::new();
            for e in es {
                if let Event::EpochSnapshot(s) = &e.event {
                    let k = (s.strategy.clone(), s.epoch);
                    let occ = seen.entry(k.clone()).or_insert(0);
                    m.insert((k.0, k.1, *occ), s.clone());
                    *occ += 1;
                }
            }
            m
        };
        let (ma, mb) = (snaps(a), snaps(b));
        for (key, s1) in &ma {
            let Some(s2) = mb.get(key) else {
                out.push(format!(
                    "snapshot {}/epoch {} missing from second journal",
                    key.0, key.1
                ));
                continue;
            };
            let fields = [
                ("server_w", s1.server_w, s2.server_w),
                ("network_w", s1.network_w, s2.network_w),
                ("e2e_p95_us", s1.e2e_p95_us, s2.e2e_p95_us),
                ("boot_energy_j", s1.boot_energy_j, s2.boot_energy_j),
            ];
            for (name, v1, v2) in fields {
                if !within(v1, v2, opts.rel_tol) {
                    out.push(format!(
                        "snapshot {}/epoch {}: {name} {v1} vs {v2} (tol {})",
                        key.0, key.1, opts.rel_tol
                    ));
                }
            }
            if s1.choice != s2.choice || s1.feasible != s2.feasible {
                out.push(format!(
                    "snapshot {}/epoch {}: choice/feasible {}:{} vs {}:{}",
                    key.0, key.1, s1.choice, s1.feasible, s2.choice, s2.feasible
                ));
            }
        }
        for key in mb.keys().filter(|k| !ma.contains_key(*k)) {
            out.push(format!(
                "snapshot {}/epoch {} missing from first journal",
                key.0, key.1
            ));
        }
        let days = |es: &[JournalEntry]| -> Vec<(String, f64, f64)> {
            es.iter()
                .filter_map(|e| match &e.event {
                    Event::DayEnergy {
                        strategy,
                        energy_j,
                        boot_energy_j,
                        ..
                    } => Some((strategy.clone(), *energy_j, *boot_energy_j)),
                    _ => None,
                })
                .collect()
        };
        for (i, ((s1, e1, b1), (s2, e2, b2))) in days(a).iter().zip(days(b).iter()).enumerate() {
            if s1 != s2 || !within(*e1, *e2, opts.rel_tol) || !within(*b1, *b2, opts.rel_tol) {
                out.push(format!(
                    "day energy #{i}: {s1} {e1:.3}/{b1:.3} J vs {s2} {e2:.3}/{b2:.3} J"
                ));
            }
        }
    }

    // 4. Optional span-timing comparison.
    if let Some(tol) = opts.time_tol {
        let totals = |es: &[JournalEntry]| -> BTreeMap<String, f64> {
            let mut m = BTreeMap::new();
            for e in es {
                if let Event::SpanEnd {
                    name, elapsed_s, ..
                } = &e.event
                {
                    *m.entry(name.clone()).or_insert(0.0) += elapsed_s;
                }
            }
            m
        };
        let (ta, tb) = (totals(a), totals(b));
        for name in ta
            .keys()
            .chain(tb.keys())
            .collect::<std::collections::BTreeSet<_>>()
        {
            let (v1, v2) = (
                ta.get(name).copied().unwrap_or(0.0),
                tb.get(name).copied().unwrap_or(0.0),
            );
            // Relative gate without the absolute floor (these are small
            // wall-times), plus a noise floor so µs-scale spans pass.
            let gap = (v1 - v2).abs();
            if v1.max(v2) > 1.0e-4 && gap > tol * v1.max(v2) {
                out.push(format!(
                    "span time {name}: {v1:.4}s vs {v2:.4}s (tol {tol})"
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

/// What [`audit`] found.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Broken invariants; empty means the journal is conservation-clean.
    pub violations: Vec<String>,
    /// Checks that were skipped and why (e.g. interleaved parallel
    /// epochs make the winner-per-window check unreadable).
    pub notes: Vec<String>,
    /// Day sweeps audited.
    pub days: usize,
    /// Epoch snapshots reconciled.
    pub epochs: usize,
    /// Power segments integrated.
    pub segments: usize,
    /// Pod-decomposed consolidation passes checked for per-pod span
    /// coverage and round-0 conservation.
    pub pod_passes: usize,
    /// Megabit-minutes of deferred demand whose conservation was checked.
    pub deferred_mbps_min: f64,
}

impl AuditReport {
    /// `true` iff no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "audited {} day sweep(s), {} epoch(s), {} power segment(s)\n",
            self.days, self.epochs, self.segments
        );
        if self.pod_passes > 0 {
            out.push_str(&format!(
                "audited {} pod-decomposed consolidation pass(es)\n",
                self.pod_passes
            ));
        }
        if self.deferred_mbps_min > 0.0 {
            out.push_str(&format!(
                "audited online controller: {:.1} mbps-min deferred\n",
                self.deferred_mbps_min
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.violations.is_empty() {
            out.push_str("OK: all conservation invariants hold\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Replays a journal and checks its conservation invariants at relative
/// tolerance `rel_tol` (CI uses `1e-9`; segment sums agree with the
/// controller's accumulators to machine precision by construction):
///
/// 1. **Span integrity** — every `SpanEnd` has a `SpanStart`, parents
///    resolve, nothing dangles.
/// 2. **Per-epoch power** — each epoch's `PowerSegment`s tile its window
///    exactly and integrate to the snapshot's average power.
/// 3. **Repair energy** — each epoch's snapshot `boot_energy_j` equals
///    the sum of its `RepairOutcome` charges (events binned half-open
///    into the epoch windows, matching the controller).
/// 4. **Day energy** — snapshot energies (+ boot) sum to the `DayEnergy`
///    roll-up, and its boot share matches.
/// 5. **Winner uniqueness** — per serial epoch window, at least one
///    `OptimizerChoice`, at most one per `optimizer.search`, and the
///    committed snapshot carries the last choice's label.
/// 6. **Pod coverage** — every pod-decomposed pass that did not fall
///    back covers each pod exactly once in round 0 (one
///    `pod.consolidate` span per pod, `pod=P of=N` notes span `0..N`),
///    `solved = pods` on each `PodConsolidation` event, and the
///    span-level round-0/resolve tallies reconcile with the event-level
///    `net.pods.*` tallies.
/// 7. **Deferral conservation** — per day, every megabit-minute a
///    `DeferralEnqueued` event adds to the online controller's queue is
///    eventually accounted by a `DeferralDrained` event as drained or
///    dropped; the books must close exactly because the controller
///    flushes leftovers as dropped at the day boundary.
pub fn audit(entries: &[JournalEntry], rel_tol: f64) -> AuditReport {
    let mut r = AuditReport::default();

    let forest = span_forest(entries);
    r.violations.extend(forest.errors.iter().cloned());
    audit_pods(entries, &forest, &mut r);

    // Split into day sweeps at DayStart boundaries (simulate_day calls
    // are serial; everything a day records lands before the next
    // DayStart).
    let starts: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.event, Event::DayStart { .. }))
        .map(|(i, _)| i)
        .collect();
    for (d, &lo) in starts.iter().enumerate() {
        let hi = starts.get(d + 1).copied().unwrap_or(entries.len());
        let group = &entries[lo..hi];
        let Event::DayStart { strategy, epochs } = &group[0].event else {
            unreachable!("boundaries are DayStart positions");
        };
        let tag = format!("day {d} ({strategy})");
        r.days += 1;
        audit_day(group, &tag, *epochs, rel_tol, &mut r);
    }
    r
}

/// Pod-decomposition coverage and conservation (check 6). Runs over the
/// whole journal, not per day: perfbench journals consolidate without a
/// `DayStart`, and the span↔event pairing is per pass either way.
fn audit_pods(entries: &[JournalEntry], f: &SpanForest, r: &mut AuditReport) {
    // Event side: round-0 conservation and clean/fallback tallies.
    let (mut ev_pass, mut ev_fallback) = (0usize, 0usize);
    let (mut ev_resolves, mut ev_solved) = (0u64, 0u64);
    for e in entries {
        if let Event::PodConsolidation {
            pods,
            solved,
            resolves,
            fallback,
            ..
        } = &e.event
        {
            if *fallback {
                ev_fallback += 1;
                continue;
            }
            if solved != pods {
                r.violations.push(format!(
                    "pod pass #{ev_pass}: round 0 solved {solved} ≠ {pods} pod(s)"
                ));
            }
            ev_pass += 1;
            ev_resolves += resolves;
            ev_solved += solved;
        }
    }

    // Span side: each clean pass's round-0 children cover 0..pods once.
    let (mut sp_pass, mut sp_fallback) = (0usize, 0usize);
    let (mut sp_resolves, mut sp_solved) = (0u64, 0u64);
    let passes = f
        .spans
        .iter()
        .filter(|s| s.name == "net.consolidate" && s.detail.contains("algo=pod_decomposed"));
    for s in passes {
        if s.detail.contains("fallback=") {
            sp_fallback += 1;
            continue;
        }
        sp_pass += 1;
        let Some(n) = parse_detail_u64(&s.detail, "pods") else {
            r.violations.push(format!(
                "pod pass span {}: no pods= note in '{}'",
                s.id, s.detail
            ));
            continue;
        };
        let mut round0 = vec![0u64; n as usize];
        for &c in &s.children {
            let c = &f.spans[c];
            if c.name != "pod.consolidate" {
                continue;
            }
            let Some(p) = parse_detail_u64(&c.detail, "pod") else {
                r.violations
                    .push(format!("pod.consolidate span {}: no pod= note", c.id));
                continue;
            };
            if parse_detail_u64(&c.detail, "of") != Some(n) {
                r.violations.push(format!(
                    "pod.consolidate span {}: of≠{n} in '{}'",
                    c.id, c.detail
                ));
            }
            if p >= n {
                r.violations.push(format!(
                    "pod.consolidate span {}: pod={p} out of range 0..{n}",
                    c.id
                ));
                continue;
            }
            if c.detail.contains("resolve=true") {
                sp_resolves += 1;
            } else {
                sp_solved += 1;
                round0[p as usize] += 1;
            }
        }
        for (p, &count) in round0.iter().enumerate() {
            if count != 1 {
                r.violations.push(format!(
                    "pod pass span {}: pod {p} has {count} round-0 span(s), expected 1",
                    s.id
                ));
            }
        }
    }

    if ev_pass + ev_fallback + sp_pass + sp_fallback == 0 {
        return; // journal never took the pod-decomposed path
    }
    r.pod_passes = ev_pass + ev_fallback;
    if (sp_pass, sp_fallback) != (ev_pass, ev_fallback) {
        r.violations.push(format!(
            "pod passes: {sp_pass} clean + {sp_fallback} fallback span(s) vs \
             {ev_pass} + {ev_fallback} PodConsolidation event(s)"
        ));
        return; // aggregate reconciliation is meaningless on a mismatch
    }
    if sp_solved != ev_solved {
        r.violations.push(format!(
            "pod round-0 solves: {sp_solved} span(s) vs {ev_solved} on events"
        ));
    }
    if sp_resolves != ev_resolves {
        r.violations.push(format!(
            "pod resolves: {sp_resolves} resolve=true span(s) vs {ev_resolves} on events"
        ));
    }
}

fn audit_day(group: &[JournalEntry], tag: &str, epochs: u64, rel_tol: f64, r: &mut AuditReport) {
    // --- Snapshots: exactly one per epoch index. ---
    let mut snaps: BTreeMap<u64, (usize, Snapshot)> = BTreeMap::new();
    for (pos, e) in group.iter().enumerate() {
        if let Event::EpochSnapshot(s) = &e.event {
            if snaps.insert(s.epoch, (pos, s.clone())).is_some() {
                r.violations
                    .push(format!("{tag}: epoch {} committed twice", s.epoch));
            }
        }
    }
    if snaps.len() as u64 != epochs {
        r.violations.push(format!(
            "{tag}: {} epoch snapshot(s) for {epochs} announced epoch(s)",
            snaps.len()
        ));
    }
    r.epochs += snaps.len();

    // --- Power segments tile each epoch window and integrate to the
    // snapshot's average power. ---
    let mut segs: BTreeMap<u64, Vec<(f64, f64, f64)>> = BTreeMap::new();
    for e in group {
        if let Event::PowerSegment {
            epoch,
            from_min,
            to_min,
            server_w,
            network_w,
        } = &e.event
        {
            segs.entry(*epoch)
                .or_default()
                .push((*from_min, *to_min, server_w + network_w));
        }
    }
    let mut windows: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (&epoch, segs) in segs.iter_mut() {
        segs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite minutes"));
        r.segments += segs.len();
        let (w0, w1) = (segs[0].0, segs[segs.len() - 1].1);
        for w in segs.windows(2) {
            if (w[0].1 - w[1].0).abs() > 1.0e-6 {
                r.violations.push(format!(
                    "{tag}: epoch {epoch} power segments leave a gap at minute {:.4}",
                    w[0].1
                ));
            }
        }
        windows.insert(epoch, (w0, w1));
        let Some((_, snap)) = snaps.get(&epoch) else {
            r.violations.push(format!(
                "{tag}: power segments for epoch {epoch} but no snapshot"
            ));
            continue;
        };
        let seg_energy_j: f64 = segs.iter().map(|&(a, b, w)| w * (b - a) * 60.0).sum();
        let snap_energy_j = snap.total_w() * (w1 - w0) * 60.0;
        if !within(seg_energy_j, snap_energy_j, rel_tol) {
            r.violations.push(format!(
                "{tag}: epoch {epoch} segment energy {seg_energy_j:.6} J ≠ \
                 snapshot energy {snap_energy_j:.6} J"
            ));
        }
    }
    for &epoch in snaps.keys() {
        if !segs.contains_key(&epoch) {
            r.violations
                .push(format!("{tag}: epoch {epoch} has no power segments"));
        }
    }

    // --- Repair boot energy reconciles per epoch and for the day. ---
    let outcomes: Vec<(f64, f64)> = group
        .iter()
        .filter_map(|e| match &e.event {
            Event::RepairOutcome {
                minute,
                boot_energy_j,
                ..
            } => Some((*minute, *boot_energy_j)),
            _ => None,
        })
        .collect();
    for (&epoch, &(w0, w1)) in &windows {
        let Some((_, snap)) = snaps.get(&epoch) else {
            continue;
        };
        // Half-open [w0, w1): the same binning `events_in` used when the
        // controller charged the epoch.
        let repaired_j: f64 = outcomes
            .iter()
            .filter(|&&(m, _)| m >= w0 && m < w1)
            .map(|&(_, j)| j)
            .sum();
        if !within(repaired_j, snap.boot_energy_j, rel_tol) {
            r.violations.push(format!(
                "{tag}: epoch {epoch} RepairOutcome boot {repaired_j:.4} J ≠ \
                 snapshot boot {:.4} J",
                snap.boot_energy_j
            ));
        }
    }
    let outcome_boot_j: f64 = outcomes.iter().map(|&(_, j)| j).sum();
    let snap_boot_j: f64 = snaps.values().map(|(_, s)| s.boot_energy_j).sum();
    if !within(outcome_boot_j, snap_boot_j, rel_tol) {
        r.violations.push(format!(
            "{tag}: total RepairOutcome boot {outcome_boot_j:.4} J ≠ \
             snapshot boot total {snap_boot_j:.4} J"
        ));
    }

    // --- Day energy roll-up. ---
    let day_energy = group.iter().find_map(|e| match &e.event {
        Event::DayEnergy {
            epochs,
            energy_j,
            boot_energy_j,
            ..
        } => Some((*epochs, *energy_j, *boot_energy_j)),
        _ => None,
    });
    match day_energy {
        Some((de_epochs, de_energy_j, de_boot_j)) => {
            if de_epochs != snaps.len() as u64 {
                r.violations.push(format!(
                    "{tag}: DayEnergy covers {de_epochs} epochs, journal holds {}",
                    snaps.len()
                ));
            }
            let sum_j: f64 = snaps
                .values()
                .map(|(_, s)| {
                    let (w0, w1) = windows
                        .get(&s.epoch)
                        .copied()
                        .unwrap_or((s.minute, s.minute));
                    s.total_w() * (w1 - w0) * 60.0 + s.boot_energy_j
                })
                .sum();
            if !within(sum_j, de_energy_j, rel_tol) {
                r.violations.push(format!(
                    "{tag}: snapshots integrate to {sum_j:.6} J, \
                     DayEnergy claims {de_energy_j:.6} J"
                ));
            }
            if !within(snap_boot_j, de_boot_j, rel_tol) {
                r.violations.push(format!(
                    "{tag}: snapshot boot total {snap_boot_j:.4} J ≠ \
                     DayEnergy boot {de_boot_j:.4} J"
                ));
            }
        }
        None => r.violations.push(format!("{tag}: no DayEnergy roll-up")),
    }

    // --- Deferral conservation (check 7): the day's queue ledger must
    // close — enqueued == drained + dropped, exactly, because the
    // controller flushes leftovers as dropped at the day boundary. ---
    let (mut def_in, mut def_out, mut def_events) = (0.0f64, 0.0f64, 0usize);
    for e in group {
        match &e.event {
            Event::DeferralEnqueued { mbps_min, .. } => {
                def_in += mbps_min;
                def_events += 1;
            }
            Event::DeferralDrained {
                drained_mbps_min,
                dropped_mbps_min,
                ..
            } => {
                def_out += drained_mbps_min + dropped_mbps_min;
                def_events += 1;
            }
            _ => {}
        }
    }
    if def_events > 0 {
        r.deferred_mbps_min += def_in;
        if !within(def_in, def_out, rel_tol) {
            r.violations.push(format!(
                "{tag}: deferral books don't close: {def_in:.6} mbps-min \
                 enqueued ≠ {def_out:.6} drained+dropped"
            ));
        }
    }

    // --- Winner uniqueness per serial epoch window. ---
    let epoch_starts: BTreeMap<u64, usize> = group
        .iter()
        .enumerate()
        .filter_map(|(pos, e)| match &e.event {
            Event::EpochStart { epoch, .. } => Some((*epoch, pos)),
            _ => None,
        })
        .collect();
    let serial = snaps.iter().all(|(&epoch, &(snap_pos, _))| {
        let Some(&start_pos) = epoch_starts.get(&epoch) else {
            return false;
        };
        // A foreign EpochStart inside this epoch's window means the day
        // fanned epochs out in parallel and windows interleave.
        epoch_starts
            .iter()
            .all(|(&o, &p)| o == epoch || p < start_pos || p > snap_pos)
    });
    if !serial {
        r.notes.push(format!(
            "{tag}: epochs interleaved (parallel day); winner-per-window check skipped"
        ));
        return;
    }
    for (&epoch, &(snap_pos, ref snap)) in &snaps {
        let Some(&start_pos) = epoch_starts.get(&epoch) else {
            r.violations
                .push(format!("{tag}: epoch {epoch} has no EpochStart"));
            continue;
        };
        let window = &group[start_pos..=snap_pos];
        let searches = window
            .iter()
            .filter(
                |e| matches!(&e.event, Event::SpanStart { name, .. } if name == "optimizer.search"),
            )
            .count();
        let choices: Vec<&str> = window
            .iter()
            .filter_map(|e| match &e.event {
                Event::OptimizerChoice { k, .. } => Some(k.as_str()),
                _ => None,
            })
            .collect();
        if searches == 0 {
            continue; // non-optimizing strategy: nothing to commit
        }
        if choices.is_empty() {
            r.violations.push(format!(
                "{tag}: epoch {epoch} ran {searches} search(es) but committed no winner"
            ));
            continue;
        }
        if choices.len() > searches {
            r.violations.push(format!(
                "{tag}: epoch {epoch} committed {} winner(s) from {searches} search(es)",
                choices.len()
            ));
        }
        let last = choices[choices.len() - 1];
        if last != snap.choice {
            r.violations.push(format!(
                "{tag}: epoch {epoch} snapshot carries '{}' but the last \
                 committed winner was '{last}'",
                snap.choice
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eprons_obs::Journal;

    /// A hand-built, conservation-clean two-epoch day journal.
    fn clean_day() -> Vec<JournalEntry> {
        let j = Journal::with_capacity(256);
        j.record(Event::DayStart {
            strategy: "eprons".into(),
            epochs: 2,
        });
        // Epoch 0: clean, one segment.
        j.record(Event::EpochStart {
            epoch: 0,
            minute: 5.0,
            search_load: 0.5,
            background_util: 0.2,
        });
        j.record(Event::SpanStart {
            id: 1,
            parent: 0,
            thread: 0,
            name: "optimizer.search".into(),
            start_s: 0.0,
        });
        j.record(Event::OptimizerChoice {
            k: "agg2".into(),
            total_w: 150.0,
            p95_us: 20_000.0,
            feasible: true,
            evaluated: 3,
        });
        j.record(Event::SpanEnd {
            id: 1,
            name: "optimizer.search".into(),
            elapsed_s: 0.01,
            detail: String::new(),
        });
        j.record(Event::PowerSegment {
            epoch: 0,
            from_min: 0.0,
            to_min: 10.0,
            server_w: 100.0,
            network_w: 50.0,
        });
        j.record(Event::EpochSnapshot(Snapshot {
            epoch: 0,
            minute: 5.0,
            strategy: "eprons".into(),
            choice: "agg2".into(),
            server_w: 100.0,
            network_w: 50.0,
            active_switches: 12,
            e2e_p95_us: 20_000.0,
            feasible: true,
            boot_energy_j: 0.0,
        }));
        // Epoch 1: a mid-epoch repair splits the window at minute 12.
        j.record(Event::EpochStart {
            epoch: 1,
            minute: 15.0,
            search_load: 0.6,
            background_util: 0.2,
        });
        j.record(Event::SpanStart {
            id: 2,
            parent: 0,
            thread: 0,
            name: "optimizer.search".into(),
            start_s: 0.02,
        });
        j.record(Event::OptimizerChoice {
            k: "agg1".into(),
            total_w: 166.0,
            p95_us: 21_000.0,
            feasible: true,
            evaluated: 3,
        });
        j.record(Event::SpanEnd {
            id: 2,
            name: "optimizer.search".into(),
            elapsed_s: 0.01,
            detail: String::new(),
        });
        j.record(Event::RepairOutcome {
            switch: 17,
            minute: 12.0,
            outcome: "repaired".into(),
            rerouted: 2,
            woken: 1,
            boot_energy_j: 100.0,
        });
        j.record(Event::PowerSegment {
            epoch: 1,
            from_min: 10.0,
            to_min: 12.0,
            server_w: 100.0,
            network_w: 50.0,
        });
        j.record(Event::PowerSegment {
            epoch: 1,
            from_min: 12.0,
            to_min: 20.0,
            server_w: 110.0,
            network_w: 60.0,
        });
        // Time-weighted: server (100·2 + 110·8)/10 = 108, net 58.
        j.record(Event::EpochSnapshot(Snapshot {
            epoch: 1,
            minute: 15.0,
            strategy: "eprons".into(),
            choice: "agg1".into(),
            server_w: 108.0,
            network_w: 58.0,
            active_switches: 13,
            e2e_p95_us: 21_000.0,
            feasible: true,
            boot_energy_j: 100.0,
        }));
        // 150·600 + 166·600 + 100 boot = 189_700 J.
        j.record(Event::DayEnergy {
            strategy: "eprons".into(),
            epochs: 2,
            energy_j: 150.0 * 600.0 + 166.0 * 600.0 + 100.0,
            boot_energy_j: 100.0,
        });
        j.snapshot()
    }

    #[test]
    fn audit_passes_on_conserving_journal() {
        let r = audit(&clean_day(), 1.0e-9);
        assert!(r.is_clean(), "unexpected violations: {:?}", r.violations);
        assert_eq!((r.days, r.epochs, r.segments), (1, 2, 3));
        assert!(r.render().contains("OK"));
    }

    #[test]
    fn audit_flags_tampered_power_and_boot() {
        let mut entries = clean_day();
        for e in &mut entries {
            if let Event::EpochSnapshot(s) = &mut e.event {
                if s.epoch == 1 {
                    s.server_w += 1.0; // breaks segment integration + day sum
                    s.boot_energy_j = 0.0; // breaks repair reconciliation
                }
            }
        }
        let r = audit(&entries, 1.0e-9);
        assert!(r.violations.iter().any(|v| v.contains("segment energy")));
        assert!(r
            .violations
            .iter()
            .any(|v| v.contains("RepairOutcome boot")));
        assert!(r.violations.iter().any(|v| v.contains("DayEnergy")));
    }

    #[test]
    fn audit_flags_missing_winner_and_double_commit() {
        let mut entries = clean_day();
        // Remove epoch 0's OptimizerChoice: a search with no winner.
        entries.retain(|e| !matches!(&e.event, Event::OptimizerChoice { k, .. } if k == "agg2"));
        let r = audit(&entries, 1.0e-9);
        assert!(
            r.violations.iter().any(|v| v.contains("no winner")),
            "got: {:?}",
            r.violations
        );
    }

    #[test]
    fn audit_flags_a_snapshot_that_is_not_the_committed_winner() {
        // Epoch 1's optimizer committed "agg1"; a snapshot carrying any
        // other configuration is a winner/snapshot divergence.
        let mut entries = clean_day();
        for e in &mut entries {
            if let Event::EpochSnapshot(s) = &mut e.event {
                if s.epoch == 1 {
                    s.choice = "agg8".into();
                }
            }
        }
        let r = audit(&entries, 1.0e-9);
        assert!(
            r.violations.iter().any(|v| v.contains("committed winner")),
            "got: {:?}",
            r.violations
        );
    }

    #[test]
    fn audit_closes_and_flags_the_deferral_books() {
        // Balanced ledger: 500 enqueued, 300 drained + 200 dropped.
        let mut entries = clean_day();
        entries.push(JournalEntry {
            seq: 901,
            event: Event::DeferralEnqueued {
                epoch: 0,
                mbps_min: 500.0,
                queue_mbps_min: 500.0,
                slack_epochs: 12,
            },
        });
        entries.push(JournalEntry {
            seq: 902,
            event: Event::DeferralDrained {
                epoch: 1,
                drained_mbps_min: 300.0,
                dropped_mbps_min: 200.0,
                queue_mbps_min: 0.0,
            },
        });
        let r = audit(&entries, 1.0e-9);
        assert!(r.is_clean(), "unexpected violations: {:?}", r.violations);
        assert_eq!(r.deferred_mbps_min, 500.0);

        // Losing the drain event leaves 500 mbps-min unaccounted.
        entries.pop();
        let r = audit(&entries, 1.0e-9);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("deferral books don't close")),
            "got: {:?}",
            r.violations
        );
    }

    #[test]
    fn diff_empty_on_identical_and_catches_payload_changes() {
        let a = clean_day();
        let b = clean_day();
        assert!(diff(&a, &b, &DiffOptions::default()).is_empty());

        let mut c = clean_day();
        for e in &mut c {
            if let Event::EpochSnapshot(s) = &mut e.event {
                if s.epoch == 0 {
                    s.server_w += 1.0e-7;
                }
            }
        }
        let exact = diff(&a, &c, &DiffOptions::default());
        assert!(!exact.is_empty(), "bit-level change must show at tol 0");
        let loose = diff(
            &a,
            &c,
            &DiffOptions {
                rel_tol: 1.0e-6,
                time_tol: None,
            },
        );
        assert!(loose.is_empty(), "tolerance should forgive 1e-7: {loose:?}");
    }

    #[test]
    fn diff_ignores_span_ids_and_timings() {
        let a = clean_day();
        let mut b = clean_day();
        for e in &mut b {
            match &mut e.event {
                Event::SpanStart { id, start_s, .. } => {
                    *id += 1000;
                    *start_s += 5.0;
                }
                Event::SpanEnd { id, elapsed_s, .. } => {
                    *id += 1000;
                    *elapsed_s *= 3.0;
                }
                _ => {}
            }
        }
        assert!(diff(&a, &b, &DiffOptions::default()).is_empty());
        // ... unless timings are explicitly gated.
        let timed = diff(
            &a,
            &b,
            &DiffOptions {
                rel_tol: 0.0,
                time_tol: Some(0.5),
            },
        );
        assert!(timed.iter().any(|d| d.contains("span time")), "{timed:?}");
    }

    /// day(10 s) → epoch(10 s) → scenario.build leaf (9.8 s).
    fn spans_only() -> Vec<JournalEntry> {
        let j = Journal::with_capacity(64);
        let start = |id, parent, name: &str, at| Event::SpanStart {
            id,
            parent,
            thread: 0,
            name: name.into(),
            start_s: at,
        };
        let end = |id, name: &str, elapsed| Event::SpanEnd {
            id,
            name: name.into(),
            elapsed_s: elapsed,
            detail: String::new(),
        };
        j.record(start(101, 0, "day", 0.0));
        j.record(start(102, 101, "epoch", 0.0));
        j.record(start(103, 102, "scenario.build", 0.1));
        j.record(end(103, "scenario.build", 9.8));
        j.record(end(102, "epoch", 10.0));
        j.record(end(101, "day", 10.0));
        j.snapshot()
    }

    #[test]
    fn flame_collapses_self_time_per_stack() {
        let out = flame(&spans_only());
        assert!(out.contains("day;epoch;scenario.build 9800000\n"), "{out}");
        // epoch self = 10 − 9.8 = 0.2 s.
        assert!(out.contains("day;epoch 200000\n"), "{out}");
        // day self = 0 → no line.
        assert!(!out.lines().any(|l| l.starts_with("day ")), "{out}");
    }

    #[test]
    fn leaf_coverage_is_union_over_day_window() {
        let cov = flame_leaf_coverage(&spans_only()).expect("day span present");
        assert!((cov - 0.98).abs() < 1.0e-9, "got {cov}");
    }

    #[test]
    fn forest_reports_structural_damage() {
        let j = Journal::with_capacity(16);
        j.record(Event::SpanEnd {
            id: 9,
            name: "ghost".into(),
            elapsed_s: 1.0,
            detail: String::new(),
        });
        j.record(Event::SpanStart {
            id: 10,
            parent: 999,
            thread: 0,
            name: "orphan".into(),
            start_s: 0.0,
        });
        let f = span_forest(&j.snapshot());
        assert!(f.errors.iter().any(|e| e.contains("without a SpanStart")));
        assert!(f.errors.iter().any(|e| e.contains("unknown parent")));
        assert!(f.errors.iter().any(|e| e.contains("never ended")));
        // Structural damage surfaces as audit violations too.
        assert!(!audit(&j.snapshot(), 1.0e-9).is_clean());
    }

    #[test]
    fn summarize_renders_all_sections() {
        let mut entries = clean_day();
        entries.extend(spans_only());
        let s = summarize(&entries);
        assert!(s.contains("journal events"), "{s}");
        assert!(s.contains("span wall-time by stage"), "{s}");
        assert!(s.contains("epoch snapshots"), "{s}");
        assert!(s.contains("day energy (eprons)"), "{s}");
        assert!(s.contains("flame attribution"), "{s}");
        // No PodConsolidation events → no pods table.
        assert!(!s.contains("net.pods"), "{s}");
    }

    /// One clean pod-decomposed pass over a 2-pod tree: both pods solved
    /// in round 0, then pod 0 re-solved once under push-back.
    fn pod_pass() -> Vec<JournalEntry> {
        let j = Journal::with_capacity(64);
        let start = |id, parent, name: &str| Event::SpanStart {
            id,
            parent,
            thread: 0,
            name: name.into(),
            start_s: 0.0,
        };
        let end = |id, name: &str, detail: &str| Event::SpanEnd {
            id,
            name: name.into(),
            elapsed_s: 0.01,
            detail: detail.into(),
        };
        j.record(start(301, 0, "net.consolidate"));
        j.record(start(302, 301, "pod.consolidate"));
        j.record(end(302, "pod.consolidate", "pod=0 of=2"));
        j.record(start(303, 301, "pod.consolidate"));
        j.record(end(303, "pod.consolidate", "pod=1 of=2"));
        j.record(start(304, 301, "pod.consolidate"));
        j.record(end(304, "pod.consolidate", "pod=0 of=2 resolve=true"));
        j.record(end(
            301,
            "net.consolidate",
            "algo=pod_decomposed flows=64 pods=2",
        ));
        j.record(Event::PodConsolidation {
            pods: 2,
            solved: 2,
            resolves: 1,
            rounds: 2,
            balanced: 1,
            fallback: false,
        });
        j.snapshot()
    }

    #[test]
    fn summarize_tabulates_pod_counters() {
        let s = summarize(&pod_pass());
        assert!(s.contains("pod consolidation (net.pods.*)"), "{s}");
        assert!(s.contains("net.pods.solved"), "{s}");
        assert!(s.contains("net.pods.balanced_stitches"), "{s}");
    }

    #[test]
    fn summarize_tabulates_vp_kernel_counters() {
        let j = Journal::with_capacity(16);
        for (id, detail) in [
            (
                1,
                "server=0 convolutions=16 conditioned_hits=40 spectra_built=3 spectra_reused=10",
            ),
            (
                2,
                "server=1 convolutions=16 conditioned_hits=2 spectra_built=0 spectra_reused=13",
            ),
        ] {
            j.record(Event::SpanEnd {
                id,
                name: "server_shard".into(),
                elapsed_s: 0.01,
                detail: detail.into(),
            });
        }
        let s = summarize(&j.snapshot());
        assert!(s.contains("VP kernel (server.vp.*)"), "{s}");
        for (name, sum) in [
            ("server shards", 2),
            ("server.vp.convolutions", 32),
            ("server.vp.conditioned_hits", 42),
            ("server.vp.spectra_built", 3),
            ("server.vp.spectra_reused", 23),
        ] {
            let row = s.lines().find(|l| l.contains(name)).unwrap_or("");
            assert!(row.trim_end().ends_with(&sum.to_string()), "{name}: {s}");
        }
    }

    #[test]
    fn audit_accepts_covering_pod_pass() {
        let r = audit(&pod_pass(), 1.0e-9);
        let pod_violations: Vec<_> = r.violations.iter().filter(|v| v.contains("pod")).collect();
        assert!(pod_violations.is_empty(), "{pod_violations:?}");
        assert_eq!(r.pod_passes, 1);
        assert!(r.render().contains("1 pod-decomposed"));
    }

    #[test]
    fn audit_flags_missing_pod_coverage() {
        // Drop pod 1's round-0 span (start and end): coverage breaks and
        // the span-level round-0 tally no longer matches the event.
        let entries: Vec<JournalEntry> = pod_pass()
            .into_iter()
            .filter(|e| {
                !matches!(
                    &e.event,
                    Event::SpanStart { id: 303, .. } | Event::SpanEnd { id: 303, .. }
                )
            })
            .collect();
        let r = audit(&entries, 1.0e-9);
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("pod 1 has 0 round-0")),
            "{:?}",
            r.violations
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.contains("pod round-0 solves")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn audit_flags_pod_round0_deficit() {
        // An event claiming 1 solved on 2 pods leaks a pod.
        let mut entries = pod_pass();
        for e in &mut entries {
            if let Event::PodConsolidation { solved, .. } = &mut e.event {
                *solved = 1;
            }
        }
        let r = audit(&entries, 1.0e-9);
        assert!(
            r.violations.iter().any(|v| v.contains("round 0 solved")),
            "{:?}",
            r.violations
        );
    }
}
