//! ARROW: restoration-aware TE over LotteryTickets (§3.3, Tables 2 & 3).
//!
//! The two-phase LP design:
//!
//! * **Phase I** (Table 2) — takes every LotteryTicket `z` for every
//!   failure scenario `q` and solves one LP whose slack variables
//!   `Δ_e^{z,q}` measure how much each ticket's restored capacity
//!   `r_e^{z,q}` falls short of what the traffic wants. Constraint (6)
//!   bounds total slack per `(z, q)` by `M^{z,q} = α · Σ_e r_e^{z,q}`.
//! * **Post-processing** — per scenario, the *winning* ticket minimizes
//!   `Σ_e max(0, Δ_e^{z,q})` (the ReLU trick of §3.3).
//! * **Phase II** (Table 3) — re-solves with only the winning tickets'
//!   restored capacities and restorable tunnel sets, yielding the final
//!   allocation `{b_f, a_{f,t}}` and the restoration plan `Z*` installed on
//!   ROADMs.
//!
//! Constraint-size note: the paper's Table 2 ranges over every
//! `(f, q, z)`; most of those rows are duplicates because tickets with the
//! same *support* (set of links restored at all) induce the same
//! restorable-tunnel set `Y_f^{z,q}`. The builder deduplicates on support
//! — a pure formulation-size optimization with identical semantics.
//!
//! Both phases run in one place, [`ArrowOnline::solve`]; a one-shot
//! solve ([`TeScheme::solve`] for [`Arrow`]) is the first solve of a fresh
//! `ArrowOnline`, with nothing cached and nothing to warm-start from.
//!
//! **ARROW-Naive** (§6) skips Phase I: it uses a single optical-layer-
//! optimal restoration candidate per scenario and solves Phase II with it.

use super::{base_model, extract_alloc, BaseModel, SchemeOutput, TeScheme};
use crate::restoration::{RestorationTicket, TicketSet};
use crate::tunnels::{TeInstance, TunnelId};
use arrow_lp::{LinExpr, PrimalDual, Sense, Solution, SolveStats, SolverConfig, VarId, WarmStart};

/// The ARROW scheme (two-phase, LotteryTicket-driven).
#[derive(Debug, Clone)]
pub struct Arrow {
    /// LotteryTickets per scenario (from `arrow-core`'s Algorithm 1).
    pub tickets: TicketSet,
    /// Slack budget fraction α in `M^{z,q} = α Σ_e r_e^{z,q}` (paper
    /// evaluates α ∈ {0.2, 0.1, 0.05}).
    pub alpha: f64,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl Arrow {
    /// ARROW with default α = 0.1.
    pub fn new(tickets: TicketSet) -> Self {
        Arrow { tickets, alpha: 0.1, solver: SolverConfig::default() }
    }
}

/// Detailed ARROW output: allocation plus the winning ticket per scenario.
#[derive(Debug, Clone)]
pub struct ArrowOutcome {
    /// The scheme output (allocation + restoration plan).
    pub output: SchemeOutput,
    /// Winning ticket index per scenario (into `tickets.per_scenario[q]`).
    pub winning: Vec<usize>,
    /// Phase I solver observability (size, iterations, backend, warm event).
    pub phase1_stats: SolveStats,
    /// Phase II solver observability.
    pub phase2_stats: SolveStats,
}

/// Restorable tunnel set for flow tunnels under `(q, ticket)`.
fn restorable_tunnels(
    inst: &TeInstance,
    q_idx: usize,
    ticket: &RestorationTicket,
) -> Vec<TunnelId> {
    let scen = &inst.scenarios[q_idx];
    let lookup = |l| ticket.restored_gbps(l);
    (0..inst.tunnels.len())
        .map(TunnelId)
        .filter(|&t| inst.tunnel_restorable(t, scen, &lookup))
        .collect()
}

impl Arrow {
    /// Builds the Phase I model (Table 2) without solving it.
    ///
    /// Everything about the model except the demand bounds on `b_f` is
    /// independent of the traffic matrix, so [`ArrowOnline`] builds it
    /// once and re-solves it per interval.
    fn build_phase1(&self, inst: &TeInstance) -> BaseModel {
        assert_eq!(
            self.tickets.per_scenario.len(),
            inst.scenarios.len(),
            "ticket set must align with the scenario list"
        );
        let mut base = base_model(inst);
        // Slack variables per (q, z, failed link e).
        let mut slack_vars: Vec<Vec<Vec<(usize, VarId)>>> = Vec::new(); // [q][z] -> (link, Δ)
        for (qi, scen) in inst.scenarios.iter().enumerate() {
            let mut per_ticket = Vec::new();
            for (zi, ticket) in self.tickets.for_scenario(qi).iter().enumerate() {
                // Restorable tunnels for this (q, z).
                let y: Vec<TunnelId> = restorable_tunnels(inst, qi, ticket);
                // Constraint (4): residual + restorable tunnels cover b_f.
                // Deduplicated by ticket support (same support => same Y).
                let is_first_with_support = self.tickets.for_scenario(qi)[..zi]
                    .iter()
                    .all(|prev| prev.support() != ticket.support());
                if is_first_with_support {
                    for (fi, flow) in inst.flows.iter().enumerate() {
                        // Skip flows untouched by this scenario: constraint
                        // (4) collapses to constraint (1).
                        let affected = flow.tunnels.iter().any(|&t| !inst.tunnel_survives(t, scen));
                        if !affected {
                            continue;
                        }
                        let covered: Vec<_> = flow
                            .tunnels
                            .iter()
                            .filter(|&&t| inst.tunnel_survives(t, scen) || y.contains(&t))
                            .collect();
                        if covered.is_empty() {
                            // Nothing survives or restores: the flow is
                            // best-effort under this scenario (the loss is
                            // accounted during playback, not by zeroing b).
                            continue;
                        }
                        let mut e = LinExpr::term(base.b[fi], -1.0);
                        for &&t in &covered {
                            e.add_term(base.a[t.0], 1.0);
                        }
                        base.model.add_con(e, Sense::Ge, 0.0, format!("arw4_f{fi}_q{qi}_z{zi}"));
                    }
                }
                // Constraints (5)+(6): restored capacity with slack. Like
                // healthy capacity, restored capacity is per direction.
                let mut slacks = Vec::new();
                let mut m_bound = LinExpr::new();
                for &(link, r) in &ticket.restored {
                    for fwd in [true, false] {
                        // Load of restorable tunnels crossing (link, dir).
                        let users: Vec<VarId> = y
                            .iter()
                            .filter(|&&t| {
                                inst.tunnels[t.0]
                                    .hops
                                    .iter()
                                    .any(|h| h.link == link && h.forward == fwd)
                            })
                            .map(|&t| base.a[t.0])
                            .collect();
                        if users.is_empty() {
                            continue;
                        }
                        // Δ ≥ 0 measures how far traffic *wants* to exceed
                        // the ticket's restored capacity; a tiny objective
                        // penalty (added below) pins it to that minimum so
                        // the post-processing comparison is meaningful.
                        let delta = base.model.add_var(
                            0.0,
                            arrow_lp::INF,
                            format!("d_e{}_{fwd}_q{qi}_z{zi}", link.0),
                        );
                        let mut e = LinExpr::sum_vars(users);
                        e.add_term(delta, -1.0);
                        base.model.add_con(
                            e,
                            Sense::Le,
                            r,
                            format!("arw5_e{}_{fwd}_q{qi}_z{zi}", link.0),
                        );
                        m_bound.add_term(delta, 1.0);
                        slacks.push((link.0, delta));
                    }
                }
                if !slacks.is_empty() {
                    let m = self.alpha * ticket.total_gbps();
                    base.model.add_con(m_bound, Sense::Le, m, format!("arw6_q{qi}_z{zi}"));
                }
                per_ticket.push(slacks);
            }
            slack_vars.push(per_ticket);
        }
        // Objective: max Σ b_f minus a tiny slack penalty that pins each
        // Δ to exactly max(0, load − r) without perturbing throughput.
        let mut obj = LinExpr::sum_vars(base.b.iter().copied());
        for per_ticket in &slack_vars {
            for slacks in per_ticket {
                for &(_, v) in slacks {
                    obj.add_term(v, -1e-4);
                }
            }
        }
        base.model.set_objective(obj, arrow_lp::Objective::Maximize);
        base
    }

    /// Post-processing on a Phase I solution: the winning ticket per
    /// scenario.
    fn select_winning(&self, inst: &TeInstance, base: &BaseModel, sol: &Solution) -> Vec<usize> {
        // Winning ticket per scenario: the paper's criterion is
        // `min_z Σ_e max(0, Δ_e^{z,q})`. The LP leaves Δ degenerate when
        // capacity is plentiful (many exact ties), so the score is
        // evaluated directly from the Phase-I traffic: for each ticket,
        //   stranded = allocation on affected tunnels the ticket fails to
        //              restore (they stay dark), plus
        //   overflow = max(0, restorable-tunnel load − r_e) per direction
        //              (the minimal feasible Δ).
        // Ties still break toward the ticket restoring the most capacity.
        let winning: Vec<usize> = inst
            .scenarios
            .iter()
            .enumerate()
            .map(|(qi, scen)| {
                let tickets = self.tickets.for_scenario(qi);
                let affected: Vec<TunnelId> = (0..inst.tunnels.len())
                    .map(TunnelId)
                    .filter(|&t| !inst.tunnel_survives(t, scen))
                    .collect();
                let score = |ticket: &RestorationTicket| -> i64 {
                    let y: Vec<TunnelId> = affected
                        .iter()
                        .copied()
                        .filter(|&t| inst.tunnel_restorable(t, scen, &|l| ticket.restored_gbps(l)))
                        .collect();
                    let stranded: f64 = affected
                        .iter()
                        .filter(|t| !y.contains(t))
                        .map(|&t| sol.value(base.a[t.0]).max(0.0))
                        .sum();
                    let mut overflow = 0.0f64;
                    for &(link, r) in &ticket.restored {
                        for fwd in [true, false] {
                            let load: f64 = y
                                .iter()
                                .filter(|&&t| {
                                    inst.tunnels[t.0]
                                        .hops
                                        .iter()
                                        .any(|h| h.link == link && h.forward == fwd)
                                })
                                .map(|&t| sol.value(base.a[t.0]).max(0.0))
                                .sum();
                            overflow += (load - r).max(0.0);
                        }
                    }
                    ((stranded + overflow) * 100.0).round() as i64
                };
                // Total order even for pathological (NaN) capacities:
                // integer score ascending, then restored capacity
                // descending via total_cmp, then first index.
                tickets
                    .iter()
                    .enumerate()
                    .min_by(|(za, ta), (zb, tb)| {
                        score(ta)
                            .cmp(&score(tb))
                            .then(tb.total_gbps().total_cmp(&ta.total_gbps()))
                            .then(za.cmp(zb))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        winning
    }

    /// Builds the Phase II model (Table 3) without solving it.
    fn build_phase2(
        &self,
        inst: &TeInstance,
        winning: &[usize],
    ) -> (BaseModel, Vec<RestorationTicket>) {
        let mut base = base_model(inst);
        let mut plan = Vec::new();
        for (qi, scen) in inst.scenarios.iter().enumerate() {
            let ticket = &self.tickets.for_scenario(qi)[winning[qi]];
            plan.push(ticket.clone());
            let y = restorable_tunnels(inst, qi, ticket);
            // Constraint (10): residual + winning restorable tunnels.
            for (fi, flow) in inst.flows.iter().enumerate() {
                let affected = flow.tunnels.iter().any(|&t| !inst.tunnel_survives(t, scen));
                if !affected {
                    continue;
                }
                let covered: Vec<_> = flow
                    .tunnels
                    .iter()
                    .filter(|&&t| inst.tunnel_survives(t, scen) || y.contains(&t))
                    .collect();
                if covered.is_empty() {
                    continue; // best-effort flow under this scenario
                }
                let mut e = LinExpr::term(base.b[fi], -1.0);
                for &&t in &covered {
                    e.add_term(base.a[t.0], 1.0);
                }
                base.model.add_con(e, Sense::Ge, 0.0, format!("arw10_f{fi}_q{qi}"));
            }
            // Constraint (11): restorable-tunnel load ≤ winning r (hard,
            // per direction like healthy capacity).
            for &(link, r) in &ticket.restored {
                for fwd in [true, false] {
                    let users: Vec<VarId> = y
                        .iter()
                        .filter(|&&t| {
                            inst.tunnels[t.0]
                                .hops
                                .iter()
                                .any(|h| h.link == link && h.forward == fwd)
                        })
                        .map(|&t| base.a[t.0])
                        .collect();
                    if users.is_empty() {
                        continue;
                    }
                    base.model.add_con(
                        LinExpr::sum_vars(users),
                        Sense::Le,
                        r,
                        format!("arw11_e{}_{fwd}_q{qi}", link.0),
                    );
                }
            }
        }
        (base, plan)
    }
}

impl TeScheme for Arrow {
    fn name(&self) -> String {
        "ARROW".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        ArrowOnline::new(self.clone(), inst).solve(inst).output
    }
}

/// Incremental two-phase solver for consecutive online intervals.
///
/// The online stage runs every TE epoch against the same topology,
/// tunnels, scenarios, and tickets — only the traffic matrix changes. This
/// wrapper exploits that:
///
/// * the Phase I constraint skeleton is built **once** and demand enters
///   it only through the `b_f` upper bounds, which are patched in place;
/// * each solve warm-starts from the previous interval's optimum (simplex
///   basis and/or primal–dual point, whichever the backend consumes);
/// * the Phase II model is cached keyed on the winning-ticket vector and
///   re-solved warm when the winners repeat; a fresh Phase II model is
///   seeded from the Phase I allocation (its `b`/`a` variables are the
///   shared prefix of both models).
///
/// The first solve has nothing cached and is the cold two-phase solve.
/// Changing the instance *structure* (flows, tunnels, scenarios) or the
/// tickets requires a new `ArrowOnline`; [`ArrowOnline::solve`] asserts
/// the shape matches.
#[derive(Debug, Clone)]
pub struct ArrowOnline {
    arrow: Arrow,
    phase1: BaseModel,
    phase1_warm: Option<WarmStart>,
    phase2: Option<Phase2Cache>,
    /// `(flows, tunnels, scenarios)` of the instance the skeleton was
    /// built from.
    shape: (usize, usize, usize),
}

/// Cached Phase II state, valid while the winning tickets repeat.
#[derive(Debug, Clone)]
struct Phase2Cache {
    winning: Vec<usize>,
    base: BaseModel,
    plan: Vec<RestorationTicket>,
    warm: Option<WarmStart>,
}

impl ArrowOnline {
    /// Builds the Phase I skeleton for `inst`'s structure. Demands present
    /// in `inst` are immaterial: every [`ArrowOnline::solve`] re-patches
    /// them from its own instance.
    pub fn new(arrow: Arrow, inst: &TeInstance) -> Self {
        let phase1 = arrow.build_phase1(inst);
        let shape = (inst.flows.len(), inst.tunnels.len(), inst.scenarios.len());
        ArrowOnline { arrow, phase1, phase1_warm: None, phase2: None, shape }
    }

    /// The underlying scheme configuration.
    pub fn arrow(&self) -> &Arrow {
        &self.arrow
    }

    /// One online interval: patch demands, warm-solve Phase I, pick the
    /// winners, warm-solve Phase II.
    ///
    /// `inst` must share the structure of the instance this solver was
    /// built from — typically produced by
    /// [`TeInstance::with_demands`](crate::tunnels::TeInstance::with_demands).
    pub fn solve(&mut self, inst: &TeInstance) -> ArrowOutcome {
        assert_eq!(
            self.shape,
            (inst.flows.len(), inst.tunnels.len(), inst.scenarios.len()),
            "instance structure changed; rebuild ArrowOnline"
        );
        let sol1 = {
            let _span = arrow_obs::span!(
                "te.phase1",
                "flows" => inst.flows.len(),
                "scenarios" => inst.scenarios.len(),
                "warm" => self.phase1_warm.is_some(),
            );
            // Demand enters Phase I only through the b_f upper bounds.
            for (fi, f) in inst.flows.iter().enumerate() {
                self.phase1.model.set_bounds(self.phase1.b[fi], 0.0, f.demand_gbps);
            }
            arrow_lp::solve_with(&self.phase1.model, &self.arrow.solver, self.phase1_warm.as_ref())
        };
        assert!(sol1.status.is_usable(), "ARROW Phase I LP failed: {:?}", sol1.status);
        self.phase1_warm = sol1.warm_start();
        let winning = {
            let _span = arrow_obs::span!("te.select", "scenarios" => inst.scenarios.len());
            self.arrow.select_winning(inst, &self.phase1, &sol1)
        };
        let cache_valid = self.phase2.as_ref().is_some_and(|c| c.winning == winning);
        let (sol2, alloc, plan) = {
            let _span = arrow_obs::span!(
                "te.phase2",
                "flows" => inst.flows.len(),
                "cached" => cache_valid,
            );
            let warm_cache = match self.phase2.take() {
                Some(c) if c.winning == winning => c,
                _ => {
                    let (base, plan) = self.arrow.build_phase2(inst, &winning);
                    // Seed Phase II from the Phase I allocation: both models
                    // allocate b then a first, so the variable prefix is shared.
                    // (No basis: the row sets differ, so only the point maps.)
                    let ncols = base.model.num_vars();
                    let warm = Some(WarmStart::from_point(PrimalDual {
                        x: sol1.x[..ncols].to_vec(),
                        y: Vec::new(),
                    }));
                    Phase2Cache { winning: winning.clone(), base, plan, warm }
                }
            };
            let cache = self.phase2.insert(warm_cache);
            for (fi, f) in inst.flows.iter().enumerate() {
                cache.base.model.set_bounds(cache.base.b[fi], 0.0, f.demand_gbps);
            }
            let sol2 =
                arrow_lp::solve_with(&cache.base.model, &self.arrow.solver, cache.warm.as_ref());
            assert!(sol2.status.is_usable(), "ARROW Phase II LP failed: {:?}", sol2.status);
            cache.warm = sol2.warm_start();
            let alloc = extract_alloc(inst, &cache.base, &sol2, "ARROW");
            let plan = cache.plan.clone();
            (sol2, alloc, plan)
        };
        let mut output = SchemeOutput { alloc, restoration: Some(plan) };
        output.alloc.solve_seconds = sol1.stats.solve_seconds + sol2.stats.solve_seconds;
        ArrowOutcome { output, winning, phase1_stats: sol1.stats, phase2_stats: sol2.stats }
    }
}

/// ARROW-Naive: Phase II with one optical-layer-optimal ticket (§6).
#[derive(Debug, Clone)]
pub struct ArrowNaive {
    /// The single restoration candidate per scenario (from the RWA).
    pub tickets: Vec<RestorationTicket>,
    /// LP solver settings.
    pub solver: SolverConfig,
}

impl TeScheme for ArrowNaive {
    fn name(&self) -> String {
        "ARROW-Naive".into()
    }

    fn solve(&self, inst: &TeInstance) -> SchemeOutput {
        let arrow = Arrow {
            tickets: TicketSet::full(self.tickets.iter().map(|t| vec![t.clone()]).collect()),
            alpha: 0.1,
            solver: self.solver.clone(),
        };
        let (base, plan) = arrow.build_phase2(inst, &vec![0; inst.scenarios.len()]);
        let sol = arrow_lp::solve(&base.model, &self.solver);
        assert!(sol.status.is_usable(), "ARROW-Naive Phase II LP failed: {:?}", sol.status);
        SchemeOutput {
            alloc: extract_alloc(inst, &base, &sol, &self.name()),
            restoration: Some(plan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::ffc::Ffc;
    use crate::tunnels::{build_instance, TunnelConfig};
    use arrow_topology::{b4, generate_failures, gravity_matrices, FailureConfig, TrafficConfig};

    fn instance(scale: f64, max_scenarios: usize) -> TeInstance {
        let wan = b4(17);
        let tms = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() });
        let failures =
            generate_failures(&wan, &FailureConfig { max_scenarios, ..Default::default() });
        build_instance(
            &wan,
            &tms[0].scaled(scale),
            failures.failure_scenarios(),
            &TunnelConfig {
                tunnels_per_flow: 4,
                prefer_fiber_disjoint: true,
                ..Default::default()
            },
        )
    }

    /// Tickets granting full restoration of every failed link.
    fn full_tickets(inst: &TeInstance) -> TicketSet {
        TicketSet::full(
            inst.scenarios
                .iter()
                .map(|s| {
                    vec![RestorationTicket {
                        restored: s
                            .failed_links
                            .iter()
                            .map(|&l| (l, inst.wan.link(l).capacity_gbps))
                            .collect(),
                    }]
                })
                .collect(),
        )
    }

    /// Tickets restoring nothing.
    fn empty_tickets(inst: &TeInstance) -> TicketSet {
        TicketSet::none(inst.scenarios.len())
    }

    #[test]
    fn full_restoration_matches_maxflow() {
        // If every failure is fully restorable, failures are invisible and
        // ARROW should admit exactly what the failure-oblivious LP admits.
        let inst = instance(4.0, 8);
        let mf = super::super::maxflow::MaxFlow::default().solve(&inst);
        let arrow = Arrow::new(full_tickets(&inst)).solve(&inst);
        let (t_mf, t_ar) = (mf.alloc.throughput(&inst), arrow.alloc.throughput(&inst));
        assert!(
            (t_mf - t_ar).abs() < 2e-3,
            "full restoration should equal MaxFlow: {t_ar} vs {t_mf}"
        );
    }

    #[test]
    fn no_restoration_sandwiched_by_ffc_and_maxflow() {
        let inst = instance(4.0, 8);
        let arrow = Arrow::new(empty_tickets(&inst)).solve(&inst);
        let mf = super::super::maxflow::MaxFlow::default().solve(&inst);
        let t = arrow.alloc.throughput(&inst);
        assert!(t <= mf.alloc.throughput(&inst) + 1e-6);
        // With zero tickets ARROW still protects the enumerated scenarios,
        // so it cannot beat MaxFlow but must stay positive.
        assert!(t > 0.0);
    }

    #[test]
    fn more_restoration_never_hurts() {
        let inst = instance(4.0, 8);
        let none = Arrow::new(empty_tickets(&inst)).solve(&inst).alloc.throughput(&inst);
        let full = Arrow::new(full_tickets(&inst)).solve(&inst).alloc.throughput(&inst);
        assert!(full >= none - 1e-6, "full {full} < none {none}");
    }

    #[test]
    fn winning_ticket_tracks_demand() {
        // Reconstruction of Fig. 7: one scenario, two failed links, three
        // tickets; the demand profile makes ticket "(100, 400)" the winner.
        let inst = instance(1.0, 4);
        // Find a scenario with ≥1 failed link to attach tickets to.
        let q0 = &inst.scenarios[0];
        assert!(!q0.failed_links.is_empty());
        let link = q0.failed_links[0];
        let cap = inst.wan.link(link).capacity_gbps;
        let mut per_scenario: Vec<Vec<RestorationTicket>> = inst
            .scenarios
            .iter()
            .map(|s| {
                vec![RestorationTicket {
                    restored: s.failed_links.iter().map(|&l| (l, 0.0)).collect(),
                }]
            })
            .collect();
        // Scenario 0 gets two candidates: nothing vs full for `link`.
        per_scenario[0] = vec![
            RestorationTicket { restored: vec![(link, 0.0)] },
            RestorationTicket { restored: vec![(link, cap)] },
        ];
        let loaded = inst.scaled(4.0);
        let outcome =
            ArrowOnline::new(Arrow::new(TicketSet::full(per_scenario)), &loaded).solve(&loaded);
        // The full-restoration candidate must win scenario 0.
        assert_eq!(outcome.winning[0], 1, "full-restoration ticket should win");
    }

    #[test]
    fn naive_equals_arrow_with_single_ticket() {
        let inst = instance(3.0, 6);
        let tickets: Vec<RestorationTicket> = inst
            .scenarios
            .iter()
            .map(|s| RestorationTicket {
                restored: s
                    .failed_links
                    .iter()
                    .map(|&l| (l, 0.5 * inst.wan.link(l).capacity_gbps))
                    .collect(),
            })
            .collect();
        let naive =
            ArrowNaive { tickets: tickets.clone(), solver: Default::default() }.solve(&inst);
        let arrow = Arrow::new(TicketSet::full(tickets.into_iter().map(|t| vec![t]).collect()))
            .solve(&inst);
        assert!(
            (naive.alloc.throughput(&inst) - arrow.alloc.throughput(&inst)).abs() < 1e-4,
            "single-ticket ARROW must equal ARROW-Naive"
        );
    }

    #[test]
    fn arrow_beats_ffc_under_load() {
        // The headline effect: restoration awareness admits more demand
        // than failure-aware TE that treats cuts as fatal.
        let inst = instance(5.0, 8);
        let arrow = Arrow::new(full_tickets(&inst)).solve(&inst);
        let ffc = Ffc::k1().solve(&inst);
        let (t_a, t_f) = (arrow.alloc.throughput(&inst), ffc.alloc.throughput(&inst));
        assert!(t_a > t_f, "ARROW {t_a} should beat FFC-1 {t_f} under load");
    }

    #[test]
    fn restoration_plan_is_returned_per_scenario() {
        let inst = instance(2.0, 5);
        let out = Arrow::new(full_tickets(&inst)).solve(&inst);
        let plan = out.restoration.expect("ARROW returns a plan");
        assert_eq!(plan.len(), inst.scenarios.len());
        for (q, ticket) in inst.scenarios.iter().zip(&plan) {
            for &(l, _) in &ticket.restored {
                assert!(q.failed_links.contains(&l), "plan restores a non-failed link");
            }
        }
    }

    /// Tickets restoring half of each failed link's capacity, plus an
    /// empty candidate — gives Phase I a real choice to make.
    fn half_or_nothing_tickets(inst: &TeInstance) -> TicketSet {
        TicketSet::full(
            inst.scenarios
                .iter()
                .map(|s| {
                    vec![
                        RestorationTicket {
                            restored: s
                                .failed_links
                                .iter()
                                .map(|&l| (l, 0.5 * inst.wan.link(l).capacity_gbps))
                                .collect(),
                        },
                        RestorationTicket {
                            restored: s.failed_links.iter().map(|&l| (l, 0.0)).collect(),
                        },
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn online_first_solve_matches_cold_exactly() {
        // The first ArrowOnline solve has no warm state: it is the cold
        // solve, so the one-shot TeScheme path agrees with it exactly.
        let inst = instance(4.0, 6);
        let arrow = Arrow::new(half_or_nothing_tickets(&inst));
        let cold = arrow.solve(&inst);
        let mut online = ArrowOnline::new(arrow, &inst);
        let first = online.solve(&inst);
        assert_eq!(first.output.restoration, cold.restoration, "winning tickets must match cold");
        assert_eq!(first.output.alloc.b, cold.alloc.b, "admitted demand must match cold");
        assert_eq!(first.output.alloc.a, cold.alloc.a, "tunnel allocation must match cold");
        assert_eq!(first.phase1_stats.warm, arrow_lp::WarmEvent::Cold);
    }

    #[test]
    fn online_warm_resolve_matches_cold_across_demand_sweep() {
        // B4 Phase II warm-start regression: re-solving shifted demand
        // matrices warm must reproduce a fresh solver's winners and
        // objective.
        let inst = instance(4.0, 6);
        let arrow = Arrow::new(half_or_nothing_tickets(&inst));
        let mut online = ArrowOnline::new(arrow.clone(), &inst);
        for scale in [1.0, 1.25, 0.8] {
            let shifted = inst.scaled(scale);
            let warm = online.solve(&shifted);
            let cold = ArrowOnline::new(arrow.clone(), &shifted).solve(&shifted);
            assert_eq!(warm.winning, cold.winning, "scale {scale}: winners diverged");
            let (tw, tc) =
                (warm.output.alloc.throughput(&shifted), cold.output.alloc.throughput(&shifted));
            assert!(
                (tw - tc).abs() <= 1e-6 * (1.0 + tc.abs()),
                "scale {scale}: warm {tw} vs cold {tc}"
            );
        }
        // After the first interval every Phase I solve starts warm.
        let again = online.solve(&inst.scaled(1.1));
        assert_ne!(again.phase1_stats.warm, arrow_lp::WarmEvent::Cold);
        assert_ne!(again.phase2_stats.warm, arrow_lp::WarmEvent::Cold);
    }

    #[test]
    #[should_panic(expected = "structure changed")]
    fn online_rejects_mismatched_instance() {
        let inst = instance(1.0, 4);
        let mut online = ArrowOnline::new(Arrow::new(empty_tickets(&inst)), &inst);
        let other = instance(1.0, 3); // fewer scenarios
        let _ = online.solve(&other);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_ticket_set_panics() {
        let inst = instance(1.0, 5);
        let bad = TicketSet::none(inst.scenarios.len() + 1);
        let _ = ArrowOnline::new(Arrow::new(bad), &inst);
    }

    #[test]
    fn ticket_support_dedup_is_semantically_safe() {
        // Two tickets with identical support but different capacities must
        // both be selectable; dedup only merges constraint (4) rows.
        let inst = instance(4.0, 4);
        let q0 = &inst.scenarios[0];
        let link = q0.failed_links[0];
        let cap = inst.wan.link(link).capacity_gbps;
        let mut per_scenario: Vec<Vec<RestorationTicket>> =
            inst.scenarios.iter().map(|_| vec![RestorationTicket::empty()]).collect();
        per_scenario[0] = vec![
            RestorationTicket { restored: vec![(link, 0.25 * cap)] },
            RestorationTicket { restored: vec![(link, cap)] }, // same support
        ];
        let outcome =
            ArrowOnline::new(Arrow::new(TicketSet::full(per_scenario)), &inst).solve(&inst);
        assert_eq!(outcome.winning[0], 1, "larger-capacity ticket should win");
    }
}
