//! Output checks and failure accounting. Every check runs outside the
//! timed region; a failed check counts one failed operation and never
//! aborts the run.

use arrow_wan::core::TePlan;
use arrow_wan::optical::{is_feasible, RwaConfig};
use arrow_wan::te::TicketSet;
use arrow_wan::topology::{FailureScenario, Wan};

/// Failure messages kept for printing; the rest are only counted.
const KEEP_MESSAGES: usize = 8;

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (epochs, scenarios, whole-run checks).
    pub attempted: u64,
    /// Operations whose output failed a check, or that returned an error.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed, checked
    /// elsewhere (e.g. counted by the daemon itself).
    pub fn bulk(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < KEEP_MESSAGES {
            self.messages.push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Share of attempted operations that passed (1 when none ran).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Checks one installed plan against its own instance: splitting ratios
/// sum to 1 per flow, admitted traffic stays within demand, every winner
/// indexes its scenario's ticket list, and no reconfiguration route uses
/// a fiber cut in its scenario.
pub fn plan_problems(
    plan: &TePlan,
    scenarios: &[FailureScenario],
    tickets: &TicketSet,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (f, ratios) in plan.splitting_ratios.iter().enumerate() {
        let sum: f64 = ratios.iter().map(|&(_, w)| w).sum();
        if !ratios.is_empty() && (sum - 1.0).abs() > 1e-6 {
            problems.push(format!("flow {f} splitting ratios sum to {sum}"));
        }
    }
    let alloc = &plan.outcome.output.alloc;
    for (f, flow) in plan.instance.flows.iter().enumerate() {
        let admitted = alloc.b.get(f).copied().unwrap_or(f64::NAN);
        let within = admitted <= flow.demand_gbps * (1.0 + 1e-6) + 1e-6;
        if !within {
            problems.push(format!("flow {f} admits {admitted} > demand {}", flow.demand_gbps));
        }
    }
    if plan.outcome.winning.len() != scenarios.len() {
        problems.push(format!(
            "{} winners for {} scenarios",
            plan.outcome.winning.len(),
            scenarios.len()
        ));
    }
    for (q, &w) in plan.outcome.winning.iter().enumerate() {
        let have = tickets.per_scenario.get(q).map_or(0, Vec::len);
        if w >= have {
            problems.push(format!("scenario {q} winner {w} out of {have} tickets"));
        }
    }
    for rule in &plan.reconfig_rules {
        let Some(scen) = scenarios.get(rule.scenario) else {
            problems.push(format!("rule for unknown scenario {}", rule.scenario));
            continue;
        };
        for (path, _) in &rule.routes {
            if path.fibers.iter().any(|f| scen.cut_fibers.contains(f)) {
                problems.push(format!("scenario {} rule routes over a cut fiber", rule.scenario));
            }
        }
    }
    problems
}

/// Admitted traffic of a plan, Gbps.
pub fn admitted(plan: &TePlan) -> f64 {
    plan.outcome.output.alloc.total_admitted()
}

/// A cold re-plan must pick the same winners and admit the same traffic
/// (within 1e-6 relative) as the warm plan it re-derives.
pub fn agreement_problems(warm: (&[usize], f64), cold: (&[usize], f64)) -> Vec<String> {
    let mut problems = Vec::new();
    if warm.0 != cold.0 {
        problems.push(format!("winners differ: warm {:?} cold {:?}", warm.0, cold.0));
    }
    if (warm.1 - cold.1).abs() > 1e-6 * warm.1.abs().max(cold.1.abs()).max(1.0) {
        problems.push(format!("admitted differs: warm {} cold {}", warm.1, cold.1));
    }
    problems
}

/// Checks one scenario's tickets: at least one, each restoring between 0
/// and the lost capacity on failed links only, and each realizable
/// according to the optical feasibility filter.
pub fn scenario_problems(
    wan: &Wan,
    scen: &FailureScenario,
    tickets: &[arrow_wan::te::RestorationTicket],
    rwa: &RwaConfig,
) -> Vec<String> {
    let mut problems = Vec::new();
    if tickets.is_empty() {
        problems.push("no tickets".to_string());
    }
    for (z, t) in tickets.iter().enumerate() {
        let mut targets = Vec::with_capacity(t.restored.len());
        for &(link, gbps) in &t.restored {
            let cap = wan.link(link).capacity_gbps;
            if !scen.failed_links.contains(&link) {
                problems.push(format!("ticket {z} restores healthy link {}", link.0));
            }
            if !(0.0..=cap + 1e-6).contains(&gbps) {
                problems
                    .push(format!("ticket {z} restores {gbps} of {cap} Gbps on link {}", link.0));
            }
            let lp = wan.link(link).lightpath;
            let per = wan.optical.lightpath(lp).gbps_per_wavelength;
            targets.push((lp, (gbps / per).round() as usize));
        }
        if !is_feasible(&wan.optical, &scen.cut_fibers, rwa, &targets) {
            problems.push(format!("ticket {z} is not realizable"));
        }
    }
    problems
}
