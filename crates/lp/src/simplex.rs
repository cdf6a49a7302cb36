//! Bounded-variable two-phase revised simplex.
//!
//! This is the exact solver backend: it handles general bounds `l ≤ x ≤ u`
//! natively (no bound rows are added), runs a phase-1 with artificial
//! variables to find a basic feasible solution, and then optimizes the real
//! objective.
//!
//! The basis inverse is never formed. It is kept in product form as an eta
//! file ([`EtaFile`]): a sparse reinversion writes one eta column per basic
//! structural (slack and artificial columns first, then structurals
//! sparsest-first, each pivoting on its largest entry in a free row), and
//! every simplex pivot appends one more. FTRAN (`B⁻¹a`) and BTRAN (`B⁻ᵀc`)
//! walk the file, so an iteration costs the file's nonzeros instead of the
//! `O(m²)` of an explicit inverse. The basis is reinverted from scratch once
//! the pivots' etas hold more nonzeros than the reinversion wrote.
//!
//! Implemented: Dantzig pricing with a Bland anti-cycling fallback, bound
//! flips, infeasibility/unboundedness detection, singular-basis detection,
//! and dual values. Deliberately omitted: steepest-edge pricing, Markowitz
//! LU factors with Forrest–Tomlin updates, a dual simplex phase, and
//! presolve.

use crate::model::{Sense, StandardLp};
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::CscMatrix;
use crate::warm::{BackendKind, Basis, ColStatus, WarmEvent};

/// Tunable knobs for the simplex solver.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Bound/feasibility tolerance.
    pub feas_tol: f64,
    /// Smallest pivot magnitude accepted during a basis change.
    pub pivot_tol: f64,
    /// Hard iteration limit (both phases combined). `0` means automatic
    /// (`200 + 20 * (rows + cols)`).
    pub max_iters: usize,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub degenerate_before_bland: usize,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            opt_tol: 1e-7,
            feas_tol: 1e-7,
            pivot_tol: 1e-9,
            max_iters: 0,
            degenerate_before_bland: 400,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize), // position in basis
    AtLower,
    AtUpper,
    /// Free variable currently parked at zero.
    FreeAtZero,
}

/// Column classes: structurals come from the model, slacks encode row
/// senses, artificials exist only to build the phase-1 starting basis.
struct Columns<'a> {
    a: CscMatrix,
    n: usize,
    m: usize,
    /// Row index for each artificial column, parallel to indices `n + m ..`.
    art_rows: Vec<usize>,
    /// Sign of each artificial column's single entry.
    art_signs: Vec<f64>,
    lp: &'a StandardLp,
}

impl Columns<'_> {
    fn total(&self) -> usize {
        self.n + self.m + self.art_rows.len()
    }

    /// Iterates the sparse entries of column `j` as `(row, value)`.
    fn for_each_entry(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for (i, v) in self.a.col(j) {
                f(i, v);
            }
        } else if j < self.n + self.m {
            f(j - self.n, 1.0);
        } else {
            let k = j - self.n - self.m;
            f(self.art_rows[k], self.art_signs[k]);
        }
    }

    fn dot_with(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            self.a.col_dot(j, y)
        } else if j < self.n + self.m {
            y[j - self.n]
        } else {
            let k = j - self.n - self.m;
            self.art_signs[k] * y[self.art_rows[k]]
        }
    }
}

/// A reinversion pivot smaller than this means the basis is singular.
const SINGULAR_TOL: f64 = 1e-12;

/// Eta entries smaller than this are rounding noise and are not stored.
const DROP_TOL: f64 = 1e-14;

/// A dense work vector that remembers which entries it touched, so that
/// scanning and clearing it cost its fill instead of its length.
struct SparseVec {
    val: Vec<f64>,
    touched: Vec<bool>,
    nz: Vec<usize>,
}

impl SparseVec {
    fn new(m: usize) -> Self {
        SparseVec { val: vec![0.0; m], touched: vec![false; m], nz: Vec::new() }
    }

    fn add(&mut self, i: usize, v: f64) {
        if !self.touched[i] {
            self.touched[i] = true;
            self.nz.push(i);
        }
        self.val[i] += v;
    }

    fn clear(&mut self) {
        for &i in &self.nz {
            self.val[i] = 0.0;
            self.touched[i] = false;
        }
        self.nz.clear();
    }
}

/// The basis inverse in product form.
///
/// Eta `k` is the identity with column `slot[k]` replaced; it maps a vector
/// `d` with `d[slot] = piv` and off-slot entries `w` to the unit vector of
/// its slot. The etas, applied oldest first, map the basis column at
/// position `pos` to the unit vector of `slot_of[pos]`, so `B⁻¹a` at `pos`
/// is entry `slot_of[pos]` of the transformed `a`. Slots are row indices:
/// a reinversion assigns each basis column a distinct pivot row, and a
/// pivot keeps the leaving column's slot for the entering one.
struct EtaFile {
    slot: Vec<usize>,
    piv: Vec<f64>,
    /// Off-slot entries of eta `k`: `idx[start[k]..start[k + 1]]`, same for `val`.
    start: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
    /// Slot of each basis position.
    slot_of: Vec<usize>,
    /// Nonzeros the last reinversion wrote, one per basis column plus fill.
    fresh_nnz: usize,
    /// Nonzeros the pivots since then appended.
    update_nnz: usize,
}

impl EtaFile {
    fn new() -> Self {
        EtaFile {
            slot: Vec::new(),
            piv: Vec::new(),
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
            slot_of: Vec::new(),
            fresh_nnz: 0,
            update_nnz: 0,
        }
    }

    /// Appends an eta with no off-slot entries (a scaled unit column).
    fn push_unit(&mut self, slot: usize, piv: f64) {
        self.slot.push(slot);
        self.piv.push(piv);
        self.start.push(self.idx.len());
    }

    /// Appends the eta that maps `d` to the unit vector of `slot`, and
    /// returns its nonzeros.
    fn push(&mut self, slot: usize, d: &SparseVec) -> usize {
        let before = self.idx.len();
        for &i in &d.nz {
            let v = d.val[i];
            if i != slot && v.abs() > DROP_TOL {
                self.idx.push(i);
                self.val.push(v);
            }
        }
        self.push_unit(slot, d.val[slot]);
        1 + self.idx.len() - before
    }

    /// FTRAN: applies the etas to `v` in order, in place.
    fn ftran(&self, v: &mut SparseVec) {
        for k in 0..self.slot.len() {
            let p = self.slot[k];
            let vp = v.val[p];
            if vp == 0.0 {
                continue;
            }
            let t = vp / self.piv[k];
            v.val[p] = t;
            for e in self.start[k]..self.start[k + 1] {
                v.add(self.idx[e], -self.val[e] * t);
            }
        }
    }

    /// BTRAN: applies the transposed etas to the slot-indexed `v` newest
    /// first, in place; the result is indexed by row.
    fn btran(&self, v: &mut [f64]) {
        for k in (0..self.slot.len()).rev() {
            let p = self.slot[k];
            let mut acc = v[p];
            for e in self.start[k]..self.start[k + 1] {
                acc -= self.val[e] * v[self.idx[e]];
            }
            v[p] = acc / self.piv[k];
        }
    }

    /// Whether the pivots' etas outgrew the reinversion, so that a fresh
    /// one is cheaper to apply.
    fn outgrown(&self) -> bool {
        self.update_nnz > self.fresh_nnz
    }
}

/// Solver state for one solve call.
struct Simplex<'a> {
    cfg: &'a SimplexConfig,
    cols: Columns<'a>,
    /// Lower/upper bounds for every column (structural, slack, artificial).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Current value of every column.
    x: Vec<f64>,
    state: Vec<VarState>,
    /// Basis: column index occupying each of the `m` basis positions.
    basis: Vec<usize>,
    /// Factorization of the basis matrix.
    etas: EtaFile,
    m: usize,
    iterations: usize,
    refactors: usize,
    degenerate_streak: usize,
    /// Duals `y` (indexed by row), direction `w = B⁻¹a` (indexed by basis
    /// position), and the slot-indexed FTRAN work vector behind `w`.
    y: Vec<f64>,
    w: Vec<f64>,
    d: SparseVec,
}

/// Outcome of one inner simplex phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    IterLimit,
    /// Numerical trouble that a refactorization did not fix.
    Stalled,
}

/// Appends the slack-column bounds encoding each row's sense (`Ax + s =
/// rhs`) to structural bounds already in `lb`/`ub`.
fn push_slack_bounds(lp: &StandardLp, lb: &mut Vec<f64>, ub: &mut Vec<f64>) {
    for s in &lp.senses {
        match s {
            Sense::Le => {
                lb.push(0.0);
                ub.push(f64::INFINITY);
            }
            Sense::Ge => {
                lb.push(f64::NEG_INFINITY);
                ub.push(0.0);
            }
            Sense::Eq => {
                lb.push(0.0);
                ub.push(0.0);
            }
        }
    }
}

impl<'a> Simplex<'a> {
    fn new(lp: &'a StandardLp, cfg: &'a SimplexConfig) -> Self {
        let n = lp.num_vars();
        let m = lp.num_cons();
        // Slack bounds encode the row sense: Ax + s = rhs.
        let mut lb = lp.lb.clone();
        let mut ub = lp.ub.clone();
        push_slack_bounds(lp, &mut lb, &mut ub);
        // Nonbasic starting point: every structural at its bound nearest zero
        // (free variables park at zero).
        let mut x = vec![0.0; n + m];
        let mut state = vec![VarState::FreeAtZero; n + m];
        for j in 0..n {
            let (l, u) = (lb[j], ub[j]);
            if l.is_finite() && (l.abs() <= u.abs() || !u.is_finite()) {
                x[j] = l;
                state[j] = VarState::AtLower;
            } else if u.is_finite() {
                x[j] = u;
                state[j] = VarState::AtUpper;
            } else {
                x[j] = 0.0;
                state[j] = VarState::FreeAtZero;
            }
        }
        // Required slack value per row given the nonbasic point.
        let mut resid = lp.rhs.clone();
        for (i, r) in resid.iter_mut().enumerate() {
            for (j, v) in lp.a.row(i) {
                *r -= v * x[j];
            }
        }
        // Basis: the row's slack where its bounds admit the residual value,
        // otherwise park the slack at the violated (finite) bound and cover
        // the remaining gap with a fresh artificial column.
        let mut basis = vec![usize::MAX; m];
        let mut gaps = Vec::new(); // (row, gap) for rows needing artificials
        for i in 0..m {
            let sj = n + i;
            let clamped = resid[i].clamp(lb[sj], ub[sj]);
            if (clamped - resid[i]).abs() <= cfg.feas_tol {
                x[sj] = resid[i];
                state[sj] = VarState::Basic(i);
                basis[i] = sj;
            } else {
                x[sj] = clamped;
                state[sj] = if clamped == lb[sj] { VarState::AtLower } else { VarState::AtUpper };
                gaps.push((i, resid[i] - clamped));
            }
        }
        let total = n + m + gaps.len();
        lb.resize(total, 0.0);
        ub.resize(total, f64::INFINITY);
        x.resize(total, 0.0);
        state.resize(total, VarState::AtLower);
        let mut art_rows = Vec::with_capacity(gaps.len());
        let mut art_signs = Vec::with_capacity(gaps.len());
        for (k, &(i, gap)) in gaps.iter().enumerate() {
            let j = n + m + k;
            art_rows.push(i);
            art_signs.push(gap.signum());
            x[j] = gap.abs();
            state[j] = VarState::Basic(i);
            basis[i] = j;
        }

        let mut s = Simplex {
            cfg,
            cols: Columns { a: lp.a.to_csc(), n, m, art_rows, art_signs, lp },
            lb,
            ub,
            x,
            state,
            basis,
            etas: EtaFile::new(),
            m,
            iterations: 0,
            refactors: 0,
            degenerate_streak: 0,
            y: vec![0.0; m],
            w: vec![0.0; m],
            d: SparseVec::new(m),
        };
        // One slack or artificial per row: this basis always factors.
        let factored = s.reinvert();
        debug_assert!(factored);
        s
    }

    /// Rebuilds solver state from a recorded basis snapshot against
    /// (possibly mutated) problem data: nonbasic columns land on their
    /// *current* bounds, basic values are recomputed through a fresh
    /// factorization. Returns `None` when the snapshot does not fit the
    /// problem (wrong size, wrong basic count, singular basis) — the caller
    /// then falls back to a cold start.
    fn from_basis(lp: &'a StandardLp, cfg: &'a SimplexConfig, basis: &Basis) -> Option<Self> {
        let n = lp.num_vars();
        let m = lp.num_cons();
        if basis.cols.len() != n + m {
            return None;
        }
        let mut lb = lp.lb.clone();
        let mut ub = lp.ub.clone();
        push_slack_bounds(lp, &mut lb, &mut ub);
        let mut x = vec![0.0; n + m];
        let mut state = vec![VarState::FreeAtZero; n + m];
        let mut basis_vec = Vec::with_capacity(m);
        for j in 0..n + m {
            match basis.cols[j] {
                ColStatus::Basic => {
                    // Position assigned below; value set by refactorize().
                    state[j] = VarState::Basic(basis_vec.len());
                    basis_vec.push(j);
                }
                status => {
                    // Park nonbasic columns on a finite bound, honouring the
                    // recorded side when it still exists under the new data.
                    let prefer_upper = matches!(status, ColStatus::AtUpper);
                    if prefer_upper && ub[j].is_finite() {
                        x[j] = ub[j];
                        state[j] = VarState::AtUpper;
                    } else if lb[j].is_finite() {
                        x[j] = lb[j];
                        state[j] = VarState::AtLower;
                    } else if ub[j].is_finite() {
                        x[j] = ub[j];
                        state[j] = VarState::AtUpper;
                    } else {
                        x[j] = 0.0;
                        state[j] = VarState::FreeAtZero;
                    }
                }
            }
        }
        if basis_vec.len() != m {
            return None;
        }
        let mut s = Simplex {
            cfg,
            cols: Columns {
                a: lp.a.to_csc(),
                n,
                m,
                art_rows: Vec::new(),
                art_signs: Vec::new(),
                lp,
            },
            lb,
            ub,
            x,
            state,
            basis: basis_vec,
            etas: EtaFile::new(),
            m,
            iterations: 0,
            refactors: 0,
            degenerate_streak: 0,
            y: vec![0.0; m],
            w: vec![0.0; m],
            d: SparseVec::new(m),
        };
        if !s.refactorize() {
            return None;
        }
        Some(s)
    }

    /// Records the current basis as a reusable snapshot. Basic artificials
    /// (possible after a degenerate phase 1: they sit at value zero) are
    /// recorded as their row's slack — the slack column spans the same
    /// single row, so the recorded basis stays nonsingular.
    fn snapshot_basis(&self) -> Basis {
        let nm = self.cols.n + self.cols.m;
        let mut cols: Vec<ColStatus> = self.state[..nm]
            .iter()
            .map(|st| match st {
                VarState::Basic(_) => ColStatus::Basic,
                VarState::AtLower => ColStatus::AtLower,
                VarState::AtUpper => ColStatus::AtUpper,
                VarState::FreeAtZero => ColStatus::Free,
            })
            .collect();
        for &j in &self.basis {
            if j >= nm {
                let row = self.cols.art_rows[j - nm];
                cols[self.cols.n + row] = ColStatus::Basic;
            }
        }
        Basis { cols }
    }

    /// `y = B⁻ᵀ c_B` — dual prices for the given basic costs (BTRAN).
    fn compute_duals(&mut self, cost: &dyn Fn(&Self, usize) -> f64) {
        self.y.fill(0.0);
        for pos in 0..self.m {
            let cb = cost(self, self.basis[pos]);
            self.y[self.etas.slot_of[pos]] = cb;
        }
        self.etas.btran(&mut self.y);
    }

    /// `w = B⁻¹ a_j` for the entering column (FTRAN). The slot-indexed
    /// result stays in `d` for the pivot's eta.
    fn compute_direction(&mut self, j: usize) {
        self.d.clear();
        let d = &mut self.d;
        self.cols.for_each_entry(j, |i, v| d.add(i, v));
        self.etas.ftran(&mut self.d);
        for (w, &slot) in self.w.iter_mut().zip(&self.etas.slot_of) {
            *w = self.d.val[slot];
        }
    }

    /// Reinverts the current basis into a fresh eta file and refreshes the
    /// basic variable values. Returns `false` if the basis is numerically
    /// singular.
    fn refactorize(&mut self) -> bool {
        self.refactors += 1;
        if !self.reinvert() {
            return false;
        }
        self.refresh_basic_values();
        true
    }

    /// Writes the eta file of the current basis from scratch. Unit columns
    /// (slacks, artificials) take their own row first; structurals follow
    /// sparsest-first, each FTRANed through the etas so far and pivoted on
    /// its largest entry in a row no earlier column took (partial
    /// pivoting). Returns `false`, keeping the old file, if some column has
    /// no usable pivot.
    fn reinvert(&mut self) -> bool {
        let (n, m) = (self.cols.n, self.m);
        let mut etas = EtaFile::new();
        etas.slot_of = vec![usize::MAX; m];
        let mut taken = vec![false; m];
        let mut structurals = Vec::new();
        for (pos, &j) in self.basis.iter().enumerate() {
            let (row, sign) = if j < n {
                structurals.push((self.cols.a.col(j).count(), pos));
                continue;
            } else if j < n + m {
                (j - n, 1.0)
            } else {
                let k = j - n - m;
                (self.cols.art_rows[k], self.cols.art_signs[k])
            };
            if taken[row] {
                return false;
            }
            taken[row] = true;
            etas.slot_of[pos] = row;
            if sign != 1.0 {
                etas.push_unit(row, sign);
            }
            etas.fresh_nnz += 1;
        }
        structurals.sort_unstable();
        let d = &mut self.d;
        for (_, pos) in structurals {
            d.clear();
            self.cols.for_each_entry(self.basis[pos], |i, v| d.add(i, v));
            etas.ftran(d);
            let mut best: Option<(usize, f64)> = None;
            for &i in &d.nz {
                let v = d.val[i].abs();
                if !taken[i] && best.is_none_or(|(_, b)| v > b) {
                    best = Some((i, v));
                }
            }
            let Some((row, _)) = best.filter(|&(_, v)| v >= SINGULAR_TOL) else {
                return false;
            };
            taken[row] = true;
            etas.slot_of[pos] = row;
            etas.fresh_nnz += etas.push(row, d);
        }
        self.etas = etas;
        true
    }

    /// Recomputes basic values `x_B = B⁻¹ (rhs - N x_N)` from scratch.
    fn refresh_basic_values(&mut self) {
        let d = &mut self.d;
        d.clear();
        for (i, &r) in self.cols.lp.rhs.iter().enumerate() {
            if r != 0.0 {
                d.add(i, r);
            }
        }
        for j in 0..self.cols.total() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            self.cols.for_each_entry(j, |i, v| d.add(i, -v * xj));
        }
        self.etas.ftran(d);
        for (pos, &slot) in self.etas.slot_of.iter().enumerate() {
            self.x[self.basis[pos]] = d.val[slot];
        }
    }

    /// Total bound violation of basic variables (phase-1 objective).
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for &j in &self.basis {
            let v = self.x[j];
            if v < self.lb[j] {
                total += self.lb[j] - v;
            } else if v > self.ub[j] {
                total += v - self.ub[j];
            }
        }
        total
    }

    /// Runs one simplex phase to optimality under the supplied cost
    /// function. `cost(j)` must be cheap; it is called during pricing.
    fn run_phase(&mut self, cost: &dyn Fn(&Self, usize) -> f64, max_iters: usize) -> PhaseEnd {
        loop {
            if self.iterations >= max_iters {
                return PhaseEnd::IterLimit;
            }
            self.iterations += 1;
            if self.etas.outgrown() && !self.refactorize() {
                return PhaseEnd::Stalled;
            }
            self.compute_duals(cost);
            let use_bland = self.degenerate_streak >= self.cfg.degenerate_before_bland;
            // --- Pricing: pick the entering column. ---
            let mut enter: Option<(usize, f64, f64)> = None; // (col, reduced cost, score)
            for j in 0..self.cols.total() {
                let st = self.state[j];
                if matches!(st, VarState::Basic(_)) {
                    continue;
                }
                if self.ub[j] - self.lb[j] <= self.cfg.feas_tol && self.ub[j].is_finite() {
                    continue; // fixed column can never improve
                }
                let d = cost(self, j) - self.cols.dot_with(j, &self.y);
                let score = match st {
                    VarState::AtLower if d < -self.cfg.opt_tol => -d,
                    VarState::AtUpper if d > self.cfg.opt_tol => d,
                    VarState::FreeAtZero if d.abs() > self.cfg.opt_tol => d.abs(),
                    _ => continue,
                };
                if use_bland {
                    enter = Some((j, d, score));
                    break;
                }
                if enter.is_none_or(|(_, _, s)| score > s) {
                    enter = Some((j, d, score));
                }
            }
            let Some((j_enter, d_enter, _)) = enter else {
                return PhaseEnd::Optimal;
            };
            // Direction: increasing if at lower bound (or free with d<0).
            let sigma = match self.state[j_enter] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::FreeAtZero => {
                    if d_enter < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                // Basic columns are skipped during pricing; seeing one here
                // means the state bookkeeping is corrupt. Surface it as a
                // recorded solver failure instead of tearing the process down.
                VarState::Basic(_) => return PhaseEnd::Stalled,
            };
            self.compute_direction(j_enter);
            // --- Ratio test. ---
            // Entering variable's own range allows a bound flip.
            let own_range = self.ub[j_enter] - self.lb[j_enter];
            let mut t_max = if own_range.is_finite() { own_range } else { f64::INFINITY };
            let mut leave: Option<(usize, bool)> = None; // (basis pos, hits_upper)
            for pos in 0..self.m {
                let wj = sigma * self.w[pos];
                let bj = self.basis[pos];
                let xb = self.x[bj];
                if wj > self.cfg.pivot_tol {
                    // Basic value decreases toward its lower bound.
                    if self.lb[bj].is_finite() {
                        let t = (xb - self.lb[bj]) / wj;
                        if t < t_max {
                            t_max = t;
                            leave = Some((pos, false));
                        }
                    }
                } else if wj < -self.cfg.pivot_tol {
                    // Basic value increases toward its upper bound.
                    if self.ub[bj].is_finite() {
                        let t = (self.ub[bj] - xb) / (-wj);
                        if t < t_max {
                            t_max = t;
                            leave = Some((pos, true));
                        }
                    }
                }
            }
            if t_max.is_infinite() {
                return PhaseEnd::Unbounded;
            }
            let t = t_max.max(0.0);
            self.degenerate_streak =
                if t <= self.cfg.feas_tol { self.degenerate_streak + 1 } else { 0 };
            // --- Apply the step. ---
            for pos in 0..self.m {
                let bj = self.basis[pos];
                self.x[bj] -= sigma * t * self.w[pos];
            }
            match leave {
                None => {
                    // Bound flip: entering variable crosses to its other bound.
                    self.x[j_enter] += sigma * t;
                    self.state[j_enter] = match self.state[j_enter] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        other => other,
                    };
                }
                Some((pos, hits_upper)) => {
                    let piv = self.w[pos];
                    if piv.abs() < self.cfg.pivot_tol {
                        // Numerically unusable pivot: refactorize and retry.
                        if !self.refactorize() {
                            return PhaseEnd::Stalled;
                        }
                        continue;
                    }
                    let j_leave = self.basis[pos];
                    // Entering becomes basic at its new value.
                    self.x[j_enter] += sigma * t;
                    self.state[j_enter] = VarState::Basic(pos);
                    // Leaving variable lands exactly on a bound.
                    self.x[j_leave] = if hits_upper { self.ub[j_leave] } else { self.lb[j_leave] };
                    self.state[j_leave] =
                        if hits_upper { VarState::AtUpper } else { VarState::AtLower };
                    self.basis[pos] = j_enter;
                    // The entering column takes over the leaving one's slot.
                    let nnz = self.etas.push(self.etas.slot_of[pos], &self.d);
                    self.etas.update_nnz += nnz;
                }
            }
        }
    }
}

/// Solves a standard-form LP with the two-phase simplex method.
///
/// Rows are equilibrated (scaled by their infinity norm) before solving so
/// that formulations mixing very large and very small coefficients (e.g.
/// CVaR rows with `1/(1-β)` weights) stay numerically stable; duals are
/// mapped back to the caller's row scaling.
pub fn solve(lp: &StandardLp, cfg: &SimplexConfig) -> Solution {
    solve_warm(lp, cfg, None)
}

/// [`solve`] with an optional starting basis from a previous solve of a
/// structurally identical LP (bounds and right-hand sides may differ).
///
/// A fitting, feasible basis skips phase 1 entirely and typically finishes
/// in a handful of phase-2 pivots; anything else (wrong dimensions,
/// singular after the data change, primal infeasible under the new
/// bounds) is reported as [`WarmEvent::Miss`] and solved cold.
pub fn solve_warm(lp: &StandardLp, cfg: &SimplexConfig, warm: Option<&Basis>) -> Solution {
    // Row equilibration. Scaling rows does not change which columns form a
    // nonsingular basis, so the warm basis passes through unchanged.
    let row_norms = lp.a.row_inf_norms();
    let needs_scaling = row_norms.iter().any(|&v| v > 0.0 && !(1e-3..=1e3).contains(&v));
    if needs_scaling {
        let scale: Vec<f64> =
            row_norms.iter().map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 }).collect();
        let mut scaled = lp.clone();
        let ones = vec![1.0; lp.num_vars()];
        scaled.a.scale(&scale, &ones);
        for (r, s) in scaled.rhs.iter_mut().zip(&scale) {
            *r *= s;
        }
        let mut sol = solve_unscaled(&scaled, cfg, warm);
        for (d, s) in sol.duals.iter_mut().zip(&scale) {
            *d *= s;
        }
        return sol;
    }
    solve_unscaled(lp, cfg, warm)
}

fn solve_unscaled(lp: &StandardLp, cfg: &SimplexConfig, warm: Option<&Basis>) -> Solution {
    let n = lp.num_vars();
    let m = lp.num_cons();
    let max_iters = if cfg.max_iters == 0 { 200 + 20 * (n + m) } else { cfg.max_iters };

    // Trivial case: no constraints — each variable sits at its best bound.
    if m == 0 {
        let mut x = vec![0.0; n];
        for (j, xj) in x.iter_mut().enumerate().take(n) {
            let c = lp.obj[j];
            *xj = if c > 0.0 {
                lp.lb[j]
            } else if c < 0.0 {
                lp.ub[j]
            } else if lp.lb[j].is_finite() {
                lp.lb[j]
            } else {
                lp.ub[j].min(0.0).max(lp.lb[j])
            };
            if !xj.is_finite() {
                return Solution::failed(Status::Unbounded, n, m);
            }
        }
        let obj: f64 = lp.obj_offset + x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
        return Solution {
            status: Status::Optimal,
            x,
            objective: lp.user_objective(obj),
            duals: vec![],
            basis: None,
            stats: base_stats(lp),
        };
    }

    // Warm path: reinstall the basis against the new data; accept it only
    // when it comes up primal feasible (phase 1 cannot repair an
    // artificial-free start, so feasibility is the admission ticket).
    if let Some(basis) = warm {
        if let Some(s) = Simplex::from_basis(lp, cfg, basis) {
            let rhs_max = lp.rhs.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            if s.infeasibility() <= cfg.feas_tol * (1.0 + rhs_max) {
                let mut sol = solve_prepared(lp, cfg, s, max_iters);
                // Numerical trouble from a warm basis is recoverable: retry
                // cold rather than surfacing the failure.
                if sol.status != Status::NumericalTrouble {
                    sol.stats.warm = WarmEvent::Hit;
                    return sol;
                }
            }
        }
        let mut sol = solve_prepared(lp, cfg, Simplex::new(lp, cfg), max_iters);
        sol.stats.warm = WarmEvent::Miss;
        return sol;
    }
    solve_prepared(lp, cfg, Simplex::new(lp, cfg), max_iters)
}

/// Baseline stats describing the problem; counters are filled by the solve.
fn base_stats(lp: &StandardLp) -> SolveStats {
    SolveStats {
        rows: lp.num_cons(),
        cols: lp.num_vars(),
        nnz: lp.a.nnz(),
        backend: BackendKind::Simplex,
        ..SolveStats::default()
    }
}

/// Runs both phases on an already-constructed solver state and extracts the
/// solution. Phase 1 runs only when the starting point is infeasible or
/// carries artificial columns (a feasible warm basis skips it entirely).
fn solve_prepared<'a>(
    lp: &'a StandardLp,
    cfg: &'a SimplexConfig,
    mut s: Simplex<'a>,
    max_iters: usize,
) -> Solution {
    let n = lp.num_vars();
    let m = lp.num_cons();
    // Phase 1: minimize total infeasibility via artificial costs plus
    // penalties on any basic variable that starts outside its bounds.
    if s.infeasibility() > cfg.feas_tol || !s.cols.art_rows.is_empty() {
        let phase1_cost = |s: &Simplex, j: usize| -> f64 {
            if j >= s.cols.n + s.cols.m {
                1.0
            } else {
                0.0
            }
        };
        match s.run_phase(&phase1_cost, max_iters) {
            PhaseEnd::Optimal => {}
            PhaseEnd::Unbounded => {
                // Phase-1 objective is bounded below by zero; an "unbounded"
                // report here is numerical noise. Treat as stalled.
                return Solution::failed(Status::NumericalTrouble, n, m);
            }
            PhaseEnd::IterLimit => return Solution::failed(Status::IterationLimit, n, m),
            PhaseEnd::Stalled => return Solution::failed(Status::NumericalTrouble, n, m),
        }
        let art_total: f64 = (0..s.cols.art_rows.len()).map(|k| s.x[s.cols.n + s.cols.m + k]).sum();
        if art_total
            > cfg.feas_tol * 10.0 * (1.0 + lp.rhs.iter().map(|r| r.abs()).fold(0.0, f64::max))
        {
            return Solution::failed(Status::Infeasible, n, m);
        }
        // Pin artificials to zero for phase 2.
        for k in 0..s.cols.art_rows.len() {
            let j = s.cols.n + s.cols.m + k;
            s.lb[j] = 0.0;
            s.ub[j] = 0.0;
            if !matches!(s.state[j], VarState::Basic(_)) {
                s.x[j] = 0.0;
                s.state[j] = VarState::AtLower;
            }
        }
    }

    // Phase 2: the real objective (structural columns only).
    let phase2_cost = |s: &Simplex, j: usize| -> f64 {
        if j < s.cols.n {
            s.cols.lp.obj[j]
        } else {
            0.0
        }
    };
    let end = s.run_phase(&phase2_cost, max_iters);
    let status = match end {
        PhaseEnd::Optimal => Status::Optimal,
        PhaseEnd::Unbounded => Status::Unbounded,
        PhaseEnd::IterLimit => Status::IterationLimit,
        PhaseEnd::Stalled => Status::NumericalTrouble,
    };
    if !matches!(status, Status::Optimal) {
        // On an iteration limit the current (feasible) iterate is still a
        // meaningful answer; other failures return no point.
        let mut sol = if matches!(status, Status::IterationLimit) {
            let x: Vec<f64> = s.x[..n].to_vec();
            let min_obj: f64 =
                lp.obj_offset + x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
            Solution {
                status,
                objective: lp.user_objective(min_obj),
                x,
                duals: Vec::new(),
                basis: None,
                stats: base_stats(lp),
            }
        } else {
            Solution::failed(status, n, m)
        };
        sol.stats.iterations = s.iterations;
        sol.stats.refactors = s.refactors;
        sol.stats.backend = BackendKind::Simplex;
        sol.stats.rows = m;
        sol.stats.cols = n;
        sol.stats.nnz = lp.a.nnz();
        return sol;
    }
    // Final cleanup: refresh values through one refactorization for accuracy.
    s.refactorize();
    s.compute_duals(&phase2_cost);
    let x: Vec<f64> = s.x[..n].to_vec();
    let min_obj: f64 = lp.obj_offset + x.iter().zip(&lp.obj).map(|(a, b)| a * b).sum::<f64>();
    Solution {
        status: Status::Optimal,
        objective: lp.user_objective(min_obj),
        duals: s.y.iter().map(|&v| lp.obj_sign * v).collect(),
        basis: Some(s.snapshot_basis()),
        x,
        stats: SolveStats { iterations: s.iterations, refactors: s.refactors, ..base_stats(lp) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Objective, Sense, INF};

    fn solve_model(m: &Model) -> Solution {
        solve(&m.to_standard(), &SimplexConfig::default())
    }

    #[test]
    fn textbook_max_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => obj 36 at (2,6)
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0, "c1");
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0, "c2");
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0, "c3");
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 2 => x=6, y=4, obj 10
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 10.0, "sum");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, -1.0), Sense::Eq, 2.0, "diff");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[0] - 6.0).abs() < 1e-6);
        assert!((s.x[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 => obj 20 at (10, 0)
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Ge, 10.0, "c1");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 2.0, "c2");
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 3.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, 5.0, "c");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        assert_eq!(solve_model(&m).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        m.add_con(LinExpr::term(x, -1.0), Sense::Le, 0.0, "noop");
        assert_eq!(solve_model(&m).status, Status::Unbounded);
    }

    #[test]
    fn upper_bounded_variables_flip() {
        // max x + y, x <= 3 (bound), y <= 2 (bound), x + y <= 4
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0, "x");
        let y = m.add_var(0.0, 2.0, "y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 4.0, "cap");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn free_variables() {
        // min x s.t. x >= -5 (via constraint, variable itself free)
        let mut m = Model::new();
        let x = m.add_var(-INF, INF, "x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Ge, -5.0, "c");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_equalities() {
        // x + y = -3 with free vars; min x^2-ish proxy: min x - y
        let mut m = Model::new();
        let x = m.add_var(-10.0, 10.0, "x");
        let y = m.add_var(-10.0, 10.0, "y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, -3.0, "c");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, -1.0), Objective::Minimize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        // Optimal pushes x to -10, y to 7.
        assert!((s.x[0] + 10.0).abs() < 1e-6);
        assert!((s.x[1] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn duals_satisfy_complementary_slackness() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 10.0, "tight");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 100.0, "loose");
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        // Loose constraint must have zero dual.
        assert!(s.duals[1].abs() < 1e-6, "duals {:?}", s.duals);
        // Tight constraint dual equals marginal value 2.
        assert!((s.duals[0] - 2.0).abs() < 1e-6, "duals {:?}", s.duals);
    }

    #[test]
    fn warm_restart_on_same_lp_hits_and_matches() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 4.0, "c1");
        m.add_con(LinExpr::term(y, 2.0), Sense::Le, 12.0, "c2");
        m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0, "c3");
        m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
        let lp = m.to_standard();
        let cold = solve(&lp, &SimplexConfig::default());
        assert_eq!(cold.status, Status::Optimal);
        let basis = cold.basis.clone().expect("optimal solve records a basis");
        assert_eq!(basis.num_basic(), lp.num_cons());
        let warm = solve_warm(&lp, &SimplexConfig::default(), Some(&basis));
        assert_eq!(warm.status, Status::Optimal);
        assert_eq!(warm.stats.warm, crate::warm::WarmEvent::Hit);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        // An optimal starting basis needs no pivots beyond the optimality
        // check, so warm iterations must not exceed the cold count.
        assert!(warm.stats.iterations <= cold.stats.iterations);
    }

    #[test]
    fn warm_survives_bound_and_rhs_changes() {
        // Perturb demand-like bounds and rhs between solves: the basis
        // snapshot is data-independent, so it should still warm-start.
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, "x");
        let y = m.add_var(0.0, 7.0, "y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 9.0, "cap");
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        let basis = solve(&m.to_standard(), &SimplexConfig::default()).basis.expect("basis");
        let mut m2 = m.clone();
        m2.set_bounds(x, 0.0, 6.0);
        let c = crate::model::ConId(0);
        m2.set_rhs(c, 10.0);
        let warm = solve_warm(&m2.to_standard(), &SimplexConfig::default(), Some(&basis));
        let cold = solve(&m2.to_standard(), &SimplexConfig::default());
        assert_eq!(warm.status, Status::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn mismatched_warm_basis_is_a_miss_not_a_failure() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, 3.0, "c");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let bogus = crate::warm::Basis { cols: vec![crate::warm::ColStatus::Basic; 7] };
        let s = solve_warm(&m.to_standard(), &SimplexConfig::default(), Some(&bogus));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_warm_basis_falls_back_cold() {
        // Shrink a bound so the recorded BASIC variable's recomputed value
        // lands outside its box: the warm install must reject and re-solve
        // cold (phase 1 cannot repair an artificial-free infeasible start).
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Eq, 8.0, "sum");
        m.set_objective(LinExpr::term(y, 1.0), Objective::Maximize);
        let cold = solve(&m.to_standard(), &SimplexConfig::default());
        assert!((cold.x[1] - 8.0).abs() < 1e-9); // y basic at 8
        let basis = cold.basis.expect("basis");
        let mut m2 = m.clone();
        m2.set_bounds(y, 0.0, 5.0); // basic y recomputes to 8 > ub 5
        let s = solve_warm(&m2.to_standard(), &SimplexConfig::default(), Some(&basis));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 5.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_warm_basis_is_a_miss_with_the_cold_optimum() {
        // x and y have the same column, so a basis holding both has the
        // right basic count but is singular: the reinversion must reject it.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 4.0, "c1");
        m.add_con(LinExpr::new().add(x, 2.0).add(y, 2.0), Sense::Le, 10.0, "c2");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 2.0), Objective::Maximize);
        let lp = m.to_standard();
        use crate::warm::ColStatus::{AtLower, Basic};
        let dependent = crate::warm::Basis { cols: vec![Basic, Basic, AtLower, AtLower] };
        assert_eq!(dependent.num_basic(), lp.num_cons());
        let s = solve_warm(&lp, &SimplexConfig::default(), Some(&dependent));
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Miss);
        assert!((s.objective - 8.0).abs() < 1e-9, "obj {}", s.objective);
        assert!((s.x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dense_lp_rebuilds_the_factorization_and_stays_exact() {
        // max Σx s.t. Σx + x_i <= n + 1 for every i: summing the rows gives
        // (n + 1) Σx <= n (n + 1), so the optimum is n at x = 1. Every
        // entering column is dense, so the pivots' etas outgrow the
        // reinversion after a few pivots and the basis is rebuilt mid-solve.
        let n = 12;
        let mut m = Model::new();
        let xs: Vec<_> = (0..n).map(|i| m.add_nonneg(format!("x{i}"))).collect();
        for (i, &xi) in xs.iter().enumerate() {
            let mut row = LinExpr::new();
            for &xj in &xs {
                row = row.add(xj, if xj == xi { 2.0 } else { 1.0 });
            }
            m.add_con(row, Sense::Le, (n + 1) as f64, format!("r{i}"));
        }
        let mut obj = LinExpr::new();
        for &xj in &xs {
            obj = obj.add(xj, 1.0);
        }
        m.set_objective(obj, Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - n as f64).abs() < 1e-9, "obj {}", s.objective);
        for (j, v) in s.x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-9, "x{j} = {v}");
        }
        // One rebuild is the final clean-up; the rest happened mid-solve.
        assert!(s.stats.refactors >= 3, "refactors {}", s.stats.refactors);
    }

    #[test]
    fn reinversion_solves_both_basis_systems() {
        // A basis mixing structurals and slacks: FTRAN of every basic column
        // must give its unit vector, and BTRAN must price basic columns at
        // their cost.
        let mut m = Model::new();
        let v: Vec<_> = (0..4).map(|i| m.add_nonneg(format!("v{i}"))).collect();
        let rows: [&[(usize, f64)]; 4] = [
            &[(0, 2.0), (1, 1.0)],
            &[(0, 1.0), (1, 3.0), (2, 1.0)],
            &[(1, 1.0), (2, 4.0), (3, 2.0)],
            &[(2, 1.0), (3, 5.0)],
        ];
        for (i, row) in rows.iter().enumerate() {
            let e = row.iter().fold(LinExpr::new(), |e, &(j, a)| e.add(v[j], a));
            m.add_con(e, Sense::Le, 10.0, format!("r{i}"));
        }
        m.set_objective(LinExpr::new().add(v[0], 1.0).add(v[2], 3.0), Objective::Minimize);
        let lp = m.to_standard();
        use crate::warm::ColStatus::{AtLower, Basic};
        // v0, v2, v3 basic plus row 1's slack (column 4 + 1).
        let cols = vec![Basic, AtLower, Basic, Basic, AtLower, Basic, AtLower, AtLower];
        let cfg = SimplexConfig::default();
        let mut s = Simplex::from_basis(&lp, &cfg, &crate::warm::Basis { cols }).expect("fits");
        for pos in 0..s.m {
            s.compute_direction(s.basis[pos]);
            for (k, &wk) in s.w.iter().enumerate() {
                let want = if k == pos { 1.0 } else { 0.0 };
                assert!((wk - want).abs() < 1e-12, "B⁻¹a at position {pos}: w = {:?}", s.w);
            }
        }
        let cost = |s: &Simplex, j: usize| if j < s.cols.n { s.cols.lp.obj[j] } else { 0.0 };
        s.compute_duals(&cost);
        for &j in &s.basis.clone() {
            let priced = s.cols.dot_with(j, &s.y);
            assert!((priced - cost(&s, j)).abs() < 1e-12, "column {j}: {priced}");
        }
    }

    #[test]
    fn stats_report_problem_shape() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 5.0, "c");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.stats.rows, 1);
        assert_eq!(s.stats.cols, 2);
        assert_eq!(s.stats.nnz, 2);
        assert_eq!(s.stats.backend, crate::warm::BackendKind::Simplex);
        assert_eq!(s.stats.warm, crate::warm::WarmEvent::Cold);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints intersecting at the same vertex.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        for i in 0..20 {
            m.add_con(
                LinExpr::new().add(x, 1.0 + (i as f64) * 1e-9).add(y, 1.0),
                Sense::Le,
                1.0,
                format!("c{i}"),
            );
        }
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let s = solve_model(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-5);
    }
}
