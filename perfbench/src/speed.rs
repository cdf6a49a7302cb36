//! Machine-speed reference for the end-to-end times.
//!
//! The reference box shares its cores with other tenants: over 20-s
//! windows a fixed kernel's time moved by up to ±20%, and the benchmark's
//! own operations moved with it, while their ratio to the kernel taken
//! just before each stayed within ±4%. So every untraced run times this
//! fixed kernel right before its operations and scales each operation's
//! time to the speed at which the kernel takes [`NOMINAL_S`]:
//! `reported = measured × NOMINAL_S / kernel`, with `kernel` the median of
//! the most recent kernel samples. The measured values are printed beside
//! the scaled ones.
//!
//! The offline stage runs on every worker thread, and the box's cores do
//! not slow down together: in one 4-min stretch the two-thread
//! `ArrowController::new` ran 60% slower against the one-thread kernel
//! than in the minutes before. So the millisecond offline stages are
//! scaled by the same kernel run once on each worker thread at the same
//! time ([`Speed::sample_parallel`]), which waits for the slowest core as
//! they do.

use std::time::Instant;

/// Kernel seconds on the reference box in a quiet phase; the speed that
/// reported times are scaled to.
pub const NOMINAL_S: f64 = 0.005;

const ROWS: usize = 20_000;
const PER_ROW: usize = 8;
const SWEEPS: usize = 20;

/// The reference kernel and the times it took in this run.
pub struct Speed {
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// One `(x, y)` pair of work vectors per worker thread.
    work: Vec<(Vec<f64>, Vec<f64>)>,
    samples: Vec<f64>,
    parallel_samples: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        // A fixed pseudo-random sparse matrix (xorshift), so every run
        // times the same work.
        let mut s = 0x2545_F491_4F6C_DD1D_u64;
        let (mut cols, mut vals) =
            (Vec::with_capacity(ROWS * PER_ROW), Vec::with_capacity(ROWS * PER_ROW));
        for _ in 0..ROWS * PER_ROW {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            cols.push((s % ROWS as u64) as usize);
            vals.push(((s >> 11) % 1000) as f64 / 1000.0);
        }
        let threads = arrow_wan::core::default_threads().max(1);
        Speed {
            cols,
            vals,
            work: vec![(vec![1.0; ROWS], vec![0.0; ROWS]); threads],
            samples: Vec::new(),
            parallel_samples: Vec::new(),
        }
    }
}

/// Sparse matrix-vector sweeps with normalisation, a few milliseconds of
/// the same kind of work as the LP solvers.
fn kernel(cols: &[usize], vals: &[f64], x: &mut [f64], y: &mut [f64]) {
    x.fill(1.0);
    for _ in 0..SWEEPS {
        for (r, y) in y.iter_mut().enumerate() {
            let row = r * PER_ROW..(r + 1) * PER_ROW;
            *y = vals[row.clone()].iter().zip(&cols[row]).map(|(v, &c)| v * x[c]).sum();
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        for (x, y) in x.iter_mut().zip(y.iter()) {
            *x = y / norm;
        }
    }
    std::hint::black_box(x);
}

/// `NOMINAL_S` over the median of the last `n` of `samples`, 1 before any
/// sample.
fn factor(samples: &[f64], n: usize) -> f64 {
    let m = crate::stats::median(&samples[samples.len().saturating_sub(n)..]);
    if m > 0.0 {
        NOMINAL_S / m
    } else {
        1.0
    }
}

impl Speed {
    /// Times one run of the kernel on the calling thread.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let (x, y) = &mut self.work[0];
        kernel(&self.cols, &self.vals, x, y);
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Times one run of the kernel on each worker thread at once, until
    /// the last one ends.
    pub fn sample_parallel(&mut self) {
        let (cols, vals) = (&self.cols, &self.vals);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for (x, y) in &mut self.work {
                scope.spawn(move || kernel(cols, vals, x, y));
            }
        });
        self.parallel_samples.push(t.elapsed().as_secs_f64());
    }

    /// `NOMINAL_S` over the median of the last `n` kernel samples: above 1
    /// while the machine runs faster than the nominal speed. 1 before any
    /// sample.
    pub fn recent_factor(&self, n: usize) -> f64 {
        factor(&self.samples, n)
    }

    /// [`Speed::recent_factor`] over the last `n` parallel samples, for
    /// operations that run on every worker thread.
    pub fn recent_parallel_factor(&self, n: usize) -> f64 {
        factor(&self.parallel_samples, n)
    }

    /// Median kernel seconds over this run, 0 before any sample.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

/// Timed samples, each with the speed factor in force when it was taken.
#[derive(Debug, Default)]
pub struct Timed {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timed {
    /// Records `seconds` measured while `factor` was in force.
    pub fn push(&mut self, seconds: f64, factor: f64) {
        self.raw.push(seconds);
        self.scaled.push(seconds * factor);
    }

    /// The samples as measured.
    pub fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The samples scaled to the nominal speed.
    pub fn scaled(&self) -> &[f64] {
        &self.scaled
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}
