//! Large 1D FFTs via the four-step (Bailey) decomposition — the
//! natural extension of the paper's machinery to one dimension, where
//! its predecessor work (paper ref \[20\]) operated.
//!
//! For `N = n1·n2`, the Cooley–Tukey factorization
//!
//! ```text
//! DFT_N = (DFT_{n1} ⊗ I_{n2}) · D_{n1,n2} · (I_{n1} ⊗ DFT_{n2}) · L^N_{n1}
//! ```
//!
//! maps onto the double-buffered stage architecture as
//!
//! * **stage D** (decimation): pure data movement implementing the
//!   input permutation `L` — element-granular writes, the honest cost
//!   of 1D's extra reshuffle (skippable if the caller provides
//!   decimated input);
//! * **stage 1**: contiguous rows of `n2`, batched `DFT_{n2}`, the
//!   twiddle diagonal `D` folded into the compute task, blocked
//!   transpose on the store;
//! * **stage 2**: `DFT_{n1} ⊗ I_μ` lane pencils, blocked transpose
//!   back to natural order.
//!
//! Three round trips for a natural-order 1D FFT versus two for a 2D of
//! the same volume — the known bandwidth premium of large 1D
//! transforms.

use crate::error::CoreError;
use crate::exec_real::{run_stages, stage_callbacks};
use crate::exec_sim::{simulate_generic_stage, GenericStage, SimOptions, StageCost};
use crate::metrics;
use crate::plan::PlanError;
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::twiddle::FourStepTwiddles;
use bwfft_kernels::Direction;
use bwfft_machine::spec::MachineSpec;
use bwfft_machine::stats::PerfReport;
use bwfft_num::{Complex64, MU};
use bwfft_pipeline::exec::{ComputeFn, PipelineConfig};
use bwfft_pipeline::{run_pipeline, DoubleBuffer};
use bwfft_spl::gather_scatter::StagePerm;
use bwfft_spl::PermOp;

/// Plan for a large 1D FFT of `n1 · n2` points.
#[derive(Clone, Debug)]
pub struct Fft1dLargePlan {
    pub n1: usize,
    pub n2: usize,
    pub mu: usize,
    pub b: usize,
    pub p_d: usize,
    pub p_c: usize,
    pub dir: Direction,
    /// Include the decimation stage (natural-order input). With
    /// `false`, input must already be `L`-decimated: element `x[i·n1+j]`
    /// at position `j·n2 + i`.
    pub decimate_input: bool,
}

impl Fft1dLargePlan {
    pub fn new(n1: usize, n2: usize) -> Self {
        Self {
            n1,
            n2,
            mu: MU,
            b: 0,
            p_d: 1,
            p_c: 1,
            dir: Direction::Forward,
            decimate_input: true,
        }
    }

    pub fn buffer_elems(mut self, b: usize) -> Self {
        self.b = b;
        self
    }

    pub fn threads(mut self, p_d: usize, p_c: usize) -> Self {
        self.p_d = p_d;
        self.p_c = p_c;
        self
    }

    pub fn direction(mut self, dir: Direction) -> Self {
        self.dir = dir;
        self
    }

    pub fn decimated_input(mut self) -> Self {
        self.decimate_input = false;
        self
    }

    pub fn total(&self) -> usize {
        self.n1 * self.n2
    }

    fn validated_b(&self) -> Result<usize, PlanError> {
        let total = self.total();
        let min = self.n2.max(self.n1 * self.mu);
        let b = if self.b == 0 {
            (total / 8).max(min)
        } else {
            self.b
        };
        if self.p_d == 0 || self.p_c == 0 {
            return Err(PlanError::ThreadCount(
                "need at least one data and one compute thread",
            ));
        }
        if !bwfft_num::is_pow2(self.n1) {
            return Err(PlanError::NotPow2("n1", self.n1));
        }
        if !bwfft_num::is_pow2(self.n2) {
            return Err(PlanError::NotPow2("n2", self.n2));
        }
        if !self.n2.is_multiple_of(self.mu) {
            return Err(PlanError::BufferNotDividing {
                b: self.n2,
                constraint: "mu divides n2",
                value: self.mu,
            });
        }
        if b < min {
            return Err(PlanError::BufferTooSmall { needed: min, got: b });
        }
        if !total.is_multiple_of(b) {
            return Err(PlanError::BufferNotDividing {
                b,
                constraint: "b divides N",
                value: total,
            });
        }
        if b % self.n2 != 0 {
            return Err(PlanError::BufferNotDividing {
                b,
                constraint: "n2 divides b",
                value: self.n2,
            });
        }
        if b % (self.n1 * self.mu) != 0 {
            return Err(PlanError::BufferNotDividing {
                b,
                constraint: "n1*mu divides b",
                value: self.n1 * self.mu,
            });
        }
        Ok(b)
    }

    /// The three (or two) stage permutations.
    pub fn stage_perms(&self) -> Vec<StagePerm> {
        let (n1, n2, mu) = (self.n1, self.n2, self.mu);
        let mut perms = Vec::new();
        if self.decimate_input {
            perms.push(StagePerm::Single(PermOp::L { rows: n2, cols: n1 }));
        }
        perms.push(StagePerm::Single(PermOp::BlockedL {
            rows: n1,
            cols: n2 / mu,
            blk: mu,
        }));
        perms.push(StagePerm::Single(PermOp::BlockedL {
            rows: n2 / mu,
            cols: n1,
            blk: mu,
        }));
        perms
    }
}

/// Executes the plan: `data` is transformed in place; `work` is a
/// same-sized scratch array.
pub fn execute(
    plan: &Fft1dLargePlan,
    data: &mut [Complex64],
    work: &mut [Complex64],
) -> Result<(), CoreError> {
    let total = plan.total();
    if data.len() != total {
        return Err(CoreError::InputLength {
            what: "data",
            expected: total,
            got: data.len(),
        });
    }
    if work.len() != total {
        return Err(CoreError::InputLength {
            what: "work",
            expected: total,
            got: work.len(),
        });
    }
    let b = plan.validated_b()?;
    let perms = plan.stage_perms();
    let buffer = DoubleBuffer::new(b);
    let (n1, n2, mu, dir) = (plan.n1, plan.n2, plan.mu, plan.dir);
    // Stage 1's diagonal over the `n1 × n2` row-major layout.
    let twiddles = &FourStepTwiddles::try_new(n1, n2, dir)?;
    run_stages(data, work, perms.len(), |s, src, dst| {
        // 0 = decimation, 1 = rows + twiddle, 2 = lanes.
        let stage_kind = if plan.decimate_input { s } else { s + 1 };
        let kernel = || -> ComputeFn<'_> {
            match stage_kind {
                // Decimation stage: pure data movement.
                0 => Box::new(|_blk: usize, _off: usize, _share: &mut [Complex64]| {}),
                1 => {
                    let mut fft = BatchFft::new(n2, 1, dir);
                    Box::new(move |blk: usize, off: usize, share: &mut [Complex64]| {
                        fft.run(share);
                        // Fold in the Cooley–Tukey twiddle diagonal; a
                        // share is whole rows (`compute_unit = n2`).
                        let row0 = (blk * b + off) / n2;
                        for (i, row) in share.chunks_mut(n2).enumerate() {
                            twiddles.apply_row(row0 + i, row);
                        }
                    })
                }
                _ => {
                    let mut fft = BatchFft::new(n1, mu, dir);
                    Box::new(move |_blk: usize, _off: usize, share: &mut [Complex64]| {
                        fft.run(share)
                    })
                }
            }
        };
        let callbacks = stage_callbacks(src, dst, b, perms[s], true, (plan.p_d, plan.p_c), kernel);
        let cfg = PipelineConfig {
            iters: total / b,
            load_unit: mu.min(b),
            compute_unit: [mu, n2, n1 * mu][stage_kind],
            ..PipelineConfig::default()
        };
        run_pipeline(&buffer, &cfg, callbacks).map(drop)
    })?;
    Ok(())
}

/// Simulates the four-step 1D FFT on a machine preset.
pub fn simulate_fft1d(
    plan: &Fft1dLargePlan,
    spec: &MachineSpec,
    opts: &SimOptions,
) -> Result<(PerfReport, Vec<StageCost>), CoreError> {
    let total = plan.total();
    let b = plan.validated_b()?;
    let mut stage_costs = Vec::new();
    let mut total_ns = 0.0;
    let mut dram = 0.0;
    for (s, perm) in plan.stage_perms().iter().enumerate() {
        let stage_kind = if plan.decimate_input { s } else { s + 1 };
        let flops = match stage_kind {
            0 => 0.0,
            // Row FFTs plus ~6 flops per element for the twiddle.
            1 => 5.0 * b as f64 * (plan.n2.max(2) as f64).log2() + 6.0 * b as f64,
            _ => 5.0 * b as f64 * (plan.n1.max(2) as f64).log2(),
        };
        let g = GenericStage {
            perm: *perm,
            b,
            iters_per_socket: total / b,
            sockets: 1,
            total,
            p_d: plan.p_d,
            p_c: plan.p_c,
            flops_per_block: flops,
        };
        let c = simulate_generic_stage(&g, spec, opts, s)?;
        total_ns += c.time_ns;
        dram += c.dram_bytes;
        stage_costs.push(c);
    }
    let stages = plan.stage_perms().len();
    let report = PerfReport {
        machine: spec.name.to_string(),
        problem: format!("1D {} (four-step {}x{})", total, plan.n1, plan.n2),
        time_ns: total_ns,
        pseudo_flops: metrics::pseudo_flops(total),
        dram_bytes: dram,
        link_bytes: 0.0,
        achievable_peak_gflops: metrics::achievable_peak_gflops(
            total,
            stages,
            spec.total_dram_bw_gbs(),
        ),
    };
    Ok((report, stage_costs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_kernels::reference::dft_naive;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;
    use bwfft_spl::Formula;

    fn run(plan: &Fft1dLargePlan, x: &[Complex64]) -> Vec<Complex64> {
        let mut data = x.to_vec();
        let mut work = vec![Complex64::ZERO; x.len()];
        execute(plan, &mut data, &mut work).unwrap();
        data
    }

    #[test]
    fn four_step_formula_is_the_dft() {
        // Algebraic check of the whole construction:
        // T2·(I⊗DFT_{n1}⊗I_μ)·T1·D·(I⊗DFT_{n2})·L = DFT_N.
        let (n1, n2, mu) = (4usize, 8usize, 2usize);
        let n = n1 * n2;
        let f = Formula::compose(vec![
            Formula::tensor(Formula::stride_l(n2 / mu, n1), Formula::identity(mu)),
            Formula::tensor(
                Formula::identity(n2 / mu),
                Formula::tensor(Formula::dft(n1), Formula::identity(mu)),
            ),
            Formula::tensor(Formula::stride_l(n1, n2 / mu), Formula::identity(mu)),
            Formula::twiddle(n1, n2),
            Formula::tensor(Formula::identity(n1), Formula::dft(n2)),
            Formula::stride_l(n2, n1),
        ]);
        bwfft_spl::dense::assert_formulas_equal(&Formula::dft(n), &f);
    }

    #[test]
    fn matches_naive_dft_small() {
        let plan = Fft1dLargePlan::new(8, 16).buffer_elems(32).threads(1, 1);
        let x = random_complex(128, 400);
        assert_fft_close(&run(&plan, &x), &dft_naive(&x, Direction::Forward));
    }

    #[test]
    fn matches_direct_kernel_at_larger_sizes() {
        for (n1, n2) in [(16usize, 64usize), (32, 32), (64, 16)] {
            let n = n1 * n2;
            let x = random_complex(n, 401);
            let plan = Fft1dLargePlan::new(n1, n2)
                .buffer_elems(n / 4)
                .threads(2, 2);
            let got = run(&plan, &x);
            let mut expect = x.clone();
            BatchFft::new(n, 1, Direction::Forward).run(&mut expect);
            assert_fft_close(&got, &expect);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let (n1, n2) = (16usize, 16usize);
        let n = n1 * n2;
        let x = random_complex(n, 402);
        let fwd = Fft1dLargePlan::new(n1, n2).buffer_elems(64).threads(2, 2);
        let inv = Fft1dLargePlan::new(n1, n2)
            .buffer_elems(64)
            .threads(2, 2)
            .direction(Direction::Inverse);
        let mut data = run(&fwd, &x);
        let mut work = vec![Complex64::ZERO; n];
        execute(&inv, &mut data, &mut work).unwrap();
        let scale = 1.0 / n as f64;
        let back: Vec<Complex64> = data.iter().map(|c| c.scale(scale)).collect();
        assert_fft_close(&back, &x);
    }

    #[test]
    fn decimated_input_mode_skips_the_reshuffle() {
        let (n1, n2) = (8usize, 32usize);
        let n = n1 * n2;
        let x = random_complex(n, 403);
        // Manually decimate: x'[j·n2 + i] = x[i·n1 + j].
        let mut xp = vec![Complex64::ZERO; n];
        PermOp::L { rows: n2, cols: n1 }.permute(&x, &mut xp);
        let plan = Fft1dLargePlan::new(n1, n2)
            .buffer_elems(n / 2)
            .threads(1, 2)
            .decimated_input();
        assert_eq!(plan.stage_perms().len(), 2);
        let got = run(&plan, &xp);
        let mut expect = x.clone();
        BatchFft::new(n, 1, Direction::Forward).run(&mut expect);
        assert_fft_close(&got, &expect);
    }

    #[test]
    fn thread_configuration_does_not_change_results() {
        let (n1, n2) = (16usize, 32usize);
        let x = random_complex(n1 * n2, 404);
        let a = run(&Fft1dLargePlan::new(n1, n2).buffer_elems(128).threads(1, 1), &x);
        let b = run(&Fft1dLargePlan::new(n1, n2).buffer_elems(256).threads(3, 2), &x);
        let c = run(&Fft1dLargePlan::new(n1, n2).buffer_elems(512).threads(2, 3), &x);
        // Same kernels and twiddles per row and lane pencil, whatever
        // the block size and thread split: the results are bitwise equal.
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn zero_thread_counts_are_typed_plan_errors() {
        let x = random_complex(16 * 32, 405);
        for (p_d, p_c) in [(0, 1), (1, 0), (0, 0)] {
            let plan = Fft1dLargePlan::new(16, 32)
                .buffer_elems(128)
                .threads(p_d, p_c);
            let mut data = x.clone();
            let mut work = vec![Complex64::ZERO; x.len()];
            match execute(&plan, &mut data, &mut work) {
                Err(CoreError::Plan(PlanError::ThreadCount(_))) => {}
                other => panic!("threads({p_d}, {p_c}): expected ThreadCount, got {other:?}"),
            }
        }
    }

    #[test]
    fn simulated_1d_pays_the_extra_round_trip() {
        // 1D (3 stages incl. decimation) must be slower per point than
        // 2D (2 stages) at equal volume, but the decimated-input mode
        // (2 stages) should roughly match 2D.
        let spec = bwfft_machine::presets::kaby_lake_7700k();
        let opts = SimOptions::default();
        let n1 = 4096usize;
        let n2 = 4096usize;
        let full = Fft1dLargePlan::new(n1, n2)
            .buffer_elems(spec.default_buffer_elems())
            .threads(4, 4);
        let (rep_full, stages) = simulate_fft1d(&full, &spec, &opts).unwrap();
        assert_eq!(stages.len(), 3);
        let dec = Fft1dLargePlan::new(n1, n2)
            .buffer_elems(spec.default_buffer_elems())
            .threads(4, 4)
            .decimated_input();
        let (rep_dec, _) = simulate_fft1d(&dec, &spec, &opts).unwrap();
        assert!(rep_full.time_ns > rep_dec.time_ns * 1.3);
        // The element-granular decimation stage dominates stage 0.
        assert!(stages[0].time_ns > stages[1].time_ns);
    }
}
