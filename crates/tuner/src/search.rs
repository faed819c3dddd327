//! The autotuner: enumerate → model-prune → measure.
//!
//! The search space is the cross product of the plan knobs the paper
//! identifies as machine-dependent (§IV–V): the cacheline block μ, the
//! double-buffer half size `b`, the data/compute thread split
//! `(p_d, p_c)`, non-temporal stores on/off, and the executor kind
//! (pipelined soft-DMA vs. fused). The 1D pencil kernel is not an
//! axis: radix-2 Stockham is the only one. Enumerating the space
//! blindly on the real executor would take minutes per shape, so
//! tuning runs in two phases:
//!
//! 1. **Model pruning** — every candidate is scored with the
//!    `bwfft-machine` discrete-event `Engine` via
//!    [`bwfft_core::exec_sim::simulate`] (a few steady-state iterations,
//!    then extrapolation; milliseconds per candidate). Only the best
//!    [`TunerOptions::shortlist`] survive.
//! 2. **Measurement** — each survivor is built into a real [`FftPlan`]
//!    and timed, one trial per survivor, with the real executor for
//!    [`TunerOptions::reps`] repetitions; best wall-clock wins.
//!
//! `model_only` mode stops after phase 1 (deterministic, no threads, no
//! big allocations) — that is what the simulator-driven harnesses and
//! CI smoke runs use.

use crate::error::TunerError;
use bwfft_core::exec_real::{execute_with, ExecConfig};
use bwfft_core::exec_sim::{simulate, simulate_no_overlap, SimOptions};
use bwfft_core::{Dims, ExecutorKind, FftPlan, HostProfile};
use bwfft_kernels::Direction;
use bwfft_machine::{presets, MachineSpec};
use bwfft_num::{try_vec_zeroed, Complex64};
use bwfft_trace::{MarkKind, TraceCollector};
use std::sync::Arc;
use std::time::Instant;

/// One point of the search space, plus its score. This is also the
/// unit the wisdom store persists and the plan cache replays.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningRecord {
    pub dims: Dims,
    pub dir: Direction,
    pub mu: usize,
    pub buffer_elems: usize,
    pub p_d: usize,
    pub p_c: usize,
    pub non_temporal: bool,
    pub executor: ExecutorKind,
    /// Best observed cost: wall-clock ns when `measured`, model ns
    /// otherwise.
    pub score_ns: f64,
    /// Whether `score_ns` came from the real executor (phase 2) or the
    /// cost model only (phase 1).
    pub measured: bool,
}

impl TuningRecord {
    /// Rebuilds the tuned plan. Validation still applies — a record
    /// whose parameters no longer build (e.g. hand-edited wisdom)
    /// surfaces a typed [`TunerError::Plan`].
    pub fn build_plan(&self) -> Result<FftPlan, TunerError> {
        let mut plan = FftPlan::builder(self.dims)
            .direction(self.dir)
            .mu(self.mu)
            .buffer_elems(self.buffer_elems)
            .threads(self.p_d, self.p_c)
            .non_temporal(self.non_temporal)
            .build()?;
        plan.executor = self.executor;
        Ok(plan)
    }

    /// One-line human summary of the chosen knobs.
    pub fn describe(&self) -> String {
        format!(
            "{} {:?}: mu={} b={} threads={}+{} nt={} exec={:?} ({:.0} ns {})",
            self.dims.label(),
            self.dir,
            self.mu,
            self.buffer_elems,
            self.p_d,
            self.p_c,
            u8::from(self.non_temporal),
            self.executor,
            self.score_ns,
            if self.measured { "measured" } else { "model" },
        )
    }
}

/// Tuning configuration.
#[derive(Clone, Debug)]
pub struct TunerOptions {
    /// Machine model the cost-model pruning phase simulates against.
    pub model: MachineSpec,
    /// Hardware threads available to split between data and compute
    /// roles during the search.
    pub threads: usize,
    /// Candidates surviving model pruning into the measurement phase.
    pub shortlist: usize,
    /// Timed repetitions per shortlisted candidate (best-of wins).
    pub reps: usize,
    /// Steady-state iterations the pruning simulation runs exactly
    /// before extrapolating; smaller = cheaper, coarser.
    pub sim_iters: usize,
    /// Stop after the model phase: deterministic, thread-free, no
    /// data-array allocation.
    pub model_only: bool,
    /// Telemetry sink: when set, every measured shortlist trial is
    /// recorded as a [`MarkKind::TunerTrial`] (best-of-reps wall ns in
    /// `value_ns`) and the chosen plan as a [`MarkKind::TunerWinner`],
    /// so `tune --profile` can show where the search spent its time.
    pub trace: Option<Arc<TraceCollector>>,
}

impl TunerOptions {
    /// Options for tuning against a machine preset (model pruning uses
    /// the preset itself; timing runs on whatever host executes).
    pub fn for_model(model: MachineSpec) -> Self {
        let threads = model.total_threads();
        TunerOptions {
            model,
            threads,
            shortlist: 6,
            reps: 3,
            sim_iters: 4,
            model_only: false,
            trace: None,
        }
    }

    /// Options for tuning the current host: a generic machine model
    /// scaled to the detected CPU count and LLC size.
    pub fn for_host(profile: &HostProfile) -> Self {
        let threads = profile.cpus.clamp(2, 16);
        TunerOptions {
            threads,
            ..Self::for_model(host_model(profile))
        }
    }
}

/// A generic machine model for hosts without a curated preset: Kaby
/// Lake per-core numbers with the detected core count and LLC size
/// substituted in. Only used for *relative* pruning, so absolute
/// bandwidth accuracy is not required.
pub fn host_model(profile: &HostProfile) -> MachineSpec {
    let mut spec = presets::kaby_lake_7700k();
    spec.name = "host (generic model)";
    // Assume 2-way SMT when more than one CPU is visible; the split
    // search only needs the right total thread count.
    let cpus = profile.cpus.clamp(2, 16);
    spec.cores_per_socket = (cpus / 2).max(1);
    spec.threads_per_core = if cpus >= 2 { 2 } else { 1 };
    if let Some(llc) = profile.llc_bytes {
        if let Some(last) = spec.caches.last_mut() {
            last.size_bytes = llc;
        }
    }
    spec
}

/// The autotuner. Cheap to construct; holds only configuration, so it
/// is `Send + Sync` and can live inside a shared [`crate::PlanCache`].
#[derive(Clone, Debug)]
pub struct Tuner {
    opts: TunerOptions,
}

impl Tuner {
    pub fn new(opts: TunerOptions) -> Self {
        Tuner { opts }
    }

    /// Tuner for the detected host.
    pub fn for_this_host() -> Self {
        Tuner::new(TunerOptions::for_host(&HostProfile::detect()))
    }

    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// Runs the two-phase search for one `(dims, dir)` problem.
    pub fn tune(&self, dims: Dims, dir: Direction) -> Result<TuningRecord, TunerError> {
        let scored = self.model_phase(dims, dir)?;
        let rec = if self.opts.model_only {
            // scored is non-empty (model_phase errors otherwise).
            scored
                .into_iter()
                .next()
                .ok_or(TunerError::EmptySearchSpace { dims })?
        } else {
            self.measure_phase(dims, scored)?
        };
        if let Some(t) = &self.opts.trace {
            t.mark(MarkKind::TunerWinner, rec.describe(), Some(rec.score_ns));
        }
        Ok(rec)
    }

    /// Phase 1: enumerate and score with the engine cost model.
    /// Returns buildable candidates sorted best-first.
    fn model_phase(&self, dims: Dims, dir: Direction) -> Result<Vec<TuningRecord>, TunerError> {
        let mut scored: Vec<TuningRecord> = Vec::new();
        for mut cand in self.enumerate(dims, dir) {
            let Ok(plan) = cand.build_plan() else {
                continue; // invalid knob combination — pruned by validation
            };
            let opts = SimOptions {
                non_temporal: cand.non_temporal,
                max_sim_iters: self.opts.sim_iters.max(2),
                ..SimOptions::default()
            };
            let sim = match cand.executor {
                ExecutorKind::Pipelined => simulate(&plan, &self.opts.model, &opts),
                ExecutorKind::Fused => simulate_no_overlap(&plan, &self.opts.model, &opts),
            };
            let Ok(result) = sim else {
                continue; // model rejects (e.g. socket mismatch)
            };
            cand.score_ns = result.report.time_ns;
            scored.push(cand);
        }
        if scored.is_empty() {
            return Err(TunerError::EmptySearchSpace { dims });
        }
        scored.sort_by(|a, b| a.score_ns.total_cmp(&b.score_ns));
        Ok(scored)
    }

    /// Phase 2: time each shortlisted candidate once on the real
    /// executor; best wall-clock wins.
    fn measure_phase(
        &self,
        dims: Dims,
        scored: Vec<TuningRecord>,
    ) -> Result<TuningRecord, TunerError> {
        let total = dims.total();
        let input = bwfft_num::signal::random_complex(total, 7);
        // Timing arrays are the tuner's biggest allocations; an honest
        // refusal surfaces as a typed error instead of an abort.
        let mut data = try_vec_zeroed::<Complex64>(total, "tuner timing data")
            .map_err(|e| TunerError::from(bwfft_core::CoreError::Allocation(e)))?;
        let mut work = try_vec_zeroed::<Complex64>(total, "tuner timing work")
            .map_err(|e| TunerError::from(bwfft_core::CoreError::Allocation(e)))?;
        let cfg = ExecConfig::default();

        let mut best: Option<TuningRecord> = None;
        let mut last_err: Option<TunerError> = None;
        for mut rec in scored.into_iter().take(self.opts.shortlist.max(1)) {
            let Ok(plan) = rec.build_plan() else {
                continue;
            };
            let mut best_ns = f64::INFINITY;
            let mut failed = false;
            for _ in 0..self.opts.reps.max(1) {
                // Fresh input each rep: the transform is
                // unnormalized, so reusing output would grow the
                // values by N per pass.
                data.copy_from_slice(&input);
                let t0 = Instant::now();
                match execute_with(&plan, &mut data, &mut work, &cfg) {
                    Ok(_) => best_ns = best_ns.min(t0.elapsed().as_nanos() as f64),
                    Err(e) => {
                        last_err = Some(TunerError::from(e));
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                continue;
            }
            rec.score_ns = best_ns;
            rec.measured = true;
            if let Some(t) = &self.opts.trace {
                t.mark(MarkKind::TunerTrial, rec.describe(), Some(best_ns));
            }
            let better = best
                .as_ref()
                .is_none_or(|b| best_ns < b.score_ns);
            if better {
                best = Some(rec);
            }
        }
        match (best, last_err) {
            (Some(rec), _) => Ok(rec),
            (None, Some(err)) => Err(err),
            (None, None) => Err(TunerError::EmptySearchSpace { dims }),
        }
    }

    /// The raw candidate list (pre-validation): μ × b × thread split ×
    /// non-temporal × executor.
    fn enumerate(&self, dims: Dims, dir: Direction) -> Vec<TuningRecord> {
        let m_inner = match dims {
            Dims::Two { m, .. } | Dims::Three { m, .. } => m,
        };
        let mut out = Vec::new();
        for mu in [1usize, 2, 4, 8] {
            if m_inner % mu != 0 {
                continue;
            }
            for b in buffer_candidates(dims, mu) {
                for (p_d, p_c) in thread_splits(self.opts.threads) {
                    for non_temporal in [true, false] {
                        for executor in [ExecutorKind::Pipelined, ExecutorKind::Fused] {
                            out.push(TuningRecord {
                                dims,
                                dir,
                                mu,
                                buffer_elems: b,
                                p_d,
                                p_c,
                                non_temporal,
                                executor,
                                score_ns: f64::INFINITY,
                                measured: false,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Power-of-two buffer sizes worth trying for `dims` at block size
/// `mu`: a few doublings up from the smallest legal buffer, plus the
/// planner's `total/16` default — all dividing the problem.
fn buffer_candidates(dims: Dims, mu: usize) -> Vec<usize> {
    let total = dims.total();
    let max_pencil = match dims {
        Dims::Two { n, m } => m.max(n * mu),
        Dims::Three { k, n, m } => m.max(n * mu).max(k * mu),
    };
    let floor = max_pencil.next_power_of_two();
    let default_b = (total / 16).max(floor).next_power_of_two();
    let mut out = Vec::new();
    for b in [
        floor,
        floor * 2,
        floor * 4,
        default_b,
        default_b * 2,
        default_b * 4,
    ] {
        if b <= total && total.is_multiple_of(b) && !out.contains(&b) {
            out.push(b);
        }
    }
    out.sort_unstable();
    out
}

/// Representative data/compute splits of up to `threads` hardware
/// threads: the paper's half-and-half, two skewed ratios, the extreme
/// splits, and the minimal 1+1.
fn thread_splits(threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(2);
    let quarter = (t / 4).max(1);
    let mut out = Vec::new();
    for (p_d, p_c) in [
        (t / 2, t - t / 2),
        (quarter, t - quarter),
        (t - quarter, quarter),
        (1, t - 1),
        (t - 1, 1),
        (1, 1),
    ] {
        if p_d >= 1 && p_c >= 1 && !out.contains(&(p_d, p_c)) {
            out.push((p_d, p_c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_kernels::reference::dft2_naive;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    fn model_tuner() -> Tuner {
        Tuner::new(TunerOptions {
            model_only: true,
            ..TunerOptions::for_model(presets::kaby_lake_7700k())
        })
    }

    #[test]
    fn buffer_candidates_divide_the_problem() {
        for dims in [Dims::d2(64, 64), Dims::d3(32, 32, 32)] {
            for mu in [1, 4] {
                let bs = buffer_candidates(dims, mu);
                assert!(!bs.is_empty());
                for b in bs {
                    assert!(b.is_power_of_two());
                    assert_eq!(dims.total() % b, 0);
                }
            }
        }
    }

    #[test]
    fn thread_splits_cover_the_paper_shape() {
        let splits = thread_splits(8);
        assert!(splits.contains(&(4, 4)), "{splits:?}");
        assert!(splits.contains(&(1, 1)));
        for (d, c) in thread_splits(2) {
            assert!(d >= 1 && c >= 1);
        }
    }

    #[test]
    fn model_only_tuning_finds_a_buildable_plan() {
        let rec = model_tuner()
            .tune(Dims::d2(64, 64), Direction::Forward)
            .unwrap();
        assert!(!rec.measured);
        assert!(rec.score_ns.is_finite());
        let plan = rec.build_plan().unwrap();
        assert_eq!(plan.dims, Dims::d2(64, 64));
    }

    #[test]
    fn model_only_prefers_nontemporal_pipelined_on_kaby_lake() {
        // The paper's headline claims, rediscovered by search: on the
        // Kaby Lake model the winner streams non-temporally through the
        // pipelined executor.
        let rec = model_tuner()
            .tune(Dims::d3(64, 64, 64), Direction::Forward)
            .unwrap();
        assert!(rec.non_temporal, "{rec:?}");
        assert_eq!(rec.executor, ExecutorKind::Pipelined, "{rec:?}");
        assert!(rec.p_d > 1, "dedicated data threads expected: {rec:?}");
    }

    #[test]
    fn measured_tuning_produces_a_correct_plan() {
        // Small shape, one rep: the tuned plan must still compute the
        // right transform regardless of which candidate won.
        let tuner = Tuner::new(TunerOptions {
            threads: 4,
            shortlist: 2,
            reps: 1,
            ..TunerOptions::for_model(presets::kaby_lake_7700k())
        });
        let (n, m) = (16usize, 16);
        let rec = tuner.tune(Dims::d2(n, m), Direction::Forward).unwrap();
        assert!(rec.measured);
        let plan = rec.build_plan().unwrap();
        let x = random_complex(n * m, 90);
        let mut data = x.clone();
        let mut work = vec![Complex64::ZERO; n * m];
        execute_with(&plan, &mut data, &mut work, &ExecConfig::default()).unwrap();
        assert_fft_close(&data, &dft2_naive(&x, n, m, Direction::Forward));
    }

    #[test]
    fn measured_tuning_records_trial_and_winner_telemetry() {
        let collector = Arc::new(TraceCollector::new());
        let tuner = Tuner::new(TunerOptions {
            threads: 4,
            shortlist: 2,
            reps: 1,
            trace: Some(Arc::clone(&collector)),
            ..TunerOptions::for_model(presets::kaby_lake_7700k())
        });
        let rec = tuner.tune(Dims::d2(16, 16), Direction::Forward).unwrap();
        let marks: Vec<_> = collector
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                bwfft_trace::TraceEvent::Mark(m) => Some(m),
                bwfft_trace::TraceEvent::Span(_) => None,
            })
            .collect();
        // One timed trial per buildable shortlisted candidate; every
        // model-phase survivor builds, so that is the shortlist.
        let trials = marks.iter().filter(|m| m.kind == MarkKind::TunerTrial).count();
        assert_eq!(trials, 2, "one trial per shortlisted candidate");
        let winner = marks
            .iter()
            .find(|m| m.kind == MarkKind::TunerWinner)
            .expect("winner mark");
        assert_eq!(winner.value_ns, Some(rec.score_ns));
        assert_eq!(winner.label, rec.describe());
        // Every trial carries its measured wall time.
        for m in marks.iter().filter(|m| m.kind == MarkKind::TunerTrial) {
            assert!(m.value_ns.is_some_and(|v| v.is_finite() && v > 0.0));
        }
    }

    #[test]
    fn model_only_tuning_still_records_the_winner() {
        let collector = Arc::new(TraceCollector::new());
        let tuner = Tuner::new(TunerOptions {
            model_only: true,
            trace: Some(Arc::clone(&collector)),
            ..TunerOptions::for_model(presets::kaby_lake_7700k())
        });
        tuner.tune(Dims::d2(64, 64), Direction::Forward).unwrap();
        let events = collector.take_events();
        assert!(events.iter().any(|e| matches!(
            e,
            bwfft_trace::TraceEvent::Mark(m) if m.kind == MarkKind::TunerWinner
        )));
    }

    #[test]
    fn record_describe_mentions_the_knobs() {
        let rec = model_tuner()
            .tune(Dims::d2(64, 64), Direction::Forward)
            .unwrap();
        let s = rec.describe();
        assert!(s.contains("mu=") && s.contains("b=") && s.contains("exec="));
    }
}
