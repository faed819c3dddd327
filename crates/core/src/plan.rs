//! FFT plans: dimensions, buffer sizing, thread split, and the derived
//! per-stage structure (§III).

use crate::host::{DegradationReason, ExecutorKind, HostProfile};
use bwfft_kernels::batch::KernelVariant;
use bwfft_kernels::Direction;
use bwfft_num::MU;
use bwfft_spl::gather_scatter::{fft2d_stage_perms, fft3d_numa_stage_perms, StagePerm};

/// Transform dimensions (row-major, last dimension fastest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dims {
    Two { n: usize, m: usize },
    Three { k: usize, n: usize, m: usize },
}

impl Dims {
    pub fn d2(n: usize, m: usize) -> Self {
        Dims::Two { n, m }
    }

    pub fn d3(k: usize, n: usize, m: usize) -> Self {
        Dims::Three { k, n, m }
    }

    pub fn total(&self) -> usize {
        match *self {
            Dims::Two { n, m } => n * m,
            Dims::Three { k, n, m } => k * n * m,
        }
    }

    pub fn stages(&self) -> usize {
        match self {
            Dims::Two { .. } => 2,
            Dims::Three { .. } => 3,
        }
    }

    pub fn label(&self) -> String {
        match *self {
            Dims::Two { n, m } => format!("2D {n}x{m}"),
            Dims::Three { k, n, m } => format!("3D {k}x{n}x{m}"),
        }
    }
}

/// What one pipeline stage computes and how it writes back.
#[derive(Clone, Copy, Debug)]
pub struct StageSpec {
    /// 1D FFT size of this stage's pencils.
    pub fft_size: usize,
    /// Vector lanes per pencil (1 for the first stage, μ afterwards).
    pub lanes: usize,
    /// The write-back reshape.
    pub perm: StagePerm,
}

impl StageSpec {
    /// Elements per pencil (`fft_size · lanes`), the indivisible
    /// compute unit.
    pub fn pencil_elems(&self) -> usize {
        self.fft_size * self.lanes
    }
}

/// Plan construction errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    NotPow2(&'static str, usize),
    BufferTooSmall { needed: usize, got: usize },
    BufferNotDividing { b: usize, constraint: &'static str, value: usize },
    /// A stage's pencil (`fft_size · lanes` elements) does not divide
    /// the buffer half `b`, so blocks would split pencils. Derived
    /// uniformly from the built stage list — the same constraint the
    /// pipeline executor would otherwise reject at run time as a
    /// `ConfigError::UnitMismatch`.
    StagePencilIndivisible {
        stage: usize,
        fft_size: usize,
        lanes: usize,
        buffer_elems: usize,
    },
    ThreadCount(&'static str),
    SocketSplit(&'static str),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NotPow2(what, v) => write!(f, "{what} = {v} must be a power of two"),
            PlanError::BufferTooSmall { needed, got } => {
                write!(f, "buffer of {got} elements is smaller than one pencil batch ({needed})")
            }
            PlanError::BufferNotDividing { b, constraint, value } => {
                write!(f, "buffer size {b} violates `{constraint}` (= {value})")
            }
            PlanError::StagePencilIndivisible {
                stage,
                fft_size,
                lanes,
                buffer_elems,
            } => {
                write!(
                    f,
                    "stage {stage}: pencil of {fft_size}x{lanes} = {} elems does not divide \
                     the buffer half ({buffer_elems})",
                    fft_size * lanes
                )
            }
            PlanError::ThreadCount(msg) => write!(f, "thread configuration: {msg}"),
            PlanError::SocketSplit(msg) => write!(f, "socket split: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated FFT plan.
#[derive(Clone, Debug)]
pub struct FftPlan {
    pub dims: Dims,
    pub dir: Direction,
    /// Cacheline block in elements (4 for complex doubles).
    pub mu: usize,
    /// Shared-buffer half size `b`, elements.
    pub buffer_elems: usize,
    /// Data threads (per machine, split across sockets).
    pub p_d: usize,
    /// Compute threads.
    pub p_c: usize,
    /// NUMA sockets for the slab–pencil decomposition (1 = single).
    pub sockets: usize,
    /// Use non-temporal loads/stores for the memory-facing movement
    /// (§IV). Turning this off is the `ablation_design` knob.
    pub non_temporal: bool,
    /// Optional CPU pinning for the real executor: one logical CPU per
    /// thread, data threads first (the paper's `kmp_affinity` /
    /// `sched_setaffinity` discipline, §III-D).
    pub pin_cpus: Option<Vec<usize>>,
    /// Which executor `exec_real::execute` dispatches to. `Fused` when
    /// the degradation policy fired (see `degradations`).
    pub executor: ExecutorKind,
    /// Why the plan degraded to the fused executor (empty when
    /// pipelined). Populated by [`FftPlanBuilder::host`] /
    /// [`FftPlanBuilder::adapt_to_host`].
    pub degradations: Vec<DegradationReason>,
    /// Always radix-2 Stockham; kept only because hostbench's replay
    /// reads it.
    pub kernel: KernelVariant,
    stages: Vec<StageSpec>,
}

impl FftPlan {
    pub fn builder(dims: Dims) -> FftPlanBuilder {
        FftPlanBuilder {
            dims,
            dir: Direction::Forward,
            mu: MU,
            buffer_elems: 0,
            p_d: 1,
            p_c: 1,
            sockets: 1,
            non_temporal: true,
            pin_cpus: None,
            host: None,
        }
    }

    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Blocks per stage per socket (`knm / (b·sk)` — the paper's
    /// `iter`).
    pub fn iters_per_socket(&self) -> usize {
        self.dims.total() / self.buffer_elems / self.sockets
    }

    /// Total pseudo-flops of the transform.
    pub fn pseudo_flops(&self) -> f64 {
        crate::metrics::pseudo_flops(self.dims.total())
    }
}

/// Builder for [`FftPlan`].
#[derive(Clone, Debug)]
pub struct FftPlanBuilder {
    dims: Dims,
    dir: Direction,
    mu: usize,
    buffer_elems: usize,
    p_d: usize,
    p_c: usize,
    sockets: usize,
    non_temporal: bool,
    pin_cpus: Option<Vec<usize>>,
    host: Option<HostProfile>,
}

impl FftPlanBuilder {
    pub fn direction(mut self, dir: Direction) -> Self {
        self.dir = dir;
        self
    }

    /// The dimensions this builder was created for. Read-only accessor
    /// for downstream planners (the tuner keys its cache on this).
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// The currently configured transform direction.
    pub fn dir(&self) -> Direction {
        self.dir
    }

    /// The currently configured socket count.
    pub fn socket_count(&self) -> usize {
        self.sockets
    }

    pub fn mu(mut self, mu: usize) -> Self {
        self.mu = mu;
        self
    }

    /// Buffer half size `b` in elements. Defaults (0) to
    /// `total/16` clamped to at least one pencil batch — callers
    /// targeting a machine preset should pass
    /// `spec.default_buffer_elems()` (the `LLC/2` rule).
    pub fn buffer_elems(mut self, b: usize) -> Self {
        self.buffer_elems = b;
        self
    }

    pub fn threads(mut self, p_d: usize, p_c: usize) -> Self {
        self.p_d = p_d;
        self.p_c = p_c;
        self
    }

    pub fn sockets(mut self, sk: usize) -> Self {
        self.sockets = sk;
        self
    }

    pub fn non_temporal(mut self, nt: bool) -> Self {
        self.non_temporal = nt;
        self
    }

    /// Derives the thread split *and* CPU pinning from a paired role
    /// assignment: data and compute threads land on sibling hardware
    /// threads of the same cores (§IV-A).
    pub fn pinned(mut self, roles: &bwfft_pipeline::RoleAssignment) -> Self {
        self.p_d = roles.data_per_socket() * roles.sockets;
        self.p_c = roles.compute_per_socket() * roles.sockets;
        self.sockets = self.sockets.max(1);
        let mut cpus: Vec<usize> = roles.data_slots().map(|s| s.thread).collect();
        cpus.extend(roles.compute_slots().map(|s| s.thread));
        self.pin_cpus = Some(cpus);
        self
    }

    /// Supplies a host profile for the graceful-degradation policy:
    /// when the host cannot sustain the pipeline (single CPU, pinning
    /// broken, buffer larger than the LLC), the plan records the typed
    /// [`DegradationReason`]s and dispatches to the fused executor
    /// instead of failing or thrashing.
    pub fn host(mut self, profile: HostProfile) -> Self {
        self.host = Some(profile);
        self
    }

    /// [`FftPlanBuilder::host`] with the detected profile of the
    /// current machine.
    pub fn adapt_to_host(self) -> Self {
        self.host(HostProfile::detect())
    }

    pub fn build(self) -> Result<FftPlan, PlanError> {
        let dims = self.dims;
        let mu = self.mu;
        let total = dims.total();
        let (dims_list, label): (Vec<usize>, &str) = match dims {
            Dims::Two { n, m } => (vec![n, m], "2D"),
            Dims::Three { k, n, m } => (vec![k, n, m], "3D"),
        };
        let _ = label;
        for (&d, name) in dims_list.iter().zip(["k/n", "n/m", "m"].iter()) {
            if !bwfft_num::is_pow2(d) {
                return Err(PlanError::NotPow2("dimension", d));
            }
            let _ = name;
        }
        if !bwfft_num::is_pow2(mu) {
            return Err(PlanError::NotPow2("mu", mu));
        }

        // Default buffer: a sixteenth of the problem, at least one
        // batch of the largest pencil.
        let max_pencil = match dims {
            Dims::Two { n, m } => m.max(n * mu),
            Dims::Three { k, n, m } => m.max(n * mu).max(k * mu),
        };
        let mut b = self.buffer_elems;
        if b == 0 {
            b = (total / 16).max(max_pencil);
        }
        if b < max_pencil {
            return Err(PlanError::BufferTooSmall {
                needed: max_pencil,
                got: b,
            });
        }
        if !bwfft_num::is_pow2(b) {
            return Err(PlanError::NotPow2("buffer_elems", b));
        }

        let sk = self.sockets;
        if sk == 0 || !total.is_multiple_of(sk) {
            return Err(PlanError::SocketSplit("sockets must divide the problem"));
        }
        if matches!(dims, Dims::Two { .. }) && sk != 1 {
            return Err(PlanError::SocketSplit(
                "the slab–pencil NUMA decomposition is 3D-only (paper §IV-B)",
            ));
        }
        if !(total / sk).is_multiple_of(b) {
            return Err(PlanError::BufferNotDividing {
                b,
                constraint: "b | total/sockets",
                value: total / sk,
            });
        }

        // μ must divide the innermost dimension: the stage-0 write
        // reshape packs μ-wide cacheline lanes out of each length-m row.
        let m_inner = match dims {
            Dims::Two { m, .. } | Dims::Three { m, .. } => m,
        };
        if m_inner % mu != 0 {
            return Err(PlanError::BufferNotDividing {
                b: mu,
                constraint: "mu | m",
                value: m_inner,
            });
        }

        let stages = match dims {
            Dims::Two { n, m } => {
                let perms = fft2d_stage_perms(n, m, mu);
                vec![
                    StageSpec {
                        fft_size: m,
                        lanes: 1,
                        perm: perms[0],
                    },
                    StageSpec {
                        fft_size: n,
                        lanes: mu,
                        perm: perms[1],
                    },
                ]
            }
            Dims::Three { k, n, m } => {
                if sk > 1 && (k % sk != 0 || n % sk != 0) {
                    return Err(PlanError::SocketSplit(
                        "sockets must divide both k and n for the slab split",
                    ));
                }
                let perms = fft3d_numa_stage_perms(k, n, m, mu, sk);
                vec![
                    StageSpec {
                        fft_size: m,
                        lanes: 1,
                        perm: perms[0],
                    },
                    StageSpec {
                        fft_size: n,
                        lanes: mu,
                        perm: perms[1],
                    },
                    StageSpec {
                        fft_size: k,
                        lanes: mu,
                        perm: perms[2],
                    },
                ]
            }
        };

        // Pencils never straddle block boundaries: every stage's
        // compute unit must divide the buffer half. Derived from the
        // stage list itself rather than re-enumerated per dimension, so
        // future stage shapes (e.g. Bluestein-backed non-pow-2 sizes)
        // inherit the check — this mirrors, at build time, exactly what
        // the pipeline executor's `validate()` would reject late as a
        // `UnitMismatch` on `compute_unit`.
        validate_stage_pencils(&stages, b)?;

        if self.p_d == 0 || self.p_c == 0 {
            return Err(PlanError::ThreadCount(
                "need at least one data and one compute thread",
            ));
        }
        if !self.p_d.is_multiple_of(sk) || !self.p_c.is_multiple_of(sk) {
            return Err(PlanError::ThreadCount(
                "thread counts must split evenly across sockets",
            ));
        }

        let degradations = self
            .host
            .map(|h| h.degradations(b, self.pin_cpus.is_some()))
            .unwrap_or_default();
        let executor = if degradations.is_empty() {
            ExecutorKind::Pipelined
        } else {
            ExecutorKind::Fused
        };

        Ok(FftPlan {
            dims,
            dir: self.dir,
            mu,
            buffer_elems: b,
            p_d: self.p_d,
            p_c: self.p_c,
            sockets: sk,
            non_temporal: self.non_temporal,
            pin_cpus: self.pin_cpus,
            executor,
            degradations,
            kernel: KernelVariant::default(),
            stages,
        })
    }
}

/// Every stage's pencil (`fft_size · lanes`) must divide the buffer
/// half `b`, the same compute-unit constraint the pipeline executor
/// checks at run time.
fn validate_stage_pencils(stages: &[StageSpec], b: usize) -> Result<(), PlanError> {
    for (i, st) in stages.iter().enumerate() {
        if !b.is_multiple_of(st.pencil_elems()) {
            return Err(PlanError::StagePencilIndivisible {
                stage: i,
                fft_size: st.fft_size,
                lanes: st.lanes,
                buffer_elems: b,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_3d_plan() {
        let p = FftPlan::builder(Dims::d3(16, 16, 16))
            .buffer_elems(1024)
            .threads(2, 2)
            .build()
            .unwrap();
        assert_eq!(p.stages().len(), 3);
        assert_eq!(p.iters_per_socket(), 4);
        assert_eq!(p.stages()[0].fft_size, 16);
        assert_eq!(p.stages()[0].lanes, 1);
        assert_eq!(p.stages()[1].lanes, 4);
    }

    #[test]
    fn default_buffer_is_plausible() {
        let p = FftPlan::builder(Dims::d3(64, 64, 64)).build().unwrap();
        assert!(p.buffer_elems >= 64 * 4);
        assert_eq!((64usize * 64 * 64) % p.buffer_elems, 0);
    }

    #[test]
    fn rejects_non_pow2_dimension() {
        let e = FftPlan::builder(Dims::d3(12, 16, 16)).build().unwrap_err();
        assert!(matches!(e, PlanError::NotPow2(..)));
    }

    #[test]
    fn rejects_buffer_smaller_than_pencil() {
        let e = FftPlan::builder(Dims::d2(64, 256))
            .buffer_elems(128)
            .build()
            .unwrap_err();
        assert!(matches!(e, PlanError::BufferTooSmall { .. }));
    }

    #[test]
    fn rejects_2d_numa() {
        let e = FftPlan::builder(Dims::d2(64, 64))
            .sockets(2)
            .build()
            .unwrap_err();
        assert!(matches!(e, PlanError::SocketSplit(_)));
    }

    #[test]
    fn numa_plan_requires_divisible_dims() {
        let ok = FftPlan::builder(Dims::d3(16, 16, 16))
            .buffer_elems(512)
            .sockets(2)
            .threads(2, 2)
            .build();
        assert!(ok.is_ok());
        // stage perms become TwoLevel.
        let p = ok.unwrap();
        assert!(matches!(
            p.stages()[1].perm,
            bwfft_spl::gather_scatter::StagePerm::TwoLevel { .. }
        ));
    }

    #[test]
    fn rejects_thread_socket_mismatch() {
        let e = FftPlan::builder(Dims::d3(16, 16, 16))
            .buffer_elems(512)
            .sockets(2)
            .threads(3, 2)
            .build()
            .unwrap_err();
        assert!(matches!(e, PlanError::ThreadCount(_)));
    }

    #[test]
    fn error_messages_render() {
        let e = FftPlan::builder(Dims::d3(12, 16, 16)).build().unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn stage_pencil_check_rejects_indivisible_units() {
        // All-pow-2 builder shapes can't reach this branch (order ⇒
        // divisibility there); exercise the helper directly with the
        // kind of non-pow-2 stage a Bluestein-backed size would emit.
        let perms = fft2d_stage_perms(4, 4, 1);
        let stages = [
            StageSpec {
                fft_size: 3,
                lanes: 1,
                perm: perms[0],
            },
            StageSpec {
                fft_size: 4,
                lanes: 1,
                perm: perms[1],
            },
        ];
        let e = validate_stage_pencils(&stages, 8).unwrap_err();
        assert_eq!(
            e,
            PlanError::StagePencilIndivisible {
                stage: 0,
                fft_size: 3,
                lanes: 1,
                buffer_elems: 8,
            }
        );
        assert!(e.to_string().contains("does not divide"));
        assert!(validate_stage_pencils(&stages, 12).is_ok());
    }

    #[test]
    fn builder_getters() {
        let builder = FftPlan::builder(Dims::d2(8, 16)).direction(Direction::Inverse);
        assert_eq!(builder.dims(), Dims::d2(8, 16));
        assert_eq!(builder.dir(), Direction::Inverse);
        assert_eq!(builder.socket_count(), 1);
    }
}
