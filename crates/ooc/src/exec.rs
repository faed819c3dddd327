//! The streaming out-of-core executor.
//!
//! A 1D transform of length `n = n1·n2` runs as five storage-to-storage
//! stages, each of which reads one store and writes another (so every
//! stage is idempotent and safely retryable):
//!
//! | stage | name             | src (rows×cols) | dst           | compute              |
//! |-------|------------------|-----------------|---------------|----------------------|
//! | 0     | `transpose-in`   | input `n1×n2`   | `t1` `n2×n1`  | none                 |
//! | 1     | `dft-n1-twiddle` | `t1` `n2×n1`    | `s1` `n2×n1`  | row DFT + `ω_N^{a₂k₁}` |
//! | 2     | `transpose-mid`  | `s1` `n2×n1`    | `t2` `n1×n2`  | none                 |
//! | 3     | `dft-n2`         | `t2` `n1×n2`    | `s2` `n1×n2`  | row DFT              |
//! | 4     | `transpose-out`  | `s2` `n1×n2`    | out `n2×n1`   | none                 |
//!
//! Reading the output store row-major yields `Y[k]` in natural order.
//!
//! Every stage streams whole-row blocks through the shared
//! [`DoubleBuffer`] with the Table II soft-DMA roles: `p_d` data
//! threads issue positioned reads/writes against the stores while
//! `p_c` compute threads run the batched Stockham kernels on the other
//! half. Storage failures (real or injected) are absorbed by a
//! per-stage recovery ladder — bounded pipelined retries with backoff,
//! then a single-threaded serial fallback running the same callbacks on
//! the fused schedule — because a stage that rereads its
//! (never-overwritten) source is exactly repeatable.

use crate::error::{OocError, ResumeError};
use crate::journal::{Journal, JournalState};
use crate::plan::{
    CrashMode, CrashPoint, OocConfig, OocFault, OocFaultKind, OocPlan, ResumeVerify,
    BYTES_PER_HALF_ELEM,
};
use crate::store::{OocStore, ELEM_BYTES};
use bwfft_kernels::batch::BatchFft;
use bwfft_kernels::twiddle::FourStepTwiddles;
use bwfft_kernels::Direction;
use bwfft_num::alloc::{check_alloc_budget, try_vec_zeroed};
use bwfft_num::Complex64;
use bwfft_pipeline::buffer::{partition, DoubleBuffer};
use bwfft_pipeline::exec::{
    block_checksum, run_fused, run_pipeline, ComputeFn, LoadFn, PipelineCallbacks, PipelineConfig,
    StoreFn,
};
use bwfft_trace::MarkKind;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Stage names, in execution order (indices match [`OocFault::stage`]).
pub const STAGE_NAMES: [&str; 5] = [
    "transpose-in",
    "dft-n1-twiddle",
    "transpose-mid",
    "dft-n2",
    "transpose-out",
];

/// What one out-of-core run did.
#[derive(Clone, Debug, Default)]
pub struct OocReport {
    pub n: usize,
    pub n1: usize,
    pub n2: usize,
    pub half_elems: usize,
    /// Payload bytes read from storage across all stages and retries.
    pub bytes_read: u64,
    /// Payload bytes written to storage across all stages and retries.
    pub bytes_written: u64,
    /// Wall nanoseconds spent inside positioned storage I/O calls.
    pub io_ns: u64,
    /// End-to-end wall nanoseconds for all five stages.
    pub wall_ns: u64,
    /// Pipelined stage attempts that failed and were retried.
    pub retries: u32,
    /// Stages that degraded to the single-threaded serial tier.
    pub serial_fallbacks: u32,
    /// Injected faults that actually fired.
    pub faults_hit: u32,
    /// True when the run continued a checkpoint journal instead of
    /// starting from the input.
    pub resumed: bool,
    /// Journaled-complete blocks the resume skipped instead of
    /// recomputing (across all stages).
    pub skipped_blocks: u64,
    /// Journaled block checksums the resume re-verified against the
    /// scratch stores before trusting them.
    pub reverified_blocks: u64,
    /// Blocks re-executed in the journal-frontier (in-flight) stage —
    /// the rework bound: never more than one stage's blocks.
    pub rework_blocks: u64,
    /// Payload bytes this run moved when resumed (0 for fresh runs):
    /// the storage cost of finishing instead of restarting.
    pub resumed_bytes: u64,
}

impl OocReport {
    /// Achieved storage bandwidth over the whole run, bytes/ns ≡ GB/s.
    pub fn storage_gbs(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.bytes_read + self.bytes_written) as f64 / self.wall_ns as f64
    }
}

/// The four-step twiddle `ω_N^{a₂·k₁}` (conjugated for inverse), with
/// the exponent reduced exactly so huge `n` loses no precision.
///
/// This is the exact per-element reference that
/// [`crate::oracle::verify`] and the twiddle-table tests compare
/// against; no executor calls it. They apply the same diagonal through
/// one [`FourStepTwiddles`] table per run.
pub fn twiddle(a2: usize, k1: usize, n: usize, dir: Direction) -> Complex64 {
    let t = ((a2 as u128 * k1 as u128) % n as u128) as u64;
    let w = Complex64::root_of_unity(t as i64, n as u64);
    match dir {
        Direction::Forward => w,
        Direction::Inverse => w.conj(),
    }
}

#[derive(Clone, Copy)]
enum StageKind<'a> {
    Transpose,
    /// Row DFTs, then the twiddle diagonal when the stage applies one.
    Dft {
        twiddles: Option<&'a FourStepTwiddles>,
    },
}

struct Stage<'a> {
    index: usize,
    name: &'static str,
    src: &'a OocStore,
    dst: &'a OocStore,
    kind: StageKind<'a>,
}

/// Counters and the first-failure slot shared by the per-thread I/O
/// closures of one stage attempt (callbacks cannot return `Result`).
#[derive(Default)]
struct IoShared {
    /// The attempt's first failure: a storage error, a journal append
    /// error, or an injected `CrashMode::Halt` crash point — which the
    /// ladder must surface as is instead of retrying it back to health
    /// (a retried "crash" would prove nothing).
    err: Mutex<Option<OocError>>,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    io_ns: AtomicU64,
}

impl IoShared {
    fn set_err(&self, e: OocError) {
        let mut slot = self.err.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn has_err(&self) -> bool {
        self.err
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    fn take_err(&self) -> Option<OocError> {
        self.err.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// A storage failure at block `blk` of `stage`, for the attempt's
/// error slot.
fn storage_err(stage: &Stage<'_>, blk: usize, what: impl std::fmt::Display) -> OocError {
    OocError::Io {
        context: stage.name,
        message: format!("block {blk}: {what}"),
    }
}

/// The fault has not fired yet.
const ARMED: u8 = 0;
/// The fault fired in the current stage attempt.
const FIRING: u8 = 1;
/// The fault fired in an earlier attempt; storage is healthy again.
const SPENT: u8 = 2;

/// One-shot fault arming shared across stages and retry attempts. The
/// injected fault fails its block in exactly one attempt — every
/// thread's share of that block, so the failed attempt's traffic does
/// not depend on which thread got there first — and the attempts after
/// it observe healthy storage.
struct FaultOnce {
    fault: Option<OocFault>,
    state: AtomicU8,
}

impl FaultOnce {
    fn new(fault: Option<OocFault>) -> Self {
        FaultOnce {
            fault,
            state: AtomicU8::new(ARMED),
        }
    }

    fn fires(&self, stage: usize, iter: usize, kind: OocFaultKind) -> bool {
        match self.fault {
            Some(f) if f.stage == stage && f.iter == iter && f.kind == kind => {
                // The first caller fires it; later shares of the block
                // in the same attempt find it already firing.
                match self.state.compare_exchange(
                    ARMED,
                    FIRING,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => true,
                    Err(state) => state == FIRING,
                }
            }
            _ => false,
        }
    }

    /// Closes a stage attempt: a fault that fired in it is spent.
    fn end_attempt(&self) {
        if self.state.load(Ordering::Acquire) == FIRING {
            self.state.store(SPENT, Ordering::Release);
        }
    }

    /// True once the fault has fired.
    fn fired(&self) -> bool {
        self.state.load(Ordering::Acquire) != ARMED
    }
}

/// Per-run checkpoint context: where completion records go and which
/// (if any) injected crash point is armed.
struct CkptCtx<'a> {
    journal: &'a Journal,
    crash: Option<CrashPoint>,
}

impl CkptCtx<'_> {
    /// Fires the armed crash point for `(stage, block)` — called only
    /// *after* that block's journal record is durable, the worst
    /// possible instant for the resume logic.
    fn maybe_crash(&self, stage: usize, block: usize, io: &IoShared) {
        let Some(cp) = self.crash else { return };
        if cp.stage != stage || cp.block != block {
            return;
        }
        match cp.mode {
            CrashMode::Abort => std::process::abort(),
            CrashMode::Halt => io.set_err(OocError::CrashPoint {
                stage: STAGE_NAMES[stage],
                block,
            }),
        }
    }
}

/// Per-attempt completion tracker for one stage: each storer folds the
/// order-independent checksum of its share into the block's slot; the
/// last of `expected` arrivals owns the durable commit. With a single
/// storer (the serial tier) the record is the whole block's checksum.
struct StageCommit<'a, 'b> {
    ctx: &'b CkptCtx<'a>,
    stage: usize,
    /// Wrapping partial-checksum accumulator per local block.
    sums: Vec<AtomicU64>,
    /// Arrival count per local block.
    arrivals: Vec<AtomicUsize>,
    /// Non-empty storer partitions — arrivals needed for a commit.
    expected: usize,
}

impl StageCommit<'_, '_> {
    /// One storer finished its share of local block `local` (global
    /// block index `actual`) with partial checksum `partial`.
    fn arrive(&self, local: usize, actual: usize, partial: u64, io: &IoShared) {
        self.sums[local].fetch_add(partial, Ordering::Relaxed);
        // AcqRel on the counter: the release half publishes this
        // thread's sum, the acquire half (in the last arriver) sees
        // every other storer's.
        let n = self.arrivals[local].fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.expected {
            let sum = self.sums[local].load(Ordering::Acquire);
            if let Err(e) = self.ctx.journal.append_block(self.stage, actual, sum) {
                io.set_err(OocError::Journal(e));
                return;
            }
            self.ctx.maybe_crash(self.stage, actual, io);
        }
    }
}

/// Reads a span of `buf.len()` elements starting at `(row, col)` in
/// row-major logical order, splitting positioned reads at row ends.
fn read_span(
    store: &OocStore,
    mut row: usize,
    mut col: usize,
    buf: &mut [Complex64],
) -> std::io::Result<()> {
    let mut i = 0;
    while i < buf.len() {
        let take = (store.cols() - col).min(buf.len() - i);
        store.read_row_segment(row, col, &mut buf[i..i + take])?;
        i += take;
        row += 1;
        col = 0;
    }
    Ok(())
}

fn mark_recovery(cfg: &OocConfig, label: String) {
    if let Some(trace) = cfg.trace.as_ref() {
        trace.mark(MarkKind::Recovery, label, None);
    }
}

/// Which schedule a stage attempt runs its callbacks on.
enum Tier {
    /// `p_d` data and `p_c` compute threads through the double buffer.
    Pipelined,
    /// The degraded tier: the same callbacks built for one data and one
    /// compute thread, run on the fused schedule over one block buffer —
    /// the same kernels and twiddles, so degrading never changes the
    /// answer.
    Serial,
}

/// Runs one attempt at a stage, streaming only the blocks listed in
/// `pending` (a resume skips journaled-complete ones; a fresh run lists
/// them all). I/O problems surface through `io`; pipeline-level
/// failures return directly. When `ckpt` is set, every fully stored
/// block commits a durable journal record.
#[allow(clippy::too_many_arguments)]
fn run_stage_attempt(
    stage: &Stage<'_>,
    plan: &OocPlan,
    cfg: &OocConfig,
    buffer: &DoubleBuffer,
    tier: Tier,
    io: &IoShared,
    fault: &FaultOnce,
    pending: &[usize],
    ckpt: Option<&CkptCtx<'_>>,
) -> Result<(), OocError> {
    let r = stage.src.rows();
    let c = stage.src.cols();
    let br = (buffer.half_elems() / c).min(r).max(1);
    let iters = pending.len();
    let b = br * c;
    let idx = stage.index;
    let (p_d, p_c) = match tier {
        Tier::Pipelined => (plan.p_d, plan.p_c),
        Tier::Serial => (1, 1),
    };

    // Fresh commit slots per attempt: a retried stage re-accumulates
    // from zero (its storers rewrite every pending block).
    let storer_parts = match stage.kind {
        StageKind::Dft { .. } => partition(br, p_d),
        StageKind::Transpose => partition(c, p_d),
    };
    let expected = storer_parts.iter().filter(|p| !p.is_empty()).count();
    let commit = ckpt.map(|ctx| StageCommit {
        ctx,
        stage: idx,
        sums: (0..iters).map(|_| AtomicU64::new(0)).collect(),
        arrivals: (0..iters).map(|_| AtomicUsize::new(0)).collect(),
        expected,
    });
    let commit = commit.as_ref();

    let mut loaders: Vec<LoadFn<'_>> = Vec::new();
    for _ in 0..p_d {
        let src = stage.src;
        loaders.push(Box::new(move |blk, off, share| {
            if share.is_empty() {
                return;
            }
            let blk = pending[blk];
            if fault.fires(idx, blk, OocFaultKind::Read) {
                io.set_err(storage_err(stage, blk, "injected read fault"));
            }
            if io.has_err() {
                share.fill(Complex64::ZERO);
                return;
            }
            let row0 = blk * br + off / c;
            let col0 = off % c;
            let t0 = Instant::now();
            let res = read_span(src, row0, col0, share);
            io.io_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match res {
                Ok(()) => {
                    io.bytes_read
                        .fetch_add((share.len() * ELEM_BYTES) as u64, Ordering::Relaxed);
                }
                Err(e) => {
                    io.set_err(storage_err(stage, blk, format_args!("read: {e}")));
                    share.fill(Complex64::ZERO);
                }
            }
        }));
    }

    let mut storers: Vec<StoreFn<'_>> = Vec::new();
    match stage.kind {
        StageKind::Dft { .. } => {
            // Partition the block's rows across the data threads; each
            // storer writes its rows straight through (same shape).
            for range in storer_parts {
                let dst = stage.dst;
                storers.push(Box::new(move |local, half| {
                    if range.is_empty() {
                        return;
                    }
                    let blk = pending[local];
                    if fault.fires(idx, blk, OocFaultKind::Write) {
                        io.set_err(storage_err(stage, blk, "injected write fault"));
                    }
                    if io.has_err() {
                        return;
                    }
                    let buf = &half[range.start * c..range.end * c];
                    let t0 = Instant::now();
                    let res = dst.write_rows(blk * br + range.start, buf);
                    io.io_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match res {
                        Ok(()) => {
                            io.bytes_written
                                .fetch_add((buf.len() * ELEM_BYTES) as u64, Ordering::Relaxed);
                            if let Some(cm) = commit {
                                cm.arrive(local, blk, block_checksum(buf), io);
                            }
                        }
                        Err(e) => io.set_err(storage_err(stage, blk, format_args!("write: {e}"))),
                    }
                }));
            }
        }
        StageKind::Transpose => {
            // Partition the destination rows (source columns): storer t
            // gathers its columns out of the block and writes each as a
            // contiguous `br`-element run of the destination row.
            for range in storer_parts {
                let dst = stage.dst;
                let mut scratch = vec![Complex64::ZERO; br];
                storers.push(Box::new(move |local, half| {
                    if range.is_empty() {
                        return;
                    }
                    let blk = pending[local];
                    if fault.fires(idx, blk, OocFaultKind::Write) {
                        io.set_err(storage_err(stage, blk, "injected write fault"));
                    }
                    if io.has_err() {
                        return;
                    }
                    let mut partial = 0u64;
                    for col in range.clone() {
                        for (j, slot) in scratch.iter_mut().enumerate() {
                            *slot = half[col + j * c];
                        }
                        let t0 = Instant::now();
                        let res = dst.write_row_segment(col, blk * br, &scratch);
                        io.io_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        match res {
                            Ok(()) => {
                                io.bytes_written.fetch_add(
                                    (scratch.len() * ELEM_BYTES) as u64,
                                    Ordering::Relaxed,
                                );
                                partial = partial.wrapping_add(block_checksum(&scratch));
                            }
                            Err(e) => {
                                io.set_err(storage_err(stage, blk, format_args!("write: {e}")));
                                return;
                            }
                        }
                    }
                    if let Some(cm) = commit {
                        cm.arrive(local, blk, partial, io);
                    }
                }));
            }
        }
    }

    let mut computes: Vec<ComputeFn<'_>> = Vec::new();
    for _ in 0..p_c {
        match stage.kind {
            StageKind::Transpose => computes.push(Box::new(|_, _, _| {})),
            StageKind::Dft { twiddles } => {
                let mut kernel = BatchFft::new(c, 1, plan.dir);
                computes.push(Box::new(move |blk, off, share| {
                    if share.is_empty() || io.has_err() {
                        return;
                    }
                    kernel.run(share);
                    if let Some(tw) = twiddles {
                        let row0 = pending[blk] * br + off / c;
                        for (j, row) in share.chunks_mut(c).enumerate() {
                            tw.apply_row(row0 + j, row);
                        }
                    }
                }));
            }
        }
    }

    let pcfg = PipelineConfig {
        iters,
        load_unit: c.min(b),
        compute_unit: c.min(b),
        stage: stage.index,
        trace: cfg.trace.clone(),
        integrity: cfg.integrity,
        ..PipelineConfig::default()
    };
    let callbacks = PipelineCallbacks {
        loaders,
        storers,
        computes,
    };
    match tier {
        Tier::Pipelined => run_pipeline(buffer, &pcfg, callbacks),
        Tier::Serial => {
            let mut block = try_vec_zeroed::<Complex64>(b, "ooc serial block")?;
            run_fused(&mut block, &pcfg, callbacks)
        }
    }
    .map_err(|error| OocError::Pipeline {
        stage: stage.name,
        error,
    })?;
    Ok(())
}

/// Closes one stage attempt: `Ok(None)` when it succeeded, `Ok(Some(e))`
/// with its failure otherwise, and `Err` for an injected crash point —
/// not a storage fault, so retrying it away would defeat the drill.
fn attempt_verdict(
    outcome: Result<(), OocError>,
    io: &IoShared,
    fault: &FaultOnce,
) -> Result<Option<OocError>, OocError> {
    fault.end_attempt();
    match (outcome, io.take_err()) {
        (_, Some(crash @ OocError::CrashPoint { .. })) => Err(crash),
        (Err(e), _) | (Ok(()), Some(e)) => Ok(Some(e)),
        (Ok(()), None) => Ok(None),
    }
}

/// Runs one stage under the recovery ladder: pipelined attempts with
/// backoff, then the serial tier, then a typed exhaustion error.
#[allow(clippy::too_many_arguments)]
fn run_stage_recovered(
    stage: &Stage<'_>,
    plan: &OocPlan,
    cfg: &OocConfig,
    buffer: &DoubleBuffer,
    io: &IoShared,
    fault: &FaultOnce,
    pending: &[usize],
    ckpt: Option<&CkptCtx<'_>>,
    retries: &mut u32,
    serial_fallbacks: &mut u32,
) -> Result<(), OocError> {
    let attempt = |tier| {
        let outcome = run_stage_attempt(stage, plan, cfg, buffer, tier, io, fault, pending, ckpt);
        attempt_verdict(outcome, io, fault)
    };
    let attempts = cfg.retry.max_attempts.max(1);
    let mut last = String::new();
    for n in 0..attempts {
        // Each attempt rewrites the stage's whole (pending)
        // destination, so reruns are idempotent.
        match attempt(Tier::Pipelined)? {
            None => return Ok(()),
            Some(e) => last = e.to_string(),
        }
        *retries += 1;
        mark_recovery(
            cfg,
            format!(
                "ooc {} attempt {} failed: {last}; retrying",
                stage.name,
                n + 1
            ),
        );
        let backoff = cfg.retry.backoff_for(n + 1);
        if n + 1 < attempts && !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }
    *serial_fallbacks += 1;
    mark_recovery(
        cfg,
        format!("ooc {} degraded to serial tier", stage.name),
    );
    match attempt(Tier::Serial)? {
        None => Ok(()),
        // A journal refusal is a verdict in its own right, not one more
        // storage failure to roll up.
        Some(e @ OocError::Journal(_)) => Err(e),
        Some(e) => Err(OocError::StageExhausted {
            stage: stage.name,
            attempts: attempts + 1,
            last: if last.is_empty() {
                e.to_string()
            } else {
                format!("{e} (after pipelined: {last})")
            },
        }),
    }
}

/// Executes the planned transform: `input` is an `n1 × n2` store of the
/// signal, `output` an `n2 × n1` store that receives the spectrum in
/// natural row-major order. Scratch stores live in `ws` (removed when
/// the workspace drops); the input store is never written, so the
/// oracle can re-read it afterwards.
pub fn execute(
    plan: &OocPlan,
    cfg: &OocConfig,
    ws: &crate::workspace::Workspace,
    input: &OocStore,
    output: &OocStore,
) -> Result<OocReport, OocError> {
    execute_resumable(plan, cfg, ws, input, output, None, None)
}

/// Order-independent checksum of the destination region a stage block
/// covers — the resume re-verify read-back. For a DFT stage the block
/// is `br` whole destination rows; for a transpose it is the
/// `br`-column band `[blk·br, blk·br + br)` of every destination row.
/// Either way the element multiset equals what the storers checksummed
/// when the block was journaled.
fn stage_block_read_checksum(
    stage: &Stage<'_>,
    br: usize,
    blk: usize,
    buf: &mut Vec<Complex64>,
) -> Result<u64, OocError> {
    let c = stage.src.cols();
    match stage.kind {
        StageKind::Dft { .. } => {
            buf.clear();
            buf.resize(br * c, Complex64::ZERO);
            stage
                .dst
                .read_rows(blk * br, buf)
                .map_err(|e| OocError::io("resume re-verify read", e))?;
            Ok(block_checksum(buf))
        }
        StageKind::Transpose => {
            buf.clear();
            buf.resize(br, Complex64::ZERO);
            let mut sum = 0u64;
            for row in 0..c {
                stage
                    .dst
                    .read_row_segment(row, blk * br, buf)
                    .map_err(|e| OocError::io("resume re-verify read", e))?;
                sum = sum.wrapping_add(block_checksum(buf));
            }
            Ok(sum)
        }
    }
}

/// Evenly spaced sample of the journaled block indices of one stage,
/// per the configured [`ResumeVerify`] policy.
fn verify_sample(blocks: &[usize], policy: ResumeVerify) -> Vec<usize> {
    match policy {
        ResumeVerify::All => blocks.to_vec(),
        ResumeVerify::Sample(k) => {
            let k = k.min(blocks.len());
            if k == 0 {
                return Vec::new();
            }
            let step = blocks.len().div_ceil(k).max(1);
            blocks.iter().copied().step_by(step).take(k).collect()
        }
    }
}

/// [`execute`] with crash-safety: when `journal` is set every completed
/// block commits a durable record, and when `resume` carries a
/// recovered [`JournalState`] the run validates it against the plan
/// geometry, re-verifies a sampled subset of journaled block checksums
/// against the scratch stores, skips everything the journal proves
/// done, and re-executes only the frontier stage's unjournaled blocks
/// (plus all later, never-started stages) — bounded rework by
/// construction.
#[allow(clippy::too_many_arguments)]
pub fn execute_resumable(
    plan: &OocPlan,
    cfg: &OocConfig,
    ws: &crate::workspace::Workspace,
    input: &OocStore,
    output: &OocStore,
    journal: Option<&Journal>,
    resume: Option<&JournalState>,
) -> Result<OocReport, OocError> {
    if input.rows() != plan.n1 || input.cols() != plan.n2 {
        return Err(OocError::Io {
            context: "input store shape",
            message: format!(
                "expected {}x{}, got {}x{}",
                plan.n1,
                plan.n2,
                input.rows(),
                input.cols()
            ),
        });
    }
    if output.rows() != plan.n2 || output.cols() != plan.n1 {
        return Err(OocError::Io {
            context: "output store shape",
            message: format!(
                "expected {}x{}, got {}x{}",
                plan.n2,
                plan.n1,
                output.rows(),
                output.cols()
            ),
        });
    }
    check_alloc_budget(
        "ooc working buffer",
        plan.half_elems * BYTES_PER_HALF_ELEM,
        Some(cfg.budget_bytes),
    )?;
    let buffer = DoubleBuffer::try_new(plan.half_elems)?;
    // Stage 1's diagonal over the `n2 × n1` matrix `t1`: built once,
    // shared by every attempt and tier. Its `16·(n1 + n2)` bytes sit
    // inside the planner's per-half charge (see `crate::plan`).
    let twiddles = FourStepTwiddles::try_new(plan.n2, plan.n1, plan.dir)?;

    // On resume, scratch the journal credits with completed work must
    // still exist — `open_or_create` would silently hand back zeroed
    // stores and the (sampled!) re-verify might not catch it.
    let scratch_shapes: [(&'static str, usize, usize, usize); 4] = [
        ("t1.bin", plan.n2, plan.n1, plan.stride_cols_n1),
        ("s1.bin", plan.n2, plan.n1, plan.stride_cols_n1),
        ("t2.bin", plan.n1, plan.n2, plan.stride_cols_n2),
        ("s2.bin", plan.n1, plan.n2, plan.stride_cols_n2),
    ];
    if let Some(st) = resume {
        for (k, (name, ..)) in scratch_shapes.iter().enumerate() {
            let credited = st.stage_done[k].is_some() || !st.blocks[k].is_empty();
            if credited && !ws.path(name).exists() {
                return Err(ResumeError::ScratchMissing {
                    store: name,
                    path: ws.path(name),
                }
                .into());
            }
        }
    }
    let mut scratch = Vec::with_capacity(4);
    for (name, rows, cols, stride) in scratch_shapes {
        let store = if resume.is_some() {
            OocStore::open_or_create(&ws.path(name), rows, cols, stride)?
        } else {
            OocStore::create(&ws.path(name), rows, cols, stride)?
        };
        scratch.push(store);
    }
    let (t1, s1, t2, s2) = (&scratch[0], &scratch[1], &scratch[2], &scratch[3]);

    let stages = [
        Stage {
            index: 0,
            name: STAGE_NAMES[0],
            src: input,
            dst: t1,
            kind: StageKind::Transpose,
        },
        Stage {
            index: 1,
            name: STAGE_NAMES[1],
            src: t1,
            dst: s1,
            kind: StageKind::Dft {
                twiddles: Some(&twiddles),
            },
        },
        Stage {
            index: 2,
            name: STAGE_NAMES[2],
            src: s1,
            dst: t2,
            kind: StageKind::Transpose,
        },
        Stage {
            index: 3,
            name: STAGE_NAMES[3],
            src: t2,
            dst: s2,
            kind: StageKind::Dft { twiddles: None },
        },
        Stage {
            index: 4,
            name: STAGE_NAMES[4],
            src: s2,
            dst: output,
            kind: StageKind::Transpose,
        },
    ];

    // Per-stage block geometry: must match what the journaled run
    // used, which the header guarantees (same n1/n2/half_elems).
    let geom: Vec<(usize, usize)> = stages
        .iter()
        .map(|s| {
            let r = s.src.rows();
            let c = s.src.cols();
            let br = (plan.half_elems / c).min(r).max(1);
            (br, r / br)
        })
        .collect();

    // Validate the recovered state against the plan geometry before
    // trusting a single record.
    let mut reverified_blocks = 0u64;
    if let Some(st) = resume {
        for (k, stage) in stages.iter().enumerate() {
            let (br, iters) = geom[k];
            if let Some(m) = st.stage_done[k] {
                if m != iters {
                    return Err(ResumeError::PlanMismatch {
                        field: "stage_blocks",
                        journaled: m as u64,
                        requested: iters as u64,
                    }
                    .into());
                }
            }
            if let Some((&max_blk, _)) = st.blocks[k].iter().next_back() {
                if max_blk >= iters {
                    return Err(ResumeError::BlockOutOfRange {
                        stage: stage.name,
                        block: max_blk,
                        blocks: iters,
                    }
                    .into());
                }
            }
            // Re-verify journaled checksums against the bytes actually
            // in the store — a crash can corrupt what it already
            // "completed", and skipping a corrupt block would launder
            // the corruption into the final spectrum.
            let journaled: Vec<usize> = st.blocks[k].keys().copied().collect();
            let mut buf = Vec::new();
            for blk in verify_sample(&journaled, cfg.checkpoint.resume_verify) {
                let computed = stage_block_read_checksum(stage, br, blk, &mut buf)?;
                let committed = st.blocks[k][&blk];
                if computed != committed {
                    return Err(ResumeError::ScratchCorrupt {
                        stage: stage.name,
                        block: blk,
                        journaled: committed,
                        computed,
                    }
                    .into());
                }
                reverified_blocks += 1;
            }
        }
        if let Some(trace) = cfg.trace.as_ref() {
            let frontier = st.frontier();
            trace.mark(
                MarkKind::Resume,
                format!(
                    "ooc resume: frontier {}, {} journaled blocks, {} re-verified",
                    STAGE_NAMES.get(frontier).copied().unwrap_or("complete"),
                    st.journaled_blocks(),
                    reverified_blocks
                ),
                None,
            );
        }
    }

    let ckpt_ctx = journal.map(|j| CkptCtx {
        journal: j,
        crash: cfg.checkpoint.crash,
    });
    let ckpt = ckpt_ctx.as_ref();
    let frontier = resume.map(JournalState::frontier);

    let io = IoShared::default();
    let fault = FaultOnce::new(cfg.fault);
    let mut retries = 0u32;
    let mut serial_fallbacks = 0u32;
    let mut skipped_blocks = 0u64;
    let mut rework_blocks = 0u64;
    let wall0 = Instant::now();
    for stage in &stages {
        let k = stage.index;
        let (_, iters) = geom[k];
        if resume.is_some_and(|st| st.stage_done[k].is_some()) {
            skipped_blocks += iters as u64;
            continue;
        }
        let pending: Vec<usize> = match resume {
            Some(st) if !st.blocks[k].is_empty() => (0..iters)
                .filter(|b| !st.blocks[k].contains_key(b))
                .collect(),
            _ => (0..iters).collect(),
        };
        skipped_blocks += (iters - pending.len()) as u64;
        if frontier == Some(k) {
            rework_blocks += pending.len() as u64;
        }
        if !pending.is_empty() {
            run_stage_recovered(
                stage,
                plan,
                cfg,
                &buffer,
                &io,
                &fault,
                &pending,
                ckpt,
                &mut retries,
                &mut serial_fallbacks,
            )?;
        }
        if let Some(j) = journal {
            // The stage record commits only after every block record:
            // a resume that sees it may skip the stage wholesale.
            j.append_stage(k, iters).map_err(OocError::Journal)?;
        }
    }
    let bytes_read = io.bytes_read.load(Ordering::Relaxed);
    let bytes_written = io.bytes_written.load(Ordering::Relaxed);
    let resumed = resume.is_some();
    Ok(OocReport {
        n: plan.n,
        n1: plan.n1,
        n2: plan.n2,
        half_elems: plan.half_elems,
        bytes_read,
        bytes_written,
        io_ns: io.io_ns.load(Ordering::Relaxed),
        wall_ns: wall0.elapsed().as_nanos() as u64,
        retries,
        serial_fallbacks,
        faults_hit: u32::from(fault.fired()),
        resumed,
        skipped_blocks,
        reverified_blocks,
        rework_blocks,
        resumed_bytes: if resumed { bytes_read + bytes_written } else { 0 },
    })
}

/// The same five-stage arithmetic run serially in RAM — the equality
/// oracle for tests: streaming, blocking, and retries must never
/// change a single bit relative to this.
pub fn four_step_in_ram(plan: &OocPlan, x: &[Complex64]) -> Vec<Complex64> {
    let (n1, n2) = (plan.n1, plan.n2);
    debug_assert_eq!(x.len(), plan.n);
    // transpose-in: n1×n2 → n2×n1
    let mut a = vec![Complex64::ZERO; plan.n];
    for a1 in 0..n1 {
        for a2 in 0..n2 {
            a[a2 * n1 + a1] = x[a1 * n2 + a2];
        }
    }
    // dft-n1-twiddle over rows of length n1
    let mut k = BatchFft::new(n1, 1, plan.dir);
    k.run(&mut a);
    let twiddles = FourStepTwiddles::new(n2, n1, plan.dir);
    for (a2, row) in a.chunks_mut(n1).enumerate() {
        twiddles.apply_row(a2, row);
    }
    // transpose-mid: n2×n1 → n1×n2
    let mut b = vec![Complex64::ZERO; plan.n];
    for a2 in 0..n2 {
        for k1 in 0..n1 {
            b[k1 * n2 + a2] = a[a2 * n1 + k1];
        }
    }
    // dft-n2 over rows of length n2
    let mut k = BatchFft::new(n2, 1, plan.dir);
    k.run(&mut b);
    // transpose-out: n1×n2 → n2×n1, read row-major ≡ natural order
    let mut y = vec![Complex64::ZERO; plan.n];
    for k1 in 0..n1 {
        for k2 in 0..n2 {
            y[k2 * n1 + k1] = b[k1 * n2 + k2];
        }
    }
    y
}
