//! Fault injection for the pipeline executor and the machine simulator.
//!
//! A [`FaultPlan`] describes misbehaviour to inject into a run so the
//! containment machinery (catch_unwind, abort flag, watchdog, integrity
//! guards, degradation policy) can be exercised deterministically from
//! tests and from the CLI. The real executor consumes
//! [`FaultPlan::panic_at`], [`FaultPlan::stall`],
//! [`FaultPlan::corrupt_at`] and [`FaultPlan::deny_pinning`] — the fused
//! schedule reads the panic and stall sites with thread-0 semantics and
//! ignores the rest (see [`crate::exec::run_fused`]); the
//! allocation budget [`FaultPlan::fail_alloc_over`] is honoured by the
//! core executors' buffer allocations; the simulator additionally
//! honours the bandwidth deratings.
//!
//! Faults are keyed by a [`FaultSite`]: role, role-local thread index,
//! pipeline iteration (block index), and the [`FaultPhase`] within the
//! step. The fault matrix is symmetric over all three phases: a `Data`
//! fault can fire during the load *or* the store/writeback of block
//! `iter`, a `Compute` fault during its kernel. Because the Table II
//! schedule has a prologue (loads only), a steady state and an epilogue
//! (stores only), choosing `iter` 0, a middle block or the last block
//! exercises all three regions of the schedule.

use crate::roles::Role;
use core::time::Duration;

/// Which phase of a pipeline step a fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPhase {
    /// The data thread's load of block `iter`.
    Load,
    /// The compute thread's kernel on block `iter`.
    Compute,
    /// The data thread's store/writeback of block `iter`.
    Store,
}

impl FaultPhase {
    /// The conventional phase of a role's "natural" fault, used by the
    /// phase-agnostic constructors: data threads fault on load, compute
    /// threads on compute.
    pub fn default_for(role: Role) -> Self {
        match role {
            Role::Data => FaultPhase::Load,
            Role::Compute => FaultPhase::Compute,
        }
    }
}

/// One (role, thread, iteration, phase) coordinate in the pipeline
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    pub role: Role,
    /// Role-local thread index (data thread j or compute thread j).
    pub thread: usize,
    /// Block index whose `phase` triggers the fault.
    pub iter: usize,
    /// The phase within the step.
    pub phase: FaultPhase,
}

impl FaultSite {
    /// Site with the role's conventional phase (Data → Load,
    /// Compute → Compute).
    pub fn new(role: Role, thread: usize, iter: usize) -> Self {
        FaultSite {
            role,
            thread,
            iter,
            phase: FaultPhase::default_for(role),
        }
    }

    /// Fully phase-qualified site.
    pub fn at_phase(role: Role, thread: usize, iter: usize, phase: FaultPhase) -> Self {
        FaultSite {
            role,
            thread,
            iter,
            phase,
        }
    }
}

/// A finite busy-stall injected before a worker's phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallFault {
    pub site: FaultSite,
    /// How long the worker sleeps before doing its work. With an
    /// watchdog budget shorter than this, peers report
    /// `PipelineError::StageTimeout`.
    pub duration: Duration,
}

/// Misbehaviour to inject into a run. `Default` is the empty plan
/// (no faults).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Panic inside the worker closure at this site.
    pub panic_at: Option<FaultSite>,
    /// Sleep inside the worker closure at this site.
    pub stall: Option<StallFault>,
    /// Silently corrupt one buffer element *after* the site's phase has
    /// completed (and after any integrity checksum was accumulated), so
    /// the guard at the next handoff — not the fault itself — must
    /// catch it. Only `Load` and `Compute` phases corrupt buffer state
    /// the pipeline can still detect; a `Store`-phase site is accepted
    /// but corrupts nothing (output-side corruption is the soak
    /// harness's reference comparison's job).
    pub corrupt_at: Option<FaultSite>,
    /// Report every pin request as failed without calling the OS —
    /// drives the pinning-degradation path deterministically.
    pub deny_pinning: bool,
    /// Deny any single buffer allocation larger than this many bytes —
    /// drives the OOM-recovery path (typed `AllocError`, plan shrink)
    /// deterministically. Honoured by the core executors' allocation
    /// sites, not by the OS allocator.
    pub fail_alloc_over: Option<usize>,
    /// Multiply simulated DRAM bandwidth by this factor in (0, 1].
    /// Ignored by the real executor.
    pub dram_derate: Option<f64>,
    /// Multiply simulated inter-socket link bandwidth by this factor
    /// in (0, 1]. Ignored by the real executor.
    pub link_derate: Option<f64>,
}

impl FaultPlan {
    /// Empty plan; alias for `Default::default()` that reads better at
    /// call sites.
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan with a single injected panic at the role's conventional
    /// phase.
    pub fn panic_at(role: Role, thread: usize, iter: usize) -> Self {
        FaultPlan {
            panic_at: Some(FaultSite::new(role, thread, iter)),
            ..Self::default()
        }
    }

    /// Plan with a single injected panic at an explicit phase.
    pub fn panic_at_phase(role: Role, thread: usize, iter: usize, phase: FaultPhase) -> Self {
        FaultPlan {
            panic_at: Some(FaultSite::at_phase(role, thread, iter, phase)),
            ..Self::default()
        }
    }

    /// Plan with a single injected stall at the role's conventional
    /// phase.
    pub fn stall_at(role: Role, thread: usize, iter: usize, duration: Duration) -> Self {
        FaultPlan {
            stall: Some(StallFault {
                site: FaultSite::new(role, thread, iter),
                duration,
            }),
            ..Self::default()
        }
    }

    /// Plan with a single injected stall at an explicit phase.
    pub fn stall_at_phase(
        role: Role,
        thread: usize,
        iter: usize,
        phase: FaultPhase,
        duration: Duration,
    ) -> Self {
        FaultPlan {
            stall: Some(StallFault {
                site: FaultSite::at_phase(role, thread, iter, phase),
                duration,
            }),
            ..Self::default()
        }
    }

    /// Plan with a single silent corruption after the site's phase.
    pub fn corrupt_at(role: Role, thread: usize, iter: usize, phase: FaultPhase) -> Self {
        FaultPlan {
            corrupt_at: Some(FaultSite::at_phase(role, thread, iter, phase)),
            ..Self::default()
        }
    }

    /// Builder-style: deny pinning on top of the existing plan.
    pub fn with_denied_pinning(mut self) -> Self {
        self.deny_pinning = true;
        self
    }

    /// Builder-style: deny allocations above `bytes` on top of the
    /// existing plan.
    pub fn with_alloc_budget(mut self, bytes: usize) -> Self {
        self.fail_alloc_over = Some(bytes);
        self
    }

    /// True when the plan injects nothing the real executor reacts to
    /// and no deratings.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_none()
            && self.stall.is_none()
            && self.corrupt_at.is_none()
            && !self.deny_pinning
            && self.fail_alloc_over.is_none()
            && self.dram_derate.is_none()
            && self.link_derate.is_none()
    }

    /// The panic site's iter if it matches `(role, thread, phase)`, for
    /// the executor's per-thread fast check.
    pub(crate) fn panic_site_for(&self, role: Role, thread: usize, phase: FaultPhase) -> Option<usize> {
        self.panic_at
            .filter(|s| s.role == role && s.thread == thread && s.phase == phase)
            .map(|s| s.iter)
    }

    /// The stall (iter, duration) if it matches `(role, thread, phase)`.
    pub(crate) fn stall_for(
        &self,
        role: Role,
        thread: usize,
        phase: FaultPhase,
    ) -> Option<(usize, Duration)> {
        self.stall
            .filter(|s| s.site.role == role && s.site.thread == thread && s.site.phase == phase)
            .map(|s| (s.site.iter, s.duration))
    }

    /// The corruption site's iter if it matches `(role, thread, phase)`.
    pub(crate) fn corrupt_for(&self, role: Role, thread: usize, phase: FaultPhase) -> Option<usize> {
        self.corrupt_at
            .filter(|s| s.role == role && s.thread == thread && s.phase == phase)
            .map(|s| s.iter)
    }
}

/// Installs (once per process) a panic hook that suppresses the stderr
/// report for panics whose message starts with
/// [`crate::exec::INJECTED_FAULT_PREFIX`]. Injected faults are caught
/// by the executor and surfaced as typed errors; the default hook's
/// "thread panicked at ..." line would be pure noise for them. All
/// other panics are reported through the previously installed hook.
///
/// Intended for fault-injection tests and CLI fault drills.
pub fn silence_injected_panic_reports() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with(crate::exec::INJECTED_FAULT_PREFIX) {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::panic_at(Role::Data, 0, 0).is_empty());
        assert!(!FaultPlan::none().with_denied_pinning().is_empty());
        assert!(!FaultPlan::none().with_alloc_budget(1024).is_empty());
        assert!(!FaultPlan::corrupt_at(Role::Data, 0, 0, FaultPhase::Load).is_empty());
    }

    #[test]
    fn site_matching_is_role_thread_and_phase_scoped() {
        let p = FaultPlan::panic_at(Role::Compute, 1, 5);
        assert_eq!(p.panic_site_for(Role::Compute, 1, FaultPhase::Compute), Some(5));
        assert_eq!(p.panic_site_for(Role::Compute, 0, FaultPhase::Compute), None);
        assert_eq!(p.panic_site_for(Role::Data, 1, FaultPhase::Load), None);

        let s = FaultPlan::stall_at(Role::Data, 0, 2, Duration::from_millis(10));
        assert_eq!(
            s.stall_for(Role::Data, 0, FaultPhase::Load),
            Some((2, Duration::from_millis(10)))
        );
        assert_eq!(s.stall_for(Role::Data, 0, FaultPhase::Store), None);
        assert_eq!(s.stall_for(Role::Compute, 0, FaultPhase::Compute), None);
    }

    #[test]
    fn store_phase_sites_are_distinct_from_load_sites() {
        let p = FaultPlan::panic_at_phase(Role::Data, 0, 3, FaultPhase::Store);
        assert_eq!(p.panic_site_for(Role::Data, 0, FaultPhase::Store), Some(3));
        assert_eq!(p.panic_site_for(Role::Data, 0, FaultPhase::Load), None);

        let s = FaultPlan::stall_at_phase(
            Role::Data,
            1,
            2,
            FaultPhase::Store,
            Duration::from_millis(7),
        );
        assert_eq!(
            s.stall_for(Role::Data, 1, FaultPhase::Store),
            Some((2, Duration::from_millis(7)))
        );
        assert_eq!(s.stall_for(Role::Data, 1, FaultPhase::Load), None);
    }

    #[test]
    fn corruption_sites_match_by_phase() {
        let p = FaultPlan::corrupt_at(Role::Compute, 0, 1, FaultPhase::Compute);
        assert_eq!(p.corrupt_for(Role::Compute, 0, FaultPhase::Compute), Some(1));
        assert_eq!(p.corrupt_for(Role::Data, 0, FaultPhase::Load), None);
    }

    #[test]
    fn default_phases_follow_roles() {
        assert_eq!(FaultPhase::default_for(Role::Data), FaultPhase::Load);
        assert_eq!(FaultPhase::default_for(Role::Compute), FaultPhase::Compute);
        assert_eq!(
            FaultSite::new(Role::Data, 0, 0).phase,
            FaultPhase::Load
        );
    }
}
