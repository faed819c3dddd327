//! The degradation governor: a circuit breaker over the recovery
//! ladder.
//!
//! Where the per-request [`Supervisor`](bwfft_core::Supervisor)
//! escalates *one run* down the tier ladder, the breaker remembers how
//! the last few requests went and moves the *whole service* down the
//! same ladder: consecutive failures (integrity trips, exhausted retry
//! budgets, deadline misses) degrade new admissions from the pipelined
//! executor to fused, then to the reference executor, and finally to
//! reject-fast ([`BreakerLevel::Open`]). Recovery is by **count-based
//! half-open probing**: while open, every `probe_interval`-th
//! submission is admitted as a probe at the reference tier; a probe
//! success steps the breaker back up, and further consecutive successes
//! walk it back to normal. Counting submissions (rather than a
//! wall-clock cool-down) keeps the state machine deterministic under a
//! seeded load, which is what the chaos matrix replays.

use bwfft_core::RecoveryTier;
use bwfft_num::lock_tolerant;
use std::sync::Mutex;

/// The breaker's position on the degradation ladder. The first three
/// levels map onto [`RecoveryTier`]; `Open` admits only probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BreakerLevel {
    /// Full service: requests start on the pipelined executor.
    Normal,
    /// Degraded: requests start on the single-threaded fused executor.
    Fused,
    /// Heavily degraded: requests run the reference executor only.
    Reference,
    /// Reject-fast: no work admitted except half-open probes.
    Open,
}

impl BreakerLevel {
    /// The executor tier requests admitted at this level start on;
    /// `None` when open (nothing is admitted).
    pub fn tier(self) -> Option<RecoveryTier> {
        match self {
            BreakerLevel::Normal => Some(RecoveryTier::Pipelined),
            BreakerLevel::Fused => Some(RecoveryTier::Fused),
            BreakerLevel::Reference => Some(RecoveryTier::Reference),
            BreakerLevel::Open => None,
        }
    }

    /// Short stable token for reports and trace marks.
    pub fn token(self) -> &'static str {
        match self {
            BreakerLevel::Normal => "normal",
            BreakerLevel::Fused => "fused",
            BreakerLevel::Reference => "reference",
            BreakerLevel::Open => "open",
        }
    }

    fn degraded(self) -> BreakerLevel {
        match self {
            BreakerLevel::Normal => BreakerLevel::Fused,
            BreakerLevel::Fused => BreakerLevel::Reference,
            _ => BreakerLevel::Open,
        }
    }

    fn restored(self) -> BreakerLevel {
        match self {
            BreakerLevel::Open => BreakerLevel::Reference,
            BreakerLevel::Reference => BreakerLevel::Fused,
            _ => BreakerLevel::Normal,
        }
    }
}

impl core::fmt::Display for BreakerLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.token())
    }
}

/// Thresholds of the breaker state machine.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive request failures that trip the breaker one level
    /// down (≥ 1).
    pub failure_threshold: usize,
    /// Consecutive successes that step a degraded (but not open)
    /// breaker one level up (≥ 1).
    pub success_threshold: usize,
    /// While open, every `probe_interval`-th submission is admitted as
    /// a half-open probe instead of being rejected (≥ 1).
    pub probe_interval: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            success_threshold: 2,
            probe_interval: 4,
        }
    }
}

/// One recorded breaker state change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerTransition {
    pub from: BreakerLevel,
    pub to: BreakerLevel,
    /// What forced the change ("consecutive failures", "probe
    /// success", "consecutive successes").
    pub trigger: &'static str,
}

impl core::fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "breaker {} -> {} ({})", self.from, self.to, self.trigger)
    }
}

/// What the breaker says about one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admit, starting execution at `tier`. `probe` marks a half-open
    /// probe admitted through an otherwise-open breaker.
    Admit { tier: RecoveryTier, probe: bool },
    /// Reject fast: the breaker is open and this submission is not a
    /// probe slot.
    Reject,
}

struct BreakerState {
    level: BreakerLevel,
    consecutive_failures: usize,
    consecutive_successes: usize,
    /// Submissions seen while open since the last probe slot.
    since_probe: usize,
    transitions: Vec<BreakerTransition>,
}

/// The shared breaker. All methods take `&self`; clones of the owning
/// server share one instance behind an `Arc`.
pub struct Breaker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
}

impl Breaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        Breaker {
            cfg: BreakerConfig {
                failure_threshold: cfg.failure_threshold.max(1),
                success_threshold: cfg.success_threshold.max(1),
                probe_interval: cfg.probe_interval.max(1),
            },
            state: Mutex::new(BreakerState {
                level: BreakerLevel::Normal,
                consecutive_failures: 0,
                consecutive_successes: 0,
                since_probe: 0,
                transitions: Vec::new(),
            }),
        }
    }

    /// Admission decision for one submission. Counts probe slots while
    /// open, so calling this *is* the submission from the breaker's
    /// point of view.
    pub fn admit(&self) -> Admission {
        let mut s = lock_tolerant(&self.state);
        match s.level {
            BreakerLevel::Open => {
                s.since_probe += 1;
                if s.since_probe >= self.cfg.probe_interval {
                    s.since_probe = 0;
                    Admission::Admit {
                        tier: RecoveryTier::Reference,
                        probe: true,
                    }
                } else {
                    Admission::Reject
                }
            }
            level => Admission::Admit {
                // `tier()` is Some for every non-open level.
                tier: level.tier().unwrap_or(RecoveryTier::Reference),
                probe: false,
            },
        }
    }

    /// Records a completed request. Returns the transition when the
    /// success stepped the breaker up a level (probe success from open,
    /// or `success_threshold` consecutive successes elsewhere).
    pub fn on_success(&self) -> Option<BreakerTransition> {
        let mut s = lock_tolerant(&self.state);
        s.consecutive_failures = 0;
        if s.level == BreakerLevel::Open {
            // A half-open probe came back healthy: admit real work
            // again, but start it on the reference tier.
            s.consecutive_successes = 0;
            return Some(record(&mut s, BreakerLevel::Reference, "probe success"));
        }
        s.consecutive_successes += 1;
        if s.consecutive_successes >= self.cfg.success_threshold && s.level != BreakerLevel::Normal
        {
            s.consecutive_successes = 0;
            let to = s.level.restored();
            return Some(record(&mut s, to, "consecutive successes"));
        }
        None
    }

    /// Records a failed request (typed failure or deadline miss).
    /// Returns the transition when the failure tripped the breaker a
    /// level down.
    pub fn on_failure(&self) -> Option<BreakerTransition> {
        let mut s = lock_tolerant(&self.state);
        s.consecutive_successes = 0;
        if s.level == BreakerLevel::Open {
            // A failed probe: stay open, wait for the next probe slot.
            return None;
        }
        s.consecutive_failures += 1;
        if s.consecutive_failures >= self.cfg.failure_threshold {
            s.consecutive_failures = 0;
            let to = s.level.degraded();
            return Some(record(&mut s, to, "consecutive failures"));
        }
        None
    }

    /// The current level.
    pub fn level(&self) -> BreakerLevel {
        lock_tolerant(&self.state).level
    }

    /// Every transition taken so far, in order.
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        lock_tolerant(&self.state).transitions.clone()
    }
}

fn record(s: &mut BreakerState, to: BreakerLevel, trigger: &'static str) -> BreakerTransition {
    let t = BreakerTransition {
        from: s.level,
        to,
        trigger,
    };
    s.level = to;
    s.transitions.push(t.clone());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> Breaker {
        Breaker::new(BreakerConfig {
            failure_threshold: 2,
            success_threshold: 2,
            probe_interval: 3,
        })
    }

    #[test]
    fn failures_walk_the_ladder_down_to_open() {
        let b = tight();
        for expected in [
            BreakerLevel::Fused,
            BreakerLevel::Reference,
            BreakerLevel::Open,
        ] {
            assert_eq!(b.on_failure(), None);
            let t = b.on_failure().unwrap();
            assert_eq!(t.to, expected);
            assert_eq!(t.trigger, "consecutive failures");
        }
        assert_eq!(b.level(), BreakerLevel::Open);
        assert_eq!(b.transitions().len(), 3);
    }

    #[test]
    fn open_breaker_admits_every_nth_submission_as_probe() {
        let b = tight();
        for _ in 0..6 {
            b.on_failure();
        }
        assert_eq!(b.level(), BreakerLevel::Open);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(b.admit(), Admission::Reject);
        assert_eq!(
            b.admit(),
            Admission::Admit {
                tier: RecoveryTier::Reference,
                probe: true
            }
        );
        // The counter restarts after a probe slot.
        assert_eq!(b.admit(), Admission::Reject);
    }

    #[test]
    fn probe_success_half_closes_then_successes_restore_normal() {
        let b = tight();
        for _ in 0..6 {
            b.on_failure();
        }
        let t = b.on_success().unwrap();
        assert_eq!(t.to, BreakerLevel::Reference);
        assert_eq!(t.trigger, "probe success");
        // Two successes per step: Reference -> Fused -> Normal.
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_success().unwrap().to, BreakerLevel::Fused);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_success().unwrap().to, BreakerLevel::Normal);
        assert_eq!(b.level(), BreakerLevel::Normal);
        // Healthy service records nothing further.
        assert_eq!(b.on_success(), None);
    }

    #[test]
    fn interleaved_success_resets_the_failure_streak() {
        let b = tight();
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.level(), BreakerLevel::Normal);
    }

    #[test]
    fn failed_probe_keeps_the_breaker_open() {
        let b = tight();
        for _ in 0..6 {
            b.on_failure();
        }
        assert_eq!(b.on_failure(), None);
        assert_eq!(b.level(), BreakerLevel::Open);
    }

    #[test]
    fn levels_map_to_tiers_and_tokens() {
        assert_eq!(BreakerLevel::Normal.tier(), Some(RecoveryTier::Pipelined));
        assert_eq!(BreakerLevel::Fused.tier(), Some(RecoveryTier::Fused));
        assert_eq!(BreakerLevel::Reference.tier(), Some(RecoveryTier::Reference));
        assert_eq!(BreakerLevel::Open.tier(), None);
        assert_eq!(BreakerLevel::Open.token(), "open");
    }
}
