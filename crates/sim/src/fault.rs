//! Deterministic fault injection for the fault-tolerance layer.
//!
//! A [`FaultPlan`] is a *seeded, declarative* description of faults to
//! inject into a run: worker panics keyed by `(shard, attempt)`, NaN
//! stimulus bursts keyed by shard, and checkpoint-write failures keyed by
//! checkpoint sequence number. The plan is plain data threaded through
//! test-only seams (`SweepDriver::inject_faults`,
//! `RefinementFlow::set_fault_plan`), so every degradation path —
//! shard retry, quarantine, degraded merge, checkpoint fallback, crash
//! resume — is exercised deterministically: the same plan always produces
//! the same journal.

/// A declarative, deterministic plan of faults to inject.
///
/// An empty (default) plan injects nothing and is free to carry around —
/// the production paths only ever consult it with cheap slice scans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    panics: Vec<(usize, usize)>,
    nan_bursts: Vec<(usize, usize)>,
    checkpoint_write_failures: Vec<usize>,
    abort_after_checkpoint: Option<usize>,
    server_crash_after_n_checkpoints: Option<usize>,
}

impl FaultPlan {
    /// Creates an empty plan carrying `seed` (mixed into
    /// [`FaultPlan::retry_seed`] so distinct plans can ask for distinct
    /// retry noise).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.nan_bursts.is_empty()
            && self.checkpoint_write_failures.is_empty()
            && self.abort_after_checkpoint.is_none()
            && self.server_crash_after_n_checkpoints.is_none()
    }

    /// Injects a worker panic when shard `shard` runs attempt `attempt`
    /// (0-based: attempt 0 is the first try).
    pub fn panic_on(mut self, shard: usize, attempt: usize) -> Self {
        self.panics.push((shard, attempt));
        self
    }

    /// Prepends `samples` cycles of NaN stimulus to shard `shard` before
    /// its regular stimulus runs. The engine's range propagation rejects
    /// non-finite bounds, so the poisoned shard fails structurally — a
    /// deterministic stand-in for data-dependent numeric corruption,
    /// driving the same retry/quarantine paths as a worker panic.
    pub fn nan_burst(mut self, shard: usize, samples: usize) -> Self {
        self.nan_bursts.push((shard, samples));
        self
    }

    /// Makes the checkpoint write with sequence number `sequence` fail
    /// (the flow records a `checkpoint_failed` event and continues; the
    /// previous checkpoint on disk stays authoritative).
    pub fn fail_checkpoint_write(mut self, sequence: usize) -> Self {
        self.checkpoint_write_failures.push(sequence);
        self
    }

    /// Aborts the flow with `FlowError::Interrupted` right after
    /// checkpoint `sequence` is processed — a deterministic stand-in for
    /// killing the process mid-run, used by the crash-resume tests.
    pub fn abort_after_checkpoint(mut self, sequence: usize) -> Self {
        self.abort_after_checkpoint = Some(sequence);
        self
    }

    /// Crashes the whole job *server* — not just one flow — once `n`
    /// checkpoints have been written across all jobs since the server
    /// started. A deterministic stand-in for `kill -9` mid-job: the
    /// server stops abruptly (no drain, no terminal journal records),
    /// leaving recovery entirely to the write-ahead jobs log and the
    /// per-job checkpoint files. Used by the serve crash-recovery tests.
    pub fn server_crash_after_n_checkpoints(mut self, n: usize) -> Self {
        self.server_crash_after_n_checkpoints = Some(n);
        self
    }

    /// The server-wide checkpoint count after which the server should
    /// crash, if any.
    pub fn server_crash_checkpoints(&self) -> Option<usize> {
        self.server_crash_after_n_checkpoints
    }

    /// Whether shard `shard` should panic on attempt `attempt`.
    pub fn should_panic(&self, shard: usize, attempt: usize) -> bool {
        self.panics.contains(&(shard, attempt))
    }

    /// NaN burst length for shard `shard`, if any.
    pub fn nan_burst_for(&self, shard: usize) -> Option<usize> {
        self.nan_bursts
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|&(_, n)| n)
    }

    /// Whether the checkpoint write with sequence `sequence` should fail.
    pub fn fails_checkpoint_write(&self, sequence: usize) -> bool {
        self.checkpoint_write_failures.contains(&sequence)
    }

    /// The checkpoint sequence after which the flow should abort, if any.
    pub fn abort_checkpoint(&self) -> Option<usize> {
        self.abort_after_checkpoint
    }

    /// Deterministic re-seed for retry attempts.
    ///
    /// The sweep engine runs attempt `k` of a scenario under
    /// `retry_seed(seed, k)`, so a data-dependent failure is not replayed
    /// verbatim: a retry that succeeds merges the monitors of a
    /// fault-free run whose scenario seed is the re-seed. Attempt 0
    /// returns `base` unchanged.
    pub fn retry_seed(&self, base: u64, attempt: usize) -> u64 {
        if attempt == 0 {
            return base;
        }
        // SplitMix64-style avalanche over (base, plan seed, attempt).
        let mut z =
            base ^ self.seed.rotate_left(17) ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(!p.should_panic(0, 0));
        assert_eq!(p.nan_burst_for(3), None);
        assert!(!p.fails_checkpoint_write(0));
        assert_eq!(p.abort_checkpoint(), None);
    }

    #[test]
    fn triggers_are_keyed_exactly() {
        let p = FaultPlan::seeded(7)
            .panic_on(1, 0)
            .panic_on(1, 1)
            .nan_burst(2, 5)
            .fail_checkpoint_write(3)
            .abort_after_checkpoint(4)
            .server_crash_after_n_checkpoints(6);
        assert!(!p.is_empty());
        assert_eq!(p.server_crash_checkpoints(), Some(6));
        assert!(FaultPlan::seeded(7)
            .server_crash_after_n_checkpoints(0)
            .server_crash_checkpoints()
            .is_some());
        assert!(p.should_panic(1, 0));
        assert!(p.should_panic(1, 1));
        assert!(!p.should_panic(1, 2));
        assert!(!p.should_panic(0, 0));
        assert_eq!(p.nan_burst_for(2), Some(5));
        assert_eq!(p.nan_burst_for(1), None);
        assert!(p.fails_checkpoint_write(3));
        assert!(!p.fails_checkpoint_write(2));
        assert_eq!(p.abort_checkpoint(), Some(4));
    }

    #[test]
    fn retry_seed_is_stable_and_attempt_zero_is_identity() {
        let p = FaultPlan::seeded(99);
        assert_eq!(p.retry_seed(42, 0), 42);
        let a = p.retry_seed(42, 1);
        let b = p.retry_seed(42, 1);
        assert_eq!(a, b);
        assert_ne!(a, 42);
        assert_ne!(a, p.retry_seed(42, 2));
        // Different plan seeds give different retry streams.
        assert_ne!(a, FaultPlan::seeded(100).retry_seed(42, 1));
    }
}
