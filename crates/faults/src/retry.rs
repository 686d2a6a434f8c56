//! Bounded retries with exponential backoff, accounted in model time.

use sn_arch::TimeSecs;

/// Retry budget applied to a faultable phase (expert switching, model
/// execution, routing). All times are simulated: backoff is charged into
/// the serving report's recovery component, not slept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff charged after the first failed attempt.
    pub base_backoff: TimeSecs,
    /// Backoff growth per subsequent failure (exponential).
    pub backoff_multiplier: f64,
    /// Cap on the wasted time a single failed attempt can charge — the
    /// per-phase timeout: a hung operation is abandoned after this long.
    pub attempt_timeout: TimeSecs,
}

impl RetryPolicy {
    /// Production default: three retries, 0.5 ms initial backoff doubling
    /// each attempt, 250 ms per-attempt timeout. The backoff is tiny next
    /// to a ~13 ms expert switch — it models control-plane turnaround,
    /// not politeness to a remote service.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: TimeSecs::from_micros(500.0),
            backoff_multiplier: 2.0,
            attempt_timeout: TimeSecs::from_millis(250.0),
        }
    }

    /// Fail-fast: no retries, immediate escalation to the caller.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: TimeSecs::ZERO,
            backoff_multiplier: 1.0,
            attempt_timeout: TimeSecs::from_millis(250.0),
        }
    }

    /// Ceiling on a single backoff charge. Exponential growth overflows
    /// `f64` range around attempt ~1000 with the standard multiplier;
    /// long before that the charge stops modeling anything physical, so
    /// one backoff never exceeds this bound (one minute of model time).
    pub const MAX_BACKOFF: TimeSecs = TimeSecs::from_secs(60.0);

    /// Backoff charged after failed attempt number `attempt` (0-based),
    /// capped at [`RetryPolicy::MAX_BACKOFF`] so absurd attempt counts
    /// cannot overflow to infinity (or NaN) and poison every downstream
    /// latency sum. Below the cap the arithmetic is untouched —
    /// small-attempt charges stay bit-identical to the uncapped form.
    pub fn backoff(&self, attempt: u32) -> TimeSecs {
        let raw = self.base_backoff * self.backoff_multiplier.powi(attempt.min(4096) as i32);
        if raw.as_secs().is_finite() {
            raw.min(Self::MAX_BACKOFF)
        } else {
            Self::MAX_BACKOFF
        }
    }

    /// The wasted time charged for one failed attempt that would have
    /// taken `attempt_cost` on success: capped by the per-phase timeout.
    pub fn charge(&self, attempt_cost: TimeSecs) -> TimeSecs {
        attempt_cost.min(self.attempt_timeout)
    }

    /// Drives `op` until it succeeds or the retry budget is exhausted.
    ///
    /// `op(attempt)` returns `Ok(value)` or `Err(wasted)` where `wasted`
    /// is the model time the failed attempt consumed before the fault was
    /// detected. Wasted time (timeout-capped) plus backoff accumulates
    /// into the returned [`Recovery`].
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, TimeSecs>,
    ) -> Result<(T, Recovery), RetryError> {
        let mut recovery = Recovery::default();
        for attempt in 0..=self.max_retries {
            match op(attempt) {
                Ok(value) => return Ok((value, recovery)),
                Err(wasted) => {
                    recovery.retries += 1;
                    recovery.time += self.charge(wasted) + self.backoff(attempt);
                }
            }
        }
        Err(RetryError {
            attempts: self.max_retries + 1,
            recovery,
        })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Time and attempts lost to faults before an operation succeeded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Recovery {
    /// Wasted attempt time plus backoff, in model time.
    pub time: TimeSecs,
    /// Failed attempts absorbed (0 on a clean first try).
    pub retries: u32,
}

impl Recovery {
    pub fn merge(&mut self, other: Recovery) {
        self.time += other.time;
        self.retries += other.retries;
    }
}

/// The retry budget ran out without a success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryError {
    /// Attempts made (first try plus retries).
    pub attempts: u32,
    /// Time burned before giving up.
    pub recovery: Recovery,
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gave up after {} attempts ({} lost)",
            self.attempts, self.recovery.time
        )
    }
}

impl std::error::Error for RetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_charges_nothing() {
        let policy = RetryPolicy::standard();
        let (value, recovery) = policy.run(|_| Ok::<_, TimeSecs>(41)).unwrap();
        assert_eq!(value, 41);
        assert_eq!(recovery.retries, 0);
        assert!(recovery.time.is_zero());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy::standard();
        assert_eq!(
            policy.backoff(2).as_secs(),
            policy.backoff(0).as_secs() * 4.0
        );
    }

    #[test]
    fn backoff_is_capped_at_large_attempt_counts() {
        let policy = RetryPolicy::standard();
        // Well past f64 overflow territory for 2^n growth: the charge
        // must stay finite and pinned at the cap, not inf/NaN.
        for attempt in [60, 1_000, 100_000, u32::MAX] {
            let b = policy.backoff(attempt);
            assert!(b.as_secs().is_finite(), "attempt {attempt}: {b}");
            assert_eq!(b, RetryPolicy::MAX_BACKOFF, "attempt {attempt}");
        }
        // Below the cap, the exponential form is untouched.
        assert_eq!(
            policy.backoff(3).as_secs(),
            policy.base_backoff.as_secs() * 8.0
        );
    }

    #[test]
    fn backoff_cap_survives_extreme_multipliers() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_backoff: TimeSecs::from_secs(1.0),
            backoff_multiplier: f64::MAX,
            attempt_timeout: TimeSecs::from_millis(250.0),
        };
        assert_eq!(policy.backoff(2), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn wasted_time_accumulates_until_success() {
        let policy = RetryPolicy::standard();
        let mut tries = 0;
        let (value, recovery) = policy
            .run(|attempt| {
                tries += 1;
                if attempt < 2 {
                    Err(TimeSecs::from_millis(10.0))
                } else {
                    Ok("served")
                }
            })
            .unwrap();
        assert_eq!(value, "served");
        assert_eq!(tries, 3);
        assert_eq!(recovery.retries, 2);
        let expect = TimeSecs::from_millis(20.0) + policy.backoff(0) + policy.backoff(1);
        assert!((recovery.time.as_secs() - expect.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn timeout_caps_each_attempt() {
        let policy = RetryPolicy::standard();
        let err = policy
            .run::<()>(|_| Err(TimeSecs::from_secs(60.0)))
            .unwrap_err();
        assert_eq!(err.attempts, 4);
        // Each attempt charges at most the 250 ms timeout (plus backoff).
        assert!(err.recovery.time.as_secs() < 4.0 * 0.25 + 0.01);
    }

    #[test]
    fn fail_fast_makes_one_attempt() {
        let policy = RetryPolicy::none();
        let mut tries = 0;
        let err = policy
            .run::<()>(|_| {
                tries += 1;
                Err(TimeSecs::from_millis(1.0))
            })
            .unwrap_err();
        assert_eq!(tries, 1);
        assert_eq!(err.attempts, 1);
    }
}
