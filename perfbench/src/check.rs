//! Failure counting: a wrong answer, an unexpected error or a panic is one
//! failed operation.

use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    const KEPT_REASONS: usize = 8;

    /// Counts one attempted operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.fail(why);
        }
    }

    /// Marks an already-counted operation failed (a check made after the
    /// timed region found it wrong).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// A 64-bit digest of an answer, so every response can be compared with
/// its oracle after the timed region without keeping the response.
pub fn digest(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_answers_errors_and_panics_all_count_as_failures() {
        let mut t = Tally::default();
        t.record(guarded(|| Ok(())));
        t.record(guarded(|| Err("wrong answer".to_string())));
        t.record(guarded(|| -> Result<(), String> { panic!("boom") }));
        t.record(guarded(|| -> Result<(), String> {
            panic!("{}", String::from("owned boom"))
        }));
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(
            t.reasons,
            vec!["wrong answer", "panic: boom", "panic: owned boom"]
        );
        assert!(!t.correct());
        // A check after the timed region fails an operation already counted.
        let mut late = Tally::default();
        late.record(Ok(()));
        assert!(late.correct());
        late.fail("oracle mismatch".into());
        assert_eq!((late.attempted, late.failed), (1, 1));
        assert!(
            !Tally::default().correct(),
            "nothing attempted is not a pass"
        );
    }

    #[test]
    fn reasons_are_capped() {
        let mut t = Tally::default();
        for i in 0..20 {
            t.record(Err(format!("e{i}")));
        }
        assert_eq!(t.failed, 20);
        assert_eq!(t.reasons.len(), Tally::KEPT_REASONS);
    }

    #[test]
    fn digest_tells_answers_apart() {
        assert_eq!(digest("a|b"), digest("a|b"));
        assert_ne!(digest("a|b"), digest("a|c"));
    }
}
