//! Output checks. Every check is one attempted operation; a failed check
//! is a failed operation and is never skipped, so `failed / attempted` is
//! the run's error rate.

use rememberr::Database;

/// Failure messages kept for the report on stderr.
const NOTES_KEPT: usize = 20;

/// The tally of attempted and failed operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: passes, requests and checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation; `what` describes it when it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < NOTES_KEPT {
                self.notes.push(what());
            }
        }
        ok
    }

    /// An untraced unit must run with observability off.
    pub fn obs_off(&mut self) -> bool {
        self.record(!rememberr_obs::is_enabled(), || {
            "observability is on in an untraced unit".to_string()
        })
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The saved snapshot bytes must load back to the database they came
    /// from.
    pub fn snapshot_reloads(&mut self, bytes: &[u8], db: &Database) -> bool {
        let reloaded = rememberr::load(bytes);
        self.record(
            matches!(&reloaded, Ok(back) if back == db),
            || match reloaded {
                Ok(_) => "snapshot reloads to a different database".to_string(),
                Err(e) => format!("snapshot does not reload: {e}"),
            },
        )
    }

    /// A response must carry status 200.
    pub fn status_ok(&mut self, target: &str, status: u16) -> bool {
        self.record(status == 200, || format!("{target}: status {status}"))
    }

    /// The indexed engine's body must equal the scan oracle's, byte for
    /// byte.
    pub fn bodies_match(&mut self, target: &str, indexed: &[u8], scan: &[u8]) -> bool {
        self.record(indexed == scan, || {
            format!(
                "{target}: indexed body ({} bytes) differs from scan body ({} bytes)",
                indexed.len(),
                scan.len()
            )
        })
    }

    /// Every pass must produce the same database bytes.
    pub fn same_hash(&mut self, what: &str, expected: u64, got: u64) -> bool {
        self.record(expected == got, || {
            format!("{what}: database hash {got:016x} differs from {expected:016x}")
        })
    }
}

/// FNV-1a 64 hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_raise_the_error_rate() {
        let mut checks = Checks::default();
        assert!(checks.status_ok("/healthz", 200));
        assert_eq!(checks.error_rate(), 0.0);
        assert!(!checks.status_ok("/query?vendor=via", 400));
        assert!(!checks.bodies_match("/count", b"1\n", b"2\n"));
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!(checks.error_rate() > 0.0);
        assert_eq!(checks.notes.len(), 2);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
