//! Typed failure diagnosis of the multi-process backend.
//!
//! Every way a distributed run can go wrong maps to one [`DistError`]
//! variant, so callers can distinguish the recoverable regimes (a rank
//! died, stalled, or sent a corrupt frame — `ProcessTransport::recover`
//! handles these) from the unrecoverable ones (the host cannot fork at
//! all — degrade to the in-process transport).

use crate::sys::WaitStatus;
use lms_part::wire::WireError;

/// A diagnosed failure of the multi-process transport.
#[derive(Debug)]
pub enum DistError {
    /// Rank processes could not be created (fork/pipe/handshake failed).
    /// Not recoverable by respawn — the caller should degrade to the
    /// in-process transport.
    Spawn(std::io::Error),
    /// A rank process exited mid-protocol; `status` is its reaped wait
    /// status (exit code or terminating signal).
    RankExited { rank: u32, status: WaitStatus },
    /// A rank process is alive but produced no readable data within the
    /// coordinator's `poll(2)` read timeout. `waited_ms` is the total
    /// wall time the coordinator has spent polling this rank's stream
    /// over the whole run, and `last_phase` names the last protocol
    /// phase the rank completed (e.g. `color_step#3`) — together they
    /// say *where* the rank wedged, not just that it did.
    RankStalled { rank: u32, timeout_ms: i32, waited_ms: u64, last_phase: String },
    /// A rank's stream delivered a torn, corrupt, or undecodable frame
    /// (the silent-error half of the failure model — detected by the
    /// wire v2 checksum).
    Wire { rank: u32, error: WireError },
    /// The rank's connection is gone but its process is not known to be
    /// dead: the peer closed its stream (socket EOF / reset) while
    /// `waitpid` still reports it alive, or the rank is an external
    /// standalone worker with no pid to reap at all. Recoverable like
    /// [`RankExited`](Self::RankExited) — kill what can be killed,
    /// reconnect-and-reload from the checkpoint.
    ConnLost { rank: u32, detail: String },
    /// A rank never joined the group: connecting to (or accepting on)
    /// `addr` failed even after the supervisor's bounded
    /// exponential-backoff retries. At spawn time the caller degrades
    /// to the in-process transport; during recovery the driver retries
    /// against its budget.
    ConnRefused { addr: String, attempts: u32, detail: String },
    /// A rank sent a well-formed frame that violates the protocol state
    /// machine (e.g. a `Report` where a `RoundDone` was due).
    Protocol { rank: u32, frame: String },
    /// Teardown found ranks that did not exit cleanly: one `(rank, wait
    /// status)` entry per abnormal child.
    Shutdown { failures: Vec<(u32, WaitStatus)> },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn(e) => write!(f, "cannot spawn rank processes: {e}"),
            DistError::RankExited { rank, status } => {
                write!(f, "rank {rank} died mid-protocol ({status})")
            }
            DistError::RankStalled { rank, timeout_ms, waited_ms, last_phase } => {
                write!(
                    f,
                    "rank {rank} stalled (no data within {timeout_ms}ms; \
                     waited {waited_ms}ms total, last completed {last_phase})"
                )
            }
            DistError::Wire { rank, error } => {
                write!(f, "corrupt stream from rank {rank}: {error}")
            }
            DistError::ConnLost { rank, detail } => {
                write!(f, "lost connection to rank {rank} ({detail})")
            }
            DistError::ConnRefused { addr, attempts, detail } => {
                write!(f, "rank connection at {addr} refused after {attempts} attempt(s): {detail}")
            }
            DistError::Protocol { rank, frame } => {
                write!(f, "rank {rank} broke protocol: unexpected {frame}")
            }
            DistError::Shutdown { failures } => {
                write!(f, "ranks exited abnormally at shutdown:")?;
                for (rank, status) in failures {
                    write!(f, " [rank {rank}: {status}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Spawn(e) => Some(e),
            DistError::Wire { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(DistError, &str)> = vec![
            (DistError::Spawn(std::io::Error::other("no forks left")), "no forks left"),
            (
                DistError::RankExited { rank: 3, status: WaitStatus(9) },
                "rank 3 died mid-protocol (killed by signal 9)",
            ),
            (
                DistError::RankStalled {
                    rank: 1,
                    timeout_ms: 250,
                    waited_ms: 731,
                    last_phase: "color_step#3".into(),
                },
                "250ms",
            ),
            (
                DistError::RankStalled {
                    rank: 1,
                    timeout_ms: 250,
                    waited_ms: 731,
                    last_phase: "color_step#3".into(),
                },
                "last completed color_step#3",
            ),
            (
                DistError::Wire {
                    rank: 2,
                    error: lms_part::wire::WireError::BadChecksum { expected: 1, got: 2 },
                },
                "corrupt stream from rank 2",
            ),
            (DistError::Protocol { rank: 0, frame: "Shutdown".into() }, "unexpected Shutdown"),
            (
                DistError::ConnLost {
                    rank: 2,
                    detail: "peer closed the stream (process still alive)".into(),
                },
                "lost connection to rank 2",
            ),
            (
                DistError::ConnLost { rank: 2, detail: "process still alive".into() },
                "process still alive",
            ),
            (
                DistError::ConnRefused {
                    addr: "tcp:127.0.0.1:9".into(),
                    attempts: 12,
                    detail: "Connection refused (os error 111)".into(),
                },
                "refused after 12 attempt(s)",
            ),
            (
                DistError::ConnRefused {
                    addr: "unix:/tmp/x.sock".into(),
                    attempts: 1,
                    detail: "no worker connected within 300ms".into(),
                },
                "unix:/tmp/x.sock",
            ),
            (
                DistError::Shutdown { failures: vec![(1, WaitStatus(0x0b00))] },
                "[rank 1: exit code 11]",
            ),
        ];
        for (err, needle) in cases {
            let shown = err.to_string();
            assert!(shown.contains(needle), "{shown:?} should mention {needle:?}");
            let _: &dyn std::error::Error = &err;
        }
    }
}
