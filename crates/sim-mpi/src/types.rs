//! Basic MPI-like identifiers, wildcards, statuses and errors.

use sim_net::EndpointId;
use std::fmt;

/// A logical MPI rank within a communicator (the application-level identity).
pub type Rank = usize;

/// A message tag.
pub type Tag = i64;

/// Wildcard source: receive from any rank (the paper's `MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i64 = -1;

/// Wildcard tag: match any tag (`MPI_ANY_TAG`).
pub const ANY_TAG: Tag = -1;

/// Source specification for a receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Receive only from this rank.
    Rank(Rank),
    /// Receive from any rank (`MPI_ANY_SOURCE`).
    Any,
}

impl Source {
    /// Convert an `i64`-style source (`>=0` rank or [`ANY_SOURCE`]).
    pub fn from_i64(v: i64) -> Source {
        if v == ANY_SOURCE {
            Source::Any
        } else {
            Source::Rank(v as usize)
        }
    }

    /// Is this the wildcard?
    pub fn is_any(&self) -> bool {
        matches!(self, Source::Any)
    }
}

/// Tag specification for a receive request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagSel {
    /// Match only this tag.
    Tag(Tag),
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
}

impl TagSel {
    /// Convert an `i64`-style tag (`>=0` tag or [`ANY_TAG`]).
    pub fn from_i64(v: i64) -> TagSel {
        if v == ANY_TAG {
            TagSel::Any
        } else {
            TagSel::Tag(v)
        }
    }

    /// Does `tag` satisfy this selector?
    pub fn matches(&self, tag: Tag) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Tag(t) => *t == tag,
        }
    }
}

/// Identifier of a communicator context. All members of a communicator agree
/// on this value; the matching engine uses it to separate message streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

impl CommId {
    /// The application-visible world communicator id.
    pub const WORLD: CommId = CommId(1);
    /// The internal (cross-replica) world used by replication protocols for
    /// protocol traffic. Mirrors the paper's duplicated `MPI_COMM_WORLD` kept
    /// internal to SDR-MPI (Figure 6).
    pub const INTERNAL: CommId = CommId(0);
}

/// Completion status of a receive, as reported to the application
/// (the `MPI_Status` equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank of the sender within the communicator of the receive.
    pub source: Rank,
    /// Tag of the received message.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
}

/// Errors surfaced by the runtime. Most misuse is reported by panicking (like
/// an MPI implementation aborting the job); errors are reserved for conditions
/// an application or protocol might want to observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A blocking operation can never complete: the scheduler's quiescence
    /// check found every unfinished process blocked with no message in
    /// flight, so the simulated application is deadlocked.
    Deadlock {
        /// Physical process that detected the deadlock.
        endpoint: EndpointId,
        /// Human-readable description of what the process was waiting for.
        waiting_for: String,
    },
    /// Operation on an unknown or already-freed request handle.
    InvalidRequest,
    /// Operation on a rank outside the communicator.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// Size of the communicator.
        size: usize,
    },
    /// The peer process failed and the operation cannot complete under the
    /// active protocol (e.g. no replica left to substitute).
    PeerFailed {
        /// The failed physical process.
        endpoint: EndpointId,
    },
    /// Every replica of an application rank has failed: no substitute can be
    /// elected and the job cannot make progress (the paper would fall back to
    /// checkpoint/restart here). Surfaced as a clear job failure instead of a
    /// hang.
    RankLost {
        /// The application rank whose replicas are all gone.
        rank: usize,
        /// The job's replication degree.
        degree: usize,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Deadlock {
                endpoint,
                waiting_for,
            } => {
                write!(
                    f,
                    "deadlock detected on process {}: waiting for {waiting_for}",
                    endpoint.0
                )
            }
            MpiError::InvalidRequest => write!(f, "invalid request handle"),
            MpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::PeerFailed { endpoint } => {
                write!(f, "peer process {} failed", endpoint.0)
            }
            MpiError::RankLost { rank, degree } => {
                write!(
                    f,
                    "rank {rank} lost all {degree} {RANK_LOST_CLAUSE} \
                     (the job cannot continue without checkpoint/restart)"
                )
            }
        }
    }
}

/// The clause only the [`MpiError::RankLost`] rendering contains.
const RANK_LOST_CLAUSE: &str = "replicas; no substitute available";

impl MpiError {
    /// Is `msg` the rendering of a [`MpiError::RankLost`]? Process outcomes
    /// keep only the panic text of an unwound error, so harnesses that must
    /// tell a prompt rank-loss abort from any other panic ask this — the one
    /// place that knows the format, right next to the `Display` arm that
    /// writes it.
    pub fn is_rank_lost_message(msg: &str) -> bool {
        msg.starts_with("rank ") && msg.contains(" lost all ") && msg.contains(RANK_LOST_CLAUSE)
    }
}

impl std::error::Error for MpiError {}

/// Convenience result type.
pub type MpiResult<T> = Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_wildcard_roundtrip() {
        assert_eq!(Source::from_i64(ANY_SOURCE), Source::Any);
        assert_eq!(Source::from_i64(3), Source::Rank(3));
        assert!(Source::Any.is_any());
        assert!(!Source::Rank(0).is_any());
    }

    #[test]
    fn tag_selector_matching() {
        assert!(TagSel::Any.matches(0));
        assert!(TagSel::Any.matches(12345));
        assert!(TagSel::Tag(7).matches(7));
        assert!(!TagSel::Tag(7).matches(8));
        assert_eq!(TagSel::from_i64(ANY_TAG), TagSel::Any);
        assert_eq!(TagSel::from_i64(9), TagSel::Tag(9));
    }

    #[test]
    fn comm_ids_reserved() {
        assert_ne!(CommId::WORLD, CommId::INTERNAL);
    }

    #[test]
    fn error_display_is_informative() {
        let e = MpiError::Deadlock {
            endpoint: EndpointId(3),
            waiting_for: "ack from replica 1".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("process 3"));
        assert!(s.contains("ack from replica 1"));
        assert!(format!("{}", MpiError::InvalidRank { rank: 9, size: 4 }).contains("9"));
    }
}
