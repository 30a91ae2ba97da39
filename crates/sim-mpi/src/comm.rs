//! The world communicator: one per replica set.
//!
//! SDR-MPI gives every replica set its own transparent `MPI_COMM_WORLD`
//! (Figure 6 of the paper): the processes of replica `k` see ranks `0..n` and
//! nothing else, while the protocol's own traffic runs on the internal world
//! ([`CommId::INTERNAL`]) below the application. A job therefore has exactly
//! one application communicator, the world, and a communicator rank *is* an
//! application-world rank: no group, no rank translation and no derived
//! context ids. Every call still takes a [`crate::Comm`] handle, as MPI
//! calls do; a handle that is not [`crate::Comm::WORLD`] is rejected.

use crate::types::{CommId, Rank};

/// The world communicator as one process sees it: its context id, its size,
/// this process's rank in it, and the collective sequence number.
#[derive(Debug, Clone)]
pub struct CommInfo {
    /// Matching-engine context id ([`CommId::WORLD`]).
    pub id: CommId,
    /// Number of application ranks.
    pub size: usize,
    /// This process's rank.
    pub my_rank: Rank,
    /// Collective sequence number (used to build collision-free internal
    /// tags for successive collective operations).
    pub coll_seq: u64,
}

impl CommInfo {
    /// The world communicator for an application of `n` ranks, seen from
    /// `my_rank`.
    pub fn world(n: usize, my_rank: Rank) -> Self {
        CommInfo {
            id: CommId::WORLD,
            size: n,
            my_rank,
            coll_seq: 0,
        }
    }
}
