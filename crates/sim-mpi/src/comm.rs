//! Groups and communicators.
//!
//! The application-visible communicator machinery lives above the protocol
//! layer: a communicator is a set of application-world ranks plus a context id
//! used by the matching engine to separate message streams. Because SDR-MPI
//! gives every replica set its own transparent `MPI_COMM_WORLD` (Figure 6 of
//! the paper), the same context-id derivation runs identically inside every
//! replica, so all replicas agree on the ids of derived communicators without
//! any extra communication.

use crate::types::{CommId, Rank};

/// An ordered set of application-world ranks (the `MPI_Group` equivalent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<Rank>,
}

impl Group {
    /// Group containing world ranks `0..n`.
    pub fn world(n: usize) -> Self {
        Group {
            members: (0..n).collect(),
        }
    }

    /// Group from an explicit member list (must not contain duplicates).
    pub fn from_members(members: Vec<Rank>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for m in &members {
            assert!(seen.insert(*m), "duplicate rank {m} in group");
        }
        Group { members }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Is the group empty?
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The world rank of group member `group_rank`.
    pub fn world_rank(&self, group_rank: Rank) -> Rank {
        self.members[group_rank]
    }

    /// The group rank of `world_rank`, if it is a member.
    pub fn rank_of(&self, world_rank: Rank) -> Option<Rank> {
        // Members are unique, so a member sitting at its own index — every
        // member of a world or prefix group — is the scan's answer; only
        // permuted and sparse groups pay the scan. `Process::wait` asks this
        // for every completed receive.
        if self.members.get(world_rank) == Some(&world_rank) {
            return Some(world_rank);
        }
        self.members.iter().position(|&m| m == world_rank)
    }

    /// Does the group contain `world_rank`?
    pub fn contains(&self, world_rank: Rank) -> bool {
        self.rank_of(world_rank).is_some()
    }

    /// Members in group-rank order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }
}

/// A communicator as seen by one process: context id, member group, and this
/// process's rank within it.
#[derive(Debug, Clone)]
pub struct CommInfo {
    /// Matching-engine context id (agreed by all members).
    pub id: CommId,
    /// Member group (application-world ranks).
    pub group: Group,
    /// This process's rank within the communicator.
    pub my_rank: Rank,
    /// Per-communicator collective sequence number (used to build collision-
    /// free internal tags for successive collective operations).
    pub coll_seq: u64,
    /// Counter of contexts derived from this communicator (dup/split), used
    /// to derive agreed child context ids without communication.
    pub derived: u64,
}

impl CommInfo {
    /// The world communicator for an application of `n` ranks, seen from
    /// `my_rank`.
    pub fn world(n: usize, my_rank: Rank) -> Self {
        CommInfo {
            id: CommId::WORLD,
            group: Group::world(n),
            my_rank,
            coll_seq: 0,
            derived: 0,
        }
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// Translate a communicator rank to an application-world rank.
    pub fn world_rank(&self, comm_rank: Rank) -> Rank {
        self.group.world_rank(comm_rank)
    }

    /// Translate an application-world rank to a communicator rank.
    pub fn comm_rank_of(&self, world_rank: Rank) -> Option<Rank> {
        self.group.rank_of(world_rank)
    }
}

/// Derive a child context id from a parent context. All members of the parent
/// call this with the same `derivation_index`; members that end up in the same
/// child (same `color`) therefore agree on the id, and different colors get
/// different ids. The hash is a simple 64-bit mix (SplitMix64-style), stable
/// across platforms.
pub fn derive_comm_id(parent: CommId, derivation_index: u64, color: i64) -> CommId {
    let mut z = parent
        .0
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(derivation_index)
        .wrapping_add((color as u64).wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    // Avoid colliding with the reserved ids.
    CommId(z | 0x1_0000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_identity_mapping() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        for r in 0..4 {
            assert_eq!(g.world_rank(r), r);
            assert_eq!(g.rank_of(r), Some(r));
        }
        assert_eq!(g.rank_of(4), None);
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_members_rejected() {
        Group::from_members(vec![0, 1, 1]);
    }

    #[test]
    fn comm_info_rank_translation() {
        let mut info = CommInfo::world(8, 5);
        info.group = Group::from_members(vec![1, 3, 5, 7]);
        info.my_rank = 2;
        assert_eq!(info.size(), 4);
        assert_eq!(info.world_rank(2), 5);
        assert_eq!(info.comm_rank_of(7), Some(3));
        assert_eq!(info.comm_rank_of(0), None);
    }

    #[test]
    fn derived_ids_agree_for_same_inputs_and_differ_otherwise() {
        let a = derive_comm_id(CommId::WORLD, 0, 0);
        let b = derive_comm_id(CommId::WORLD, 0, 0);
        assert_eq!(a, b, "same derivation must agree across processes");
        assert_ne!(
            derive_comm_id(CommId::WORLD, 1, 0),
            a,
            "different index differs"
        );
        assert_ne!(
            derive_comm_id(CommId::WORLD, 0, 1),
            a,
            "different color differs"
        );
        assert_ne!(a, CommId::WORLD);
        assert_ne!(a, CommId::INTERNAL);
    }
}
