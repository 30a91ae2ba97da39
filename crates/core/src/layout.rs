//! Mapping between logical MPI ranks, replica ids and physical processes.
//!
//! The paper's layout (Figure 6) is one line of arithmetic: with `n` ranks,
//! physical process `P` plays rank `P mod n` in replica set `P div n`.
//! [`ReplicaMap`] is that line, widened to PartRePer-MPI-style partial
//! replication: the ranks of a sorted `replicated` subset run `degree` times,
//! every other rank once. All first copies come first, then the further
//! copies in subset order:
//!
//! ```text
//! endpoint(r, 0) = r
//! endpoint(r, k) = n + (k − 1)·|replicated| + slot[r]     (slot[r]: r's index in `replicated`)
//! ```
//!
//! With every rank replicated `slot[r] = r`, and this is the paper's
//! `k·n + r`. Numbering is the only thing a map decides: every physical
//! process is its own node, so replicas never share one.
//!
//! The map also fixes the *routing rule* for mixed per-rank degrees: the
//! replica `k` of rank `i` receives rank `j`'s messages directly from replica
//! `k mod degree(j)` of `j` ([`ReplicaMap::direct_src`]), and sends its own
//! messages directly to every replica `m` of the destination with
//! `m mod degree(i) == k` ([`ReplicaMap::direct_dests`]). For uniform degrees
//! this degenerates to the paper's "replica `k` talks to replica `k`"; at a
//! degree boundary it keeps the two sides consistent (a singleton sender
//! feeds *every* replica of a replicated destination and expects no
//! acknowledgements, a replicated sender to a singleton destination sends one
//! direct copy from replica 0 while the other replicas collect the
//! receiver's acknowledgement).

use sim_mpi::Rank;
use sim_net::EndpointId;

/// A set of replicas of one rank, one bit per replica index.
pub(crate) type ReplicaMask = u64;

/// `slot` value of a rank that runs once.
const UNREPLICATED: u32 = u32::MAX;

/// Why a partial replica map could not be constructed from a rank subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The replicated-rank set is empty — use a plain singleton (native) job
    /// instead of a degenerate partial one.
    EmptyReplicatedSet,
    /// A replicated rank does not exist in the job.
    RankOutOfRange {
        /// The offending rank.
        rank: Rank,
        /// The number of logical ranks in the job.
        ranks: usize,
    },
    /// A rank appears twice in the replicated set.
    DuplicateRank {
        /// The duplicated rank.
        rank: Rank,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::EmptyReplicatedSet => {
                write!(
                    f,
                    "partial replica map needs a non-empty replicated-rank set"
                )
            }
            LayoutError::RankOutOfRange { rank, ranks } => {
                write!(
                    f,
                    "replicated rank {rank} out of range (job has {ranks} ranks)"
                )
            }
            LayoutError::DuplicateRank { rank } => {
                write!(f, "rank {rank} appears twice in the replicated set")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// The rank/replica ↔ endpoint mapping of a replicated job: a bijection
/// between the pairs `{(rank, replica) : replica < degree_of(rank)}` and the
/// endpoint range `0..physical_processes()`, numbered as the module docs say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    ranks: usize,
    /// Degree of every replicated rank; the others run once.
    degree: usize,
    /// The replicated ranks, sorted.
    replicated: Vec<Rank>,
    /// Each rank's index in `replicated`, or `UNREPLICATED`.
    slot: Vec<u32>,
    /// `(rank, replica)` of every endpoint: [`ReplicaMap::locate`] is a
    /// lookup.
    located: Vec<(u32, u32)>,
}

impl ReplicaMap {
    /// Every one of `ranks` logical ranks replicated `degree` times (the
    /// paper's `r · n` product).
    pub fn uniform(ranks: usize, degree: usize) -> Self {
        assert!(ranks > 0, "replica map needs at least one rank");
        assert!(degree >= 1, "replica map needs degree >= 1");
        ReplicaMap::from_sorted(ranks, degree, (0..ranks).collect())
    }

    /// Partial replication: the ranks in `replicated` run at degree 2, every
    /// other rank is a singleton. Crashing a singleton is not survivable —
    /// the protocol surfaces a prompt typed [`sim_mpi::MpiError::RankLost`] —
    /// but crashes of replicated ranks are masked exactly as under full dual
    /// replication.
    pub fn partial(ranks: usize, replicated: &[Rank]) -> Result<Self, LayoutError> {
        if replicated.is_empty() {
            return Err(LayoutError::EmptyReplicatedSet);
        }
        let mut sorted = replicated.to_vec();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(LayoutError::DuplicateRank { rank: pair[0] });
        }
        if let Some(&rank) = sorted.iter().find(|&&r| r >= ranks) {
            return Err(LayoutError::RankOutOfRange { rank, ranks });
        }
        Ok(ReplicaMap::from_sorted(ranks, 2, sorted))
    }

    /// Partial replication of the first `ceil(coverage · ranks)` ranks — the
    /// deterministic subset the overhead-vs-coverage sweep uses. A coverage
    /// of 1.0 is endpoint-identical to `uniform(ranks, 2)`.
    pub fn with_coverage(ranks: usize, coverage: f64) -> Result<Self, LayoutError> {
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage {coverage} must be within [0, 1]"
        );
        let count = ((coverage * ranks as f64).ceil() as usize).min(ranks);
        ReplicaMap::partial(ranks, &(0..count).collect::<Vec<_>>())
    }

    fn from_sorted(ranks: usize, degree: usize, replicated: Vec<Rank>) -> Self {
        let mut slot = vec![UNREPLICATED; ranks];
        for (i, &rank) in replicated.iter().enumerate() {
            slot[rank] = i as u32;
        }
        let copies = replicated.len();
        let located = (0..ranks + (degree - 1) * copies)
            .map(|e| match e.checked_sub(ranks) {
                None => (e as u32, 0),
                Some(j) => (replicated[j % copies] as u32, (1 + j / copies) as u32),
            })
            .collect();
        ReplicaMap {
            ranks,
            degree,
            replicated,
            slot,
            located,
        }
    }

    /// Number of logical MPI ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Replication degree of one logical rank (≥ 1).
    #[inline]
    pub fn degree_of(&self, rank: Rank) -> usize {
        if self.slot[rank] == UNREPLICATED {
            1
        } else {
            self.degree
        }
    }

    /// Largest per-rank degree in the map.
    pub fn max_degree(&self) -> usize {
        self.degree
    }

    /// Does `rank` have a second copy to fall back on?
    pub fn is_replicated(&self, rank: Rank) -> bool {
        self.degree_of(rank) >= 2
    }

    /// Total number of physical processes (`Σ degree_of`).
    pub fn physical_processes(&self) -> usize {
        self.ranks + (self.degree - 1) * self.replicated.len()
    }

    /// The physical process playing `rank` in replica slot `replica`.
    #[inline]
    pub fn endpoint(&self, rank: Rank, replica: usize) -> EndpointId {
        assert!(
            rank < self.ranks && replica < self.degree_of(rank),
            "rank {rank} replica {replica} out of range"
        );
        if replica == 0 {
            EndpointId(rank)
        } else {
            EndpointId(
                self.ranks + (replica - 1) * self.replicated.len() + self.slot[rank] as usize,
            )
        }
    }

    /// The (rank, replica) identity of a physical process.
    #[inline]
    pub fn locate(&self, endpoint: EndpointId) -> (Rank, usize) {
        let e = endpoint.0;
        let Some(&(rank, replica)) = self.located.get(e) else {
            panic!("endpoint {e} out of range");
        };
        (rank as Rank, replica as usize)
    }

    /// The logical rank of a physical process.
    #[inline]
    pub fn rank_of(&self, endpoint: EndpointId) -> Rank {
        self.locate(endpoint).0
    }

    /// The lowest replica index of `rank` whose endpoint `alive` (indexed by
    /// endpoint id; missing entries count as dead) marks live, or `None`
    /// when every replica is dead. This is the one election of the protocol:
    /// Algorithm 1's `electSubstitute`. Every survivor evaluates it on the
    /// same liveness view, so it needs no message exchange.
    pub fn lowest_live_replica(&self, rank: Rank, alive: &[bool]) -> Option<usize> {
        (0..self.degree_of(rank)).find(|&rep| {
            alive
                .get(self.endpoint(rank, rep).0)
                .copied()
                .unwrap_or(false)
        })
    }

    /// The replica of `src_rank` that replica `my_replica` (of any rank)
    /// receives application messages from directly.
    pub fn direct_src(&self, my_replica: usize, src_rank: Rank) -> EndpointId {
        self.endpoint(src_rank, my_replica % self.degree_of(src_rank))
    }

    /// The replicas of `dst_rank` that replica `my_replica` of `my_rank`
    /// sends application messages to directly. Exactly the inverse of
    /// [`ReplicaMap::direct_src`]: destination replica `m` is served by
    /// source replica `m mod degree_of(my_rank)`.
    pub fn direct_dests(&self, my_rank: Rank, my_replica: usize, dst_rank: Rank) -> ReplicaMask {
        let my_degree = self.degree_of(my_rank);
        (0..self.degree_of(dst_rank))
            .filter(|m| m % my_degree == my_replica)
            .fold(0, |mask, m| mask | 1 << m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_locate_roundtrip() {
        let l = ReplicaMap::uniform(4, 3);
        assert_eq!(l.physical_processes(), 12);
        for rank in 0..4 {
            for rep in 0..3 {
                let e = l.endpoint(rank, rep);
                assert_eq!(l.locate(e), (rank, rep));
                assert_eq!(l.rank_of(e), rank);
            }
        }
    }

    #[test]
    fn replica_sets_are_contiguous() {
        let l = ReplicaMap::uniform(3, 2);
        let set = |rep| (0..3).map(|r| l.endpoint(r, rep)).collect::<Vec<_>>();
        assert_eq!(set(0), vec![EndpointId(0), EndpointId(1), EndpointId(2)]);
        assert_eq!(set(1), vec![EndpointId(3), EndpointId(4), EndpointId(5)]);
    }

    #[test]
    fn degree_one_is_identity() {
        let l = ReplicaMap::uniform(5, 1);
        for r in 0..5 {
            assert_eq!(l.endpoint(r, 0), EndpointId(r));
            assert!(!l.is_replicated(r));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        ReplicaMap::uniform(2, 2).endpoint(2, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        ReplicaMap::uniform(2, 2).locate(EndpointId(4));
    }

    #[test]
    fn partial_numbers_first_copies_then_seconds() {
        // 4 ranks, ranks 1 and 3 replicated: endpoints 0..4 are the first
        // copies, 4 and 5 the second copies of ranks 1 and 3.
        let l = ReplicaMap::partial(4, &[3, 1]).unwrap();
        assert_eq!(l.physical_processes(), 6);
        assert_eq!(l.endpoint(2, 0), EndpointId(2));
        assert_eq!(l.endpoint(1, 1), EndpointId(4));
        assert_eq!(l.endpoint(3, 1), EndpointId(5));
        assert_eq!(l.locate(EndpointId(4)), (1, 1));
        assert_eq!(l.locate(EndpointId(5)), (3, 1));
        assert_eq!(l.degree_of(0), 1);
        assert_eq!(l.degree_of(1), 2);
    }

    #[test]
    fn partial_validation_is_typed() {
        assert_eq!(
            ReplicaMap::partial(4, &[]).unwrap_err(),
            LayoutError::EmptyReplicatedSet
        );
        assert_eq!(
            ReplicaMap::partial(4, &[4]).unwrap_err(),
            LayoutError::RankOutOfRange { rank: 4, ranks: 4 }
        );
        assert_eq!(
            ReplicaMap::partial(4, &[1, 1]).unwrap_err(),
            LayoutError::DuplicateRank { rank: 1 }
        );
    }

    #[test]
    fn with_coverage_replicates_rank_prefix() {
        let l = ReplicaMap::with_coverage(8, 0.25).unwrap();
        assert_eq!((0..8).filter(|&r| l.is_replicated(r)).count(), 2);
        assert!(l.is_replicated(0) && l.is_replicated(1));
        let full = ReplicaMap::with_coverage(8, 1.0).unwrap();
        assert_eq!(full, ReplicaMap::uniform(8, 2));
    }

    #[test]
    fn mixed_degree_routing_is_consistent() {
        // Rank 0 replicated, rank 1 a singleton: the singleton sender feeds
        // both replicas of rank 0 directly; a replicated sender to the
        // singleton sends one direct copy from replica 0.
        let l = ReplicaMap::partial(2, &[0]).unwrap();
        assert_eq!(l.direct_dests(1, 0, 0), 0b11);
        assert_eq!(l.direct_dests(0, 0, 1), 0b1);
        assert_eq!(l.direct_dests(0, 1, 1), 0);
        // Receiver side agrees: each replica of rank 0 receives rank 1's
        // messages from the singleton, and the singleton receives rank 0's
        // from replica 0.
        assert_eq!(l.direct_src(0, 1), l.endpoint(1, 0));
        assert_eq!(l.direct_src(1, 1), l.endpoint(1, 0));
        assert_eq!(l.direct_src(0, 0), l.endpoint(0, 0));
    }
}
