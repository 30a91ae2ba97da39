//! Cluster topology and process placement.
//!
//! The paper runs on 64 nodes with 8 cores each; each MPI process gets a
//! dedicated core and the two replicas of a logical rank are placed on
//! *different* nodes (first replica set on the first half of the nodes, second
//! set on the other half). We reproduce that placement policy here so that the
//! cost model can distinguish intra-node from inter-node traffic and so that a
//! node crash can take out the right set of processes.

/// Identifier of a simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A homogeneous cluster: `nodes` nodes with `cores_per_node` cores each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// Number of nodes.
    pub nodes: usize,
    /// Cores (process slots) per node.
    pub cores_per_node: usize,
}

impl Cluster {
    /// The Grid'5000 Nancy configuration used in the paper: 64 nodes, 2×4-core
    /// Xeon L5420 per node.
    pub fn grid5000_nancy() -> Self {
        Cluster {
            nodes: 64,
            cores_per_node: 8,
        }
    }

    /// Construct an arbitrary cluster.
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes > 0 && cores_per_node > 0, "cluster must be non-empty");
        Cluster {
            nodes,
            cores_per_node,
        }
    }

    /// Total process slots.
    pub fn capacity(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// How physical processes are assigned to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Fill nodes one after the other (process `p` on node `p / cores_per_node`).
    Packed,
    /// Round-robin over nodes (process `p` on node `p % nodes`).
    RoundRobin,
    /// The paper's replica placement: with `n` logical ranks and replication
    /// degree `r`, replica set `k` (physical processes `k*n .. (k+1)*n`) is
    /// packed onto the `k`-th slice of the nodes. Different replicas of the
    /// same rank therefore never share a node.
    ReplicaSets {
        /// Number of logical ranks `n`.
        ranks: usize,
        /// Replication degree `r`.
        degree: usize,
    },
    /// Fully explicit assignment (process index → node).
    Explicit(Vec<NodeId>),
}

impl Placement {
    /// Node hosting physical process `proc` out of `total` processes on `cluster`.
    ///
    /// Panics if the placement cannot host `total` processes.
    pub fn node_of(&self, proc: usize, total: usize, cluster: &Cluster) -> NodeId {
        assert!(
            proc < total,
            "process index {proc} out of range (total {total})"
        );
        assert!(
            total <= cluster.capacity(),
            "cluster capacity {} cannot host {} processes",
            cluster.capacity(),
            total
        );
        match self {
            Placement::Packed => NodeId(proc / cluster.cores_per_node),
            Placement::RoundRobin => NodeId(proc % cluster.nodes),
            Placement::ReplicaSets { ranks, degree } => {
                assert_eq!(
                    total,
                    ranks * degree,
                    "ReplicaSets placement expects total = ranks * degree"
                );
                let replica = proc / ranks;
                let rank = proc % ranks;
                let nodes_per_set = cluster.nodes / degree;
                assert!(
                    nodes_per_set > 0,
                    "cluster has fewer nodes ({}) than replication degree ({degree})",
                    cluster.nodes
                );
                let within = rank / cluster.cores_per_node;
                NodeId(replica * nodes_per_set + (within % nodes_per_set))
            }
            Placement::Explicit(map) => {
                assert!(map.len() >= total, "explicit placement too short");
                map[proc]
            }
        }
    }

    /// Convenience: do two processes share a node under this placement?
    pub fn same_node(&self, a: usize, b: usize, total: usize, cluster: &Cluster) -> bool {
        self.node_of(a, total, cluster) == self.node_of(b, total, cluster)
    }

    /// All processes hosted by `node` (used by node-level failure injection).
    pub fn processes_on_node(&self, node: NodeId, total: usize, cluster: &Cluster) -> Vec<usize> {
        (0..total)
            .filter(|&p| self.node_of(p, total, cluster) == node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_fills_nodes_in_order() {
        let c = Cluster::new(4, 2);
        let p = Placement::Packed;
        assert_eq!(p.node_of(0, 8, &c), NodeId(0));
        assert_eq!(p.node_of(1, 8, &c), NodeId(0));
        assert_eq!(p.node_of(2, 8, &c), NodeId(1));
        assert_eq!(p.node_of(7, 8, &c), NodeId(3));
    }

    #[test]
    fn round_robin_cycles() {
        let c = Cluster::new(3, 4);
        let p = Placement::RoundRobin;
        assert_eq!(p.node_of(0, 9, &c), NodeId(0));
        assert_eq!(p.node_of(4, 9, &c), NodeId(1));
        assert_eq!(p.node_of(5, 9, &c), NodeId(2));
    }

    #[test]
    fn replica_sets_separate_replicas() {
        // 8 ranks, degree 2, on 4 nodes x 4 cores.
        let c = Cluster::new(4, 4);
        let p = Placement::ReplicaSets {
            ranks: 8,
            degree: 2,
        };
        for rank in 0..8 {
            let a = p.node_of(rank, 16, &c);
            let b = p.node_of(8 + rank, 16, &c);
            assert_ne!(a, b, "replicas of rank {rank} must be on different nodes");
        }
    }

    #[test]
    fn replica_sets_matches_paper_halving() {
        // The paper: "the first set of 256 replicas run on the first half of
        // the nodes, and the second set on the other half."
        let c = Cluster::grid5000_nancy();
        let p = Placement::ReplicaSets {
            ranks: 256,
            degree: 2,
        };
        for rank in 0..256 {
            assert!(p.node_of(rank, 512, &c).0 < 32);
            assert!(p.node_of(256 + rank, 512, &c).0 >= 32);
        }
    }

    #[test]
    fn processes_on_node_inverse_of_node_of() {
        let c = Cluster::new(4, 2);
        let p = Placement::Packed;
        let procs = p.processes_on_node(NodeId(1), 8, &c);
        assert_eq!(procs, vec![2, 3]);
        for pr in procs {
            assert_eq!(p.node_of(pr, 8, &c), NodeId(1));
        }
    }

    #[test]
    fn explicit_placement_is_honoured() {
        let c = Cluster::new(4, 2);
        let p = Placement::Explicit(vec![NodeId(3), NodeId(1), NodeId(1)]);
        assert_eq!(p.node_of(0, 3, &c), NodeId(3));
        assert!(p.same_node(1, 2, 3, &c));
        assert!(!p.same_node(0, 1, 3, &c));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_panics() {
        let c = Cluster::new(2, 2);
        Placement::Packed.node_of(4, 4, &c);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn over_capacity_panics() {
        let c = Cluster::new(1, 2);
        Placement::Packed.node_of(0, 3, &c);
    }

    #[test]
    fn grid5000_capacity() {
        assert_eq!(Cluster::grid5000_nancy().capacity(), 512);
    }
}
