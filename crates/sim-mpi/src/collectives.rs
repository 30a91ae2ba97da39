//! Collective operations, implemented on top of the point-to-point layer.
//!
//! The paper assumes (Section 2.2, footnote 2) that collectives are built on
//! the point-to-point functions, which is why intercepting at the PML boundary
//! makes SDR-MPI support every collective "for free". We follow the same
//! structure: every collective below is written purely in terms of
//! `isend_bytes` / `irecv_bytes` / `wait`, so whichever protocol is active
//! (native, SDR-MPI, mirror, leader-based, redMPI) transparently applies to
//! collective traffic too.
//!
//! These are the collectives the workloads call. Algorithms are the textbook
//! ones used by MPICH/Open MPI for medium-size messages: binomial trees for
//! bcast/reduce, recursive doubling for allreduce (power-of-two) and
//! pairwise alltoall.

use crate::datatype;
use crate::process::{Comm, Process};
use crate::types::Rank;
use bytes::Bytes;

/// Element-wise reduction operators over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise product.
    Prod,
}

impl ReduceOp {
    /// Apply the operator to two `f64` operands.
    pub fn apply_f64(&self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// `acc[i] = acc[i] op other[i]`. `other` is any exact-length sequence,
    /// so a received payload is combined straight from its bytes
    /// ([`datatype::iter_f64s`]) without a `Vec` in between.
    fn combine_f64s(
        &self,
        acc: &mut [f64],
        other: impl IntoIterator<Item = f64, IntoIter: ExactSizeIterator>,
    ) {
        let other = other.into_iter();
        assert_eq!(
            acc.len(),
            other.len(),
            "reduction operands must have equal length"
        );
        for (a, b) in acc.iter_mut().zip(other) {
            *a = self.apply_f64(*a, b);
        }
    }
}

mod op_code {
    pub const BCAST: i64 = 2;
    pub const REDUCE: i64 = 3;
    pub const ALLREDUCE: i64 = 4;
    pub const ALLTOALL: i64 = 8;
}

impl Process {
    /// `MPI_Bcast` of raw bytes using a binomial tree. The root passes
    /// `Some(data)`; every process (including the root) gets the data back.
    pub fn bcast_bytes(&mut self, comm: Comm, root: Rank, data: Option<Bytes>) -> Bytes {
        let size = self.comm_size(comm);
        let rank = self.comm_rank(comm);
        let tag = self.next_coll_tag(comm, op_code::BCAST);
        let mut buf = if rank == root {
            data.expect("root must provide the broadcast payload")
        } else {
            Bytes::new()
        };
        if size <= 1 {
            return buf;
        }
        let rel = (rank + size - root) % size;
        // Receive phase: find the lowest set bit of the relative rank.
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let src = (rank + size - mask) % size;
                let (_, payload) = self.recv_bytes(comm, src as i64, tag);
                buf = payload;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children.
        mask >>= 1;
        while mask > 0 {
            if rel + mask < size {
                let dst = (rank + mask) % size;
                self.send_bytes(comm, dst, tag, buf.clone());
            }
            mask >>= 1;
        }
        buf
    }

    /// Binomial-tree reduce over `acc`: on return the root's `acc` holds the
    /// result (elsewhere a partial one). Received payloads are combined
    /// straight from their bytes, so a round allocates only what it sends.
    fn reduce_in_place(&mut self, comm: Comm, root: Rank, op: ReduceOp, acc: &mut [f64]) {
        let size = self.comm_size(comm);
        let rank = self.comm_rank(comm);
        let tag = self.next_coll_tag(comm, op_code::REDUCE);
        if size <= 1 {
            return;
        }
        let rel = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < size {
                    let src = (src_rel + root) % size;
                    let (_, other) = self.recv_bytes(comm, src as i64, tag);
                    op.combine_f64s(acc, datatype::iter_f64s(&other));
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = (dst_rel + root) % size;
                self.send_bytes(comm, dst, tag, datatype::f64s_to_bytes(acc));
                break;
            }
            mask <<= 1;
        }
    }

    /// The allreduce behind [`Process::allreduce_f64`], over a caller-owned
    /// accumulator: recursive doubling when the communicator size is a power
    /// of two, reduce-then-broadcast otherwise. No `Vec` per round, and for
    /// up to four words (an inline payload) no allocation at all.
    fn allreduce_in_place(&mut self, comm: Comm, op: ReduceOp, acc: &mut [f64]) {
        let size = self.comm_size(comm);
        let rank = self.comm_rank(comm);
        if size <= 1 {
            return;
        }
        if size.is_power_of_two() {
            let tag = self.next_coll_tag(comm, op_code::ALLREDUCE);
            let mut mask = 1usize;
            while mask < size {
                let partner = rank ^ mask;
                let (_, other) = self.sendrecv_bytes(
                    comm,
                    partner,
                    tag,
                    datatype::f64s_to_bytes(acc),
                    partner as i64,
                    tag,
                );
                op.combine_f64s(acc, datatype::iter_f64s(&other));
                mask <<= 1;
            }
        } else {
            self.reduce_in_place(comm, 0, op, acc);
            let reduced = (rank == 0).then(|| datatype::f64s_to_bytes(acc));
            let bytes = self.bcast_bytes(comm, 0, reduced);
            for (a, v) in acc.iter_mut().zip(datatype::iter_f64s(&bytes)) {
                *a = v;
            }
        }
    }

    /// Scalar `MPI_Allreduce` over `f64`.
    pub fn allreduce_f64(&mut self, comm: Comm, op: ReduceOp, value: f64) -> f64 {
        let mut acc = [value];
        self.allreduce_in_place(comm, op, &mut acc);
        acc[0]
    }

    /// `MPI_Alltoall` of per-destination byte blocks (one block per rank).
    /// Returns one block per source rank.
    pub fn alltoall_bytes(&mut self, comm: Comm, blocks: Vec<Bytes>) -> Vec<Bytes> {
        let size = self.comm_size(comm);
        let rank = self.comm_rank(comm);
        assert_eq!(blocks.len(), size, "alltoall needs one block per rank");
        let tag = self.next_coll_tag(comm, op_code::ALLTOALL);
        let mut out = vec![Bytes::new(); size];
        out[rank] = blocks[rank].clone();
        for step in 1..size {
            let send_to = (rank + step) % size;
            let recv_from = (rank + size - step) % size;
            let (_, received) = self.sendrecv_bytes(
                comm,
                send_to,
                tag,
                blocks[send_to].clone(),
                recv_from as i64,
                tag,
            );
            out[recv_from] = received;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_f64_semantics() {
        assert_eq!(ReduceOp::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Min.apply_f64(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply_f64(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Prod.apply_f64(2.0, 3.0), 6.0);
    }

    #[test]
    fn combine_vectors_elementwise() {
        let mut acc = vec![1.0, 5.0, 2.0];
        ReduceOp::Max.combine_f64s(&mut acc, [0.0, 9.0, 2.5]);
        assert_eq!(acc, vec![1.0, 9.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn combine_length_mismatch_panics() {
        let mut acc = vec![1.0];
        ReduceOp::Sum.combine_f64s(&mut acc, [1.0, 2.0]);
    }
}
