//! Configuration of the SDR-MPI replication protocol.

/// When the replication layer emits the acknowledgement for a received
/// message.
///
/// The paper (Section 3.3) argues that acks *must* be emitted on the
/// library-level `irecvComplete` event: if they were only sent when the
/// application completes the receive (`MPI_Wait`), the common
/// `MPI_Irecv; MPI_Send; MPI_Wait` exchange pattern would deadlock, because
/// `MPI_Send` cannot finish before receiving acks and the peer's ack would
/// only be produced after its own `MPI_Send` finished. [`AckOn::AppWait`]
/// exists purely to demonstrate that deadlock in tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOn {
    /// Acknowledge when the message completes at the MPI-library level
    /// (the paper's design).
    RecvComplete,
    /// Acknowledge only when the application waits on the receive request
    /// (deadlock-prone; used as an ablation).
    AppWait,
    /// Never acknowledge. The protocol then degenerates to a plain parallel
    /// replication scheme without crash tolerance — the configuration used by
    /// the redMPI-style and mirror baselines in `repl-baselines`, which add
    /// their own traffic on top.
    Never,
}

/// SDR-MPI configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Replication degree `r` (number of replicas per MPI rank). The paper's
    /// experiments and its recovery protocol use `r = 2`.
    pub degree: usize,
    /// When to emit acknowledgements.
    pub ack_on: AckOn,
}

impl ReplicationConfig {
    /// Dual replication (the paper's configuration).
    pub fn dual() -> Self {
        ReplicationConfig {
            degree: 2,
            ack_on: AckOn::RecvComplete,
        }
    }

    /// Replication with an arbitrary degree.
    pub fn with_degree(degree: usize) -> Self {
        assert!(degree >= 1, "replication degree must be at least 1");
        ReplicationConfig {
            degree,
            ack_on: AckOn::RecvComplete,
        }
    }

    /// Switch the ack moment (ablation).
    pub fn ack_on(mut self, ack_on: AckOn) -> Self {
        self.ack_on = ack_on;
        self
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig::dual()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_is_degree_two_recv_complete() {
        let c = ReplicationConfig::dual();
        assert_eq!(c.degree, 2);
        assert_eq!(c.ack_on, AckOn::RecvComplete);
        assert_eq!(ReplicationConfig::default(), c);
    }

    #[test]
    fn builder_style_ack_on() {
        let c = ReplicationConfig::with_degree(3).ack_on(AckOn::AppWait);
        assert_eq!(c.degree, 3);
        assert_eq!(c.ack_on, AckOn::AppWait);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_degree_rejected() {
        ReplicationConfig::with_degree(0);
    }
}
