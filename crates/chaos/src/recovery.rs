//! The recovery ledger: what the runtime did to survive its faults.

/// Counts of recovery actions taken while executing a job (or a whole
/// pipeline — counters merge additively across stages).
///
/// Every field is driven solely by the fault plan and the input, never
/// by thread timing, so an identical [`crate::FaultPlan`] yields an
/// identical ledger on every run — the property the chaos integration
/// tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCounters {
    /// Failed task attempts that were followed by another attempt
    /// (Hadoop's `maxattempts` retry loop, map and reduce combined).
    pub tasks_retried: u64,
    /// Map tasks re-executed because the node holding their output
    /// died before the output was consumed (Hadoop's lost-map-output
    /// semantics).
    pub maps_reexecuted_node_loss: u64,
    /// Map tasks re-executed after repeated shuffle fetch failures
    /// marked their output lost.
    pub maps_reexecuted_fetch_fail: u64,
    /// Speculative backup attempts that finished ahead of their
    /// straggling original (first finisher wins).
    pub speculative_wins: u64,
    /// Shuffle partition fetches that failed and were retried.
    pub shuffle_fetch_retries: u64,
    /// DFS blocks restored to full replication after replica loss or
    /// corruption.
    pub blocks_rereplicated: u64,
    /// Replica reads rejected by checksum verification (each triggers
    /// fallback to a surviving replica).
    pub corrupt_replicas_detected: u64,
}

impl RecoveryCounters {
    /// An all-zero ledger.
    pub fn new() -> RecoveryCounters {
        RecoveryCounters::default()
    }

    /// Add another ledger into this one, field by field.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.tasks_retried += other.tasks_retried;
        self.maps_reexecuted_node_loss += other.maps_reexecuted_node_loss;
        self.maps_reexecuted_fetch_fail += other.maps_reexecuted_fetch_fail;
        self.speculative_wins += other.speculative_wins;
        self.shuffle_fetch_retries += other.shuffle_fetch_retries;
        self.blocks_rereplicated += other.blocks_rereplicated;
        self.corrupt_replicas_detected += other.corrupt_replicas_detected;
    }

    /// Every counter under its field name, in declaration order: the
    /// one list that report and metrics emitters iterate.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("tasks_retried", self.tasks_retried),
            ("maps_reexecuted_node_loss", self.maps_reexecuted_node_loss),
            (
                "maps_reexecuted_fetch_fail",
                self.maps_reexecuted_fetch_fail,
            ),
            ("speculative_wins", self.speculative_wins),
            ("shuffle_fetch_retries", self.shuffle_fetch_retries),
            ("blocks_rereplicated", self.blocks_rereplicated),
            ("corrupt_replicas_detected", self.corrupt_replicas_detected),
        ]
    }

    /// Total recovery events of any kind.
    pub fn total_events(&self) -> u64 {
        self.fields().iter().map(|&(_, n)| n).sum()
    }

    /// True when no recovery was needed (a fault-free run).
    pub fn is_clean(&self) -> bool {
        self.total_events() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = RecoveryCounters {
            tasks_retried: 1,
            speculative_wins: 2,
            ..Default::default()
        };
        let b = RecoveryCounters {
            tasks_retried: 3,
            blocks_rereplicated: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tasks_retried, 4);
        assert_eq!(a.speculative_wins, 2);
        assert_eq!(a.blocks_rereplicated, 5);
        assert_eq!(a.total_events(), 11);
        assert!(!a.is_clean());
        assert!(RecoveryCounters::new().is_clean());
    }
}
