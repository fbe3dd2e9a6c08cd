//! Error types for DAG construction and execution.

use std::fmt;

/// Errors raised while building or validating a [`crate::JobDag`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The DAG has no nodes; a job must contain at least one node.
    Empty,
    /// A node was declared with zero processing time. The paper's model
    /// requires every node to have positive work (`p_v > 0`).
    ZeroWork {
        /// Offending node index.
        node: u32,
    },
    /// An edge references a node index that was never declared.
    UnknownNode {
        /// Offending node index.
        node: u32,
    },
    /// An edge from a node to itself.
    SelfLoop {
        /// Offending node index.
        node: u32,
    },
    /// The same directed edge was added twice.
    DuplicateEdge {
        /// Edge source.
        from: u32,
        /// Edge target.
        to: u32,
    },
    /// The edge set contains a directed cycle, so the graph is not a DAG.
    Cycle,
    /// The CSR columns disagree: offsets are not `num_nodes + 1` values
    /// rising from 0 to the slab length, or ids or edges overflow `u32`.
    BadCsr,
    /// The node works sum past `u64`.
    WorkOverflow,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "DAG must contain at least one node"),
            DagError::ZeroWork { node } => {
                write!(f, "node {node} has zero work; every node needs p_v > 0")
            }
            DagError::UnknownNode { node } => {
                write!(f, "edge references undeclared node {node}")
            }
            DagError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            DagError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            DagError::Cycle => write!(f, "edge set contains a directed cycle"),
            DagError::BadCsr => write!(f, "inconsistent CSR offsets"),
            DagError::WorkOverflow => write!(f, "total work overflows u64"),
        }
    }
}

impl std::error::Error for DagError {}

/// Errors raised by [`crate::DagCursor`] when a scheduler violates the
/// execution protocol (claiming a non-ready node, executing an unclaimed
/// node, …). These indicate scheduler bugs, so the cursor methods that can
/// fail return `Result` and tests assert on the exact variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Tried to claim a node that is not in the Ready state.
    NotReady {
        /// Offending node index.
        node: u32,
    },
    /// Tried to execute or release a node that is not currently claimed.
    NotClaimed {
        /// Offending node index.
        node: u32,
    },
    /// Node index out of range for this job's DAG.
    OutOfRange {
        /// Offending node index.
        node: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NotReady { node } => write!(f, "node {node} is not ready"),
            ExecError::NotClaimed { node } => write!(f, "node {node} is not claimed"),
            ExecError::OutOfRange { node } => write!(f, "node {node} out of range"),
        }
    }
}

impl std::error::Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DagError::Empty.to_string().contains("at least one node"));
        assert!(DagError::ZeroWork { node: 3 }
            .to_string()
            .contains("node 3"));
        assert!(DagError::UnknownNode { node: 9 }.to_string().contains('9'));
        assert!(DagError::SelfLoop { node: 1 }
            .to_string()
            .contains("self-loop"));
        assert!(DagError::DuplicateEdge { from: 1, to: 2 }
            .to_string()
            .contains("1 -> 2"));
        assert!(DagError::Cycle.to_string().contains("cycle"));
        assert!(ExecError::NotReady { node: 0 }
            .to_string()
            .contains("ready"));
        assert!(ExecError::NotClaimed { node: 0 }
            .to_string()
            .contains("claimed"));
        assert!(ExecError::OutOfRange { node: 0 }
            .to_string()
            .contains("range"));
    }
}
