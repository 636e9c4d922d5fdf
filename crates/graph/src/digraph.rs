use std::fmt;

/// Identifier of a node in a [`DiGraph`] (dense, `0..node_count`).
pub type NodeId = usize;

/// A weighted directed edge `from -> to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Edge weight (must be finite and non-negative).
    pub weight: f64,
}

/// Errors returned by [`DiGraph`] mutation methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// A node id was `>= node_count`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        count: usize,
    },
    /// The edge weight was negative, NaN or infinite.
    InvalidWeight,
    /// Self-loops are not allowed in an SVG.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, count } => {
                write!(f, "node {node} out of range for graph with {count} nodes")
            }
            GraphError::InvalidWeight => write!(f, "edge weight must be finite and non-negative"),
            GraphError::SelfLoop(n) => write!(f, "self-loop on node {n} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A dense-node, adjacency-list directed graph with non-negative edge
/// weights.
///
/// Nodes are created up front (`DiGraph::new(n)`) because the SVG always has
/// exactly one node per swarm member. Parallel edges are merged by summing
/// weights, matching how repeated influence accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph {
    node_count: usize,
    /// Outgoing adjacency: `out[u]` = list of `(v, w)` for edges `u -> v`.
    out: Vec<Vec<(NodeId, f64)>>,
    /// Incoming adjacency: `inc[v]` = list of `(u, w)` for edges `u -> v`.
    inc: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        DiGraph { node_count: n, out: vec![Vec::new(); n], inc: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn check_node(&self, n: NodeId) -> Result<(), GraphError> {
        if n >= self.node_count {
            Err(GraphError::NodeOutOfRange { node: n, count: self.node_count })
        } else {
            Ok(())
        }
    }

    /// Adds (or accumulates onto) the edge `from -> to` with `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid endpoints,
    /// [`GraphError::SelfLoop`] when `from == to`, and
    /// [`GraphError::InvalidWeight`] for negative/non-finite weights.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<(), GraphError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight);
        }
        if let Some(slot) = self.out[from].iter_mut().find(|(v, _)| *v == to) {
            slot.1 += weight;
            let inc_slot = self.inc[to]
                .iter_mut()
                .find(|(u, _)| *u == from)
                .expect("in/out adjacency lists out of sync");
            inc_slot.1 += weight;
        } else {
            self.out[from].push((to, weight));
            self.inc[to].push((from, weight));
            self.edge_count += 1;
        }
        Ok(())
    }

    /// Weight of the edge `from -> to`, or `None` when absent.
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.out.get(from)?.iter().find(|(v, _)| *v == to).map(|(_, w)| *w)
    }

    /// `true` when the edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_weight(from, to).is_some()
    }

    /// Outgoing `(neighbor, weight)` pairs of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_edges(&self, u: NodeId) -> &[(NodeId, f64)] {
        &self.out[u]
    }

    /// Incoming `(source, weight)` pairs of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_edges(&self, v: NodeId) -> &[(NodeId, f64)] {
        &self.inc[v]
    }

    /// Sum of outgoing edge weights of `u`.
    pub fn out_weight(&self, u: NodeId) -> f64 {
        self.out[u].iter().map(|(_, w)| w).sum()
    }

    /// Sum of incoming edge weights of `v`.
    pub fn in_weight(&self, v: NodeId) -> f64 {
        self.inc[v].iter().map(|(_, w)| w).sum()
    }

    /// Out-degree (number of outgoing edges) of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u].len()
    }

    /// In-degree (number of incoming edges) of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inc[v].len()
    }

    /// Iterates over all edges in an unspecified but deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(from, adj)| adj.iter().map(move |&(to, weight)| Edge { from, to, weight }))
    }

    /// Returns the transposed graph (every edge reversed).
    ///
    /// The SwarmFuzz paper computes target influence on the SVG and victim
    /// influence on the transposed SVG.
    pub fn transposed(&self) -> DiGraph {
        let mut t = DiGraph::new(self.node_count);
        for e in self.edges() {
            t.add_edge(e.to, e.from, e.weight).expect("edges of a valid graph stay valid");
        }
        t
    }
}

impl fmt::Display for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph({} nodes, {} edges)", self.node_count, self.edge_count)?;
        for e in self.edges() {
            writeln!(f, "  {} -> {} [{:.4}]", e.from, e.to, e.weight)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_empty() {
        let g = DiGraph::new(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(0), 0);
    }

    #[test]
    fn add_edge_and_lookup() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 0.5).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_weight(0, 1), Some(0.5));
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.out_degree(0), 1);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 0.25).unwrap();
        g.add_edge(0, 1, 0.75).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.in_weight(1), 1.0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = DiGraph::new(2);
        assert_eq!(g.add_edge(1, 1, 1.0), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn rejects_bad_weight() {
        let mut g = DiGraph::new(2);
        assert_eq!(g.add_edge(0, 1, -1.0), Err(GraphError::InvalidWeight));
        assert_eq!(g.add_edge(0, 1, f64::NAN), Err(GraphError::InvalidWeight));
        assert_eq!(g.add_edge(0, 1, f64::INFINITY), Err(GraphError::InvalidWeight));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = DiGraph::new(2);
        assert!(matches!(g.add_edge(0, 5, 1.0), Err(GraphError::NodeOutOfRange { node: 5, .. })));
    }

    #[test]
    fn transpose_reverses_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(1, 2, 3.0).unwrap();
        let t = g.transposed();
        assert_eq!(t.edge_weight(1, 0), Some(2.0));
        assert_eq!(t.edge_weight(2, 1), Some(3.0));
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(2, 0, 1.5).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn error_display_nonempty() {
        let e = GraphError::SelfLoop(3);
        assert!(!e.to_string().is_empty());
    }
}
