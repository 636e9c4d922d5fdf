//! Directed weighted graphs and centrality analysis.
//!
//! The Swarm Vulnerability Graph (SVG) of the SwarmFuzz paper is a directed
//! weighted graph over swarm members; the fuzzer ranks target/victim drones by
//! *PageRank* centrality computed with the power method. This crate provides
//! the graph container ([`DiGraph`]) and the centrality measures
//! ([`centrality::pagerank`], [`centrality::weighted_degree`],
//! [`centrality::eigenvector`]) as a reusable substrate, mirroring the MATLAB
//! `digraph`/`centrality` functions the original implementation relied on.
//!
//! # Example
//!
//! ```
//! use swarm_graph::{centrality::{pagerank, PageRankConfig}, DiGraph};
//!
//! let mut g = DiGraph::new(3);
//! g.add_edge(0, 1, 1.0).unwrap();
//! g.add_edge(2, 1, 1.0).unwrap();
//! let scores = pagerank(&g, &PageRankConfig::default());
//! // Node 1 receives all the influence, so it ranks highest.
//! assert!(scores[1] > scores[0] && scores[1] > scores[2]);
//! ```

pub mod centrality;
mod digraph;
pub mod paths;

pub use digraph::{DiGraph, Edge, GraphError, NodeId};
