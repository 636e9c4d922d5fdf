//! The Swarm Vulnerability Graph (SVG) — paper §IV-B.
//!
//! The SVG abstracts "who can maliciously influence whom" at the moment the
//! swarm is most tightly coupled. Construction follows the paper:
//!
//! 1. Take the no-attack recording and find `t_clo`, the tick with the
//!    smallest average inter-drone distance (influence is strongest there).
//! 2. For every ordered drone pair `(i, j)` and spoofing direction θ,
//!    displace drone *j*'s broadcast position by the spoofing deviation and
//!    re-evaluate drone *i*'s controller response on the recorded snapshot.
//!    If the response change moves *i* **toward the obstacle**, *j* has
//!    malicious influence over *i*: add the directed edge `e_ij` (from the
//!    influenced drone to the influencer).
//! 3. Weight the edge by `w_ij = d / √(dist_ij² + d²)` — the cosine of the
//!    angle adjacent to the spoofing-displacement leg in the right triangle
//!    spanned by the inter-drone distance and the deviation `d`. The weight
//!    grows with the spoofing distance and decays with inter-drone distance,
//!    as required by the paper.
//! 4. PageRank on the SVG scores *targets* (drones that maliciously
//!    influence many others); PageRank on the transposed SVG scores
//!    *victims* (drones influenced by many others).

use swarm_graph::centrality::{eigenvector, pagerank, weighted_degree, Direction, PageRankConfig};
use swarm_graph::paths::{betweenness, closeness};
use swarm_graph::DiGraph;
use swarm_math::Vec3;
use swarm_sim::mission::MissionSpec;
use swarm_sim::recorder::MissionRecord;
use swarm_sim::spoof::SpoofDirection;
use swarm_sim::{ControlContext, DroneId, NeighborState, PerceivedSelf, SwarmController};

use crate::telemetry::Phase;
use crate::trace::Trace;
use crate::FuzzError;

/// Minimum controller-response change (m/s) toward the obstacle that counts
/// as malicious influence when creating SVG edges.
pub const INFLUENCE_EPSILON: f64 = 1e-4;

/// Which centrality measure scores targets and victims on the SVG.
///
/// The paper chooses PageRank (§IV-B) for its handling of multi-hop
/// influence; the alternatives exist for the centrality-ablation experiment
/// that backs that choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CentralityKind {
    /// PageRank via power iteration (the paper's choice).
    #[default]
    PageRank,
    /// Weighted in-degree (cheapest; one-hop influence only).
    Degree,
    /// Eigenvector centrality (multi-hop, but no damping/dangling handling).
    Eigenvector,
    /// Closeness centrality on reciprocal-weight path lengths.
    Closeness,
    /// Betweenness centrality (Brandes) on reciprocal-weight path lengths.
    Betweenness,
}

/// Scores every node of `graph` with the chosen centrality; influence flows
/// along edges, so target quality is measured on the graph as built and
/// victim quality on its transpose (handled by the caller).
fn centrality_scores(graph: &DiGraph, kind: CentralityKind) -> Vec<f64> {
    match kind {
        CentralityKind::PageRank => pagerank(graph, &PageRankConfig::default()),
        CentralityKind::Degree => weighted_degree(graph, Direction::Incoming),
        CentralityKind::Eigenvector => eigenvector(graph, 200, 1e-10),
        CentralityKind::Closeness => closeness(&graph.transposed()),
        CentralityKind::Betweenness => betweenness(graph),
    }
}

/// The SVG for one spoofing direction, with both centrality scores.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgAnalysis {
    /// The vulnerability graph (edge `i -> j` = drone i is maliciously
    /// influenced by drone j).
    pub graph: DiGraph,
    /// PageRank of each drone in the SVG: its quality as a *target*.
    pub target_scores: Vec<f64>,
    /// PageRank of each drone in the transposed SVG: its quality as a
    /// *victim*.
    pub victim_scores: Vec<f64>,
    /// The closest-approach time the graph was built at.
    pub t_clo: f64,
    /// The spoofing direction this graph models.
    pub direction: SpoofDirection,
}

impl SvgAnalysis {
    /// The summative influence `I(θ)_jv` of the pair (target `j`, victim
    /// `v`): the target's SVG PageRank plus the victim's transposed-SVG
    /// PageRank, plus the direct edge weight `w_vj` when `j` directly
    /// influences `v` (rewarding pairs with a one-hop malicious link).
    pub fn pair_influence(&self, target: DroneId, victim: DroneId) -> f64 {
        let direct = self.graph.edge_weight(victim.index(), target.index()).unwrap_or(0.0);
        self.target_scores[target.index()] + self.victim_scores[victim.index()] + direct
    }
}

/// Builds [`SvgAnalysis`] values from a recorded no-attack mission.
#[derive(Debug)]
pub struct SvgBuilder<'a, C> {
    controller: &'a C,
    spec: &'a MissionSpec,
    record: &'a MissionRecord,
    deviation: f64,
    trace: Trace,
}

impl<'a, C: SwarmController> SvgBuilder<'a, C> {
    /// Creates a builder for the given controller, mission and spoofing
    /// deviation `d`.
    pub fn new(
        controller: &'a C,
        spec: &'a MissionSpec,
        record: &'a MissionRecord,
        deviation: f64,
    ) -> Self {
        SvgBuilder { controller, spec, record, deviation, trace: Trace::off() }
    }

    /// Attaches a trace handle timing graph construction and centrality
    /// scoring (purely observational; results are unaffected).
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Builds the SVG for one spoofing direction with PageRank scoring (the
    /// paper's configuration).
    ///
    /// # Errors
    ///
    /// * [`FuzzError::NoObstacle`] when the mission has no obstacle;
    /// * [`FuzzError::SwarmTooSmall`] for swarms of fewer than two drones.
    pub fn build(&self, direction: SpoofDirection) -> Result<SvgAnalysis, FuzzError> {
        self.build_with_centrality(direction, CentralityKind::PageRank)
    }

    /// Builds the SVG for one spoofing direction, scoring targets/victims
    /// with the chosen [`CentralityKind`] (used by the centrality-ablation
    /// experiment).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SvgBuilder::build`].
    pub fn build_with_centrality(
        &self,
        direction: SpoofDirection,
        centrality: CentralityKind,
    ) -> Result<SvgAnalysis, FuzzError> {
        let _span = self.trace.span(Phase::SvgBuild);
        let n = self.record.swarm_size();
        if n < 2 {
            return Err(FuzzError::SwarmTooSmall(n));
        }
        if self.spec.world.obstacles.is_empty() {
            return Err(FuzzError::NoObstacle);
        }
        let (tick, t_clo) = self.record.closest_approach().ok_or(FuzzError::SwarmTooSmall(0))?;

        let positions = self.record.positions_at(tick);
        let velocities = self.record.velocities_at(tick);
        let offset = direction.offset_direction(self.spec.mission_axis()) * self.deviation;

        // When the mission defines a radio range, only the drones within it
        // (the bus's 3-D range check) enter drone i's context, matching what
        // the bus would have delivered at this snapshot; without a range,
        // every other drone does. The context is ordered by ascending drone
        // id — the neighbor-table order controllers see live. It is built
        // once per drone i by one scan of the swarm, and each candidate
        // influencer j is displaced and restored in place, instead of
        // rebuilding the whole context for every (i, j) pair.
        let range = self.spec.comms.range.filter(|&r| r > 0.0);
        let mut neighbors: Vec<NeighborState> = Vec::with_capacity(n);

        let mut graph = DiGraph::new(n);
        for i in 0..n {
            // Unit vector from drone i toward the nearest obstacle surface.
            let (obs_idx, _) =
                self.spec.world.nearest_obstacle(positions[i]).expect("world checked non-empty");
            let surface = self.spec.world.obstacles[obs_idx].closest_surface_point(positions[i]);
            let toward_obstacle = (surface - positions[i]).horizontal().normalized();
            if toward_obstacle == Vec3::ZERO {
                continue; // drone i sits on the obstacle surface: degenerate
            }

            neighbors.clear();
            for j in 0..n {
                if j != i && range.is_none_or(|r| positions[i].distance(positions[j]) <= r) {
                    neighbors.push(NeighborState {
                        id: DroneId(j),
                        position: positions[j],
                        velocity: velocities[j],
                        age: 0.0,
                    });
                }
            }

            let baseline = self.response(i, positions, velocities, &neighbors, t_clo);
            for j in 0..n {
                if i == j {
                    continue;
                }
                // A drone outside i's radio range never enters i's neighbor
                // table, so displacing its broadcast cannot influence i.
                let Ok(slot) = neighbors.binary_search_by_key(&DroneId(j), |nb| nb.id) else {
                    continue;
                };
                let saved = neighbors[slot].position;
                neighbors[slot].position = saved + offset;
                let spoofed = self.response(i, positions, velocities, &neighbors, t_clo);
                neighbors[slot].position = saved;
                let shift = (spoofed - baseline).dot(toward_obstacle);
                if shift > INFLUENCE_EPSILON {
                    let dist = positions[i].distance(positions[j]);
                    let weight =
                        self.deviation / (dist * dist + self.deviation * self.deviation).sqrt();
                    graph.add_edge(i, j, weight).expect("indices in range, weight in (0,1]");
                }
            }
        }

        let (target_scores, victim_scores) = {
            let _span = self.trace.span(Phase::Centrality);
            (
                centrality_scores(&graph, centrality),
                centrality_scores(&graph.transposed(), centrality),
            )
        };
        Ok(SvgAnalysis { graph, target_scores, victim_scores, t_clo, direction })
    }

    /// Replays drone `i`'s controller on the snapshot against the prepared
    /// neighbor context.
    fn response(
        &self,
        i: usize,
        positions: &[Vec3],
        velocities: &[Vec3],
        neighbors: &[NeighborState],
        time: f64,
    ) -> Vec3 {
        let ctx = ControlContext {
            id: DroneId(i),
            self_state: PerceivedSelf { position: positions[i], velocity: velocities[i] },
            neighbors,
            world: &self.spec.world,
            destination: self.spec.destination,
            time,
        };
        self.controller.desired_velocity(&ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_math::Vec2;
    use swarm_sim::world::{Obstacle, World};

    /// A controller with a pure attraction law: always steer toward the
    /// centroid of the neighbors. Guarantees that displacing a neighbor
    /// toward/away from the obstacle drags the drone the same way, giving
    /// fully predictable SVG edges.
    struct Centroid;

    impl SwarmController for Centroid {
        fn desired_velocity(&self, ctx: &ControlContext<'_>) -> Vec3 {
            if ctx.neighbors.is_empty() {
                return Vec3::ZERO;
            }
            let centroid =
                ctx.neighbors.iter().map(|n| n.position).sum::<Vec3>() / ctx.neighbors.len() as f64;
            (centroid - ctx.self_state.position) * 0.1
        }
    }

    fn spec_with_obstacle(n: usize) -> MissionSpec {
        let mut spec = MissionSpec::paper_delivery(n, 7);
        spec.world = World::with_obstacles(vec![Obstacle::Cylinder {
            center: Vec2::new(0.0, -50.0),
            radius: 4.0,
        }]);
        spec
    }

    /// Record with two ticks so closest_approach is well defined; drones on a
    /// line along x at y=0, obstacle far at -y.
    fn two_tick_record(positions: Vec<Vec3>) -> MissionRecord {
        let n = positions.len();
        let mut r = MissionRecord::new(n, 0.1);
        let spread: Vec<Vec3> =
            positions.iter().map(|p| *p + Vec3::new(0.0, 0.0, 0.0) * 2.0).collect();
        let far: Vec<Vec3> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| *p + Vec3::new(i as f64 * 10.0, 0.0, 0.0))
            .collect();
        r.push_sample(0.0, &far, &vec![Vec3::ZERO; n], &vec![10.0; n]);
        r.push_sample(0.1, &spread, &vec![Vec3::ZERO; n], &vec![10.0; n]);
        r
    }

    #[test]
    fn build_rejects_tiny_swarm() {
        let spec = spec_with_obstacle(1);
        let record = two_tick_record(vec![Vec3::new(0.0, 0.0, 10.0)]);
        let b = SvgBuilder::new(&Centroid, &spec, &record, 10.0);
        assert!(matches!(b.build(SpoofDirection::Right), Err(FuzzError::SwarmTooSmall(1))));
    }

    #[test]
    fn build_rejects_world_without_obstacle() {
        let mut spec = spec_with_obstacle(2);
        spec.world = World::new();
        let record = two_tick_record(vec![Vec3::new(0.0, 0.0, 10.0), Vec3::new(10.0, 0.0, 10.0)]);
        let b = SvgBuilder::new(&Centroid, &spec, &record, 10.0);
        assert!(matches!(b.build(SpoofDirection::Right), Err(FuzzError::NoObstacle)));
    }

    #[test]
    fn centroid_controller_creates_edges_toward_obstacle_side() {
        // Obstacle is at -y. Mission axis ~ +x, so Right spoofing displaces a
        // broadcast position toward -y (toward the obstacle): the centroid
        // shifts -y, the follower is dragged toward the obstacle => edge.
        let spec = spec_with_obstacle(2);
        let record = two_tick_record(vec![Vec3::new(0.0, 0.0, 10.0), Vec3::new(10.0, 0.0, 10.0)]);
        let b = SvgBuilder::new(&Centroid, &spec, &record, 10.0);

        let axis = spec.mission_axis();
        let right_offset = SpoofDirection::Right.offset_direction(axis);
        // Verify geometry assumption: "right" of +x axis points to -y.
        assert!(right_offset.y < 0.0);

        let svg = b.build(SpoofDirection::Right).unwrap();
        assert!(svg.graph.has_edge(0, 1), "drone0 dragged toward obstacle by drone1");
        assert!(svg.graph.has_edge(1, 0));

        // Left spoofing drags away from the obstacle: no edges.
        let svg_left = b.build(SpoofDirection::Left).unwrap();
        assert_eq!(svg_left.graph.edge_count(), 0);
    }

    #[test]
    fn weight_decays_with_distance_and_grows_with_deviation() {
        let spec = spec_with_obstacle(3);
        let record = two_tick_record(vec![
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(8.0, 0.0, 10.0),
            Vec3::new(40.0, 0.0, 10.0),
        ]);
        let b = SvgBuilder::new(&Centroid, &spec, &record, 10.0);
        let svg = b.build(SpoofDirection::Right).unwrap();
        let near = svg.graph.edge_weight(0, 1).unwrap();
        let far = svg.graph.edge_weight(0, 2).unwrap();
        assert!(near > far, "closer influencer must weigh more: {near} vs {far}");

        let b5 = SvgBuilder::new(&Centroid, &spec, &record, 5.0);
        let svg5 = b5.build(SpoofDirection::Right).unwrap();
        let near5 = svg5.graph.edge_weight(0, 1).unwrap();
        assert!(near > near5, "larger deviation must weigh more: {near} vs {near5}");
    }

    #[test]
    fn radio_range_limits_influence_to_in_range_neighbors() {
        // Drone 2 sits 40 m from drone 0: with unlimited comms it influences
        // drone 0 (see weight_decays_with_distance...), but with a 15 m radio
        // range its broadcast never reaches drone 0, so no edge may appear.
        let mut spec = spec_with_obstacle(3);
        spec.comms.range = Some(15.0);
        let record = two_tick_record(vec![
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(8.0, 0.0, 10.0),
            Vec3::new(40.0, 0.0, 10.0),
        ]);
        let svg =
            SvgBuilder::new(&Centroid, &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
        assert!(svg.graph.has_edge(0, 1), "in-range influencer keeps its edge");
        assert!(!svg.graph.has_edge(0, 2), "out-of-range influencer cannot have an edge");
        assert!(!svg.graph.has_edge(2, 0), "influence is symmetric in reachability");
    }

    #[test]
    fn scores_are_probability_distributions() {
        let spec = spec_with_obstacle(4);
        let record = two_tick_record(vec![
            Vec3::new(0.0, 0.0, 10.0),
            Vec3::new(8.0, 0.0, 10.0),
            Vec3::new(16.0, 0.0, 10.0),
            Vec3::new(24.0, 0.0, 10.0),
        ]);
        let svg =
            SvgBuilder::new(&Centroid, &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
        let sum_t: f64 = svg.target_scores.iter().sum();
        let sum_v: f64 = svg.victim_scores.iter().sum();
        assert!((sum_t - 1.0).abs() < 1e-6);
        assert!((sum_v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pair_influence_includes_direct_edge_bonus() {
        let spec = spec_with_obstacle(2);
        let record = two_tick_record(vec![Vec3::new(0.0, 0.0, 10.0), Vec3::new(10.0, 0.0, 10.0)]);
        let svg =
            SvgBuilder::new(&Centroid, &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
        let with_edge = svg.pair_influence(DroneId(1), DroneId(0));
        let base = svg.target_scores[1] + svg.victim_scores[0];
        assert!(with_edge > base);
    }

    #[test]
    fn svg_built_at_closest_approach_tick() {
        let spec = spec_with_obstacle(2);
        let record = two_tick_record(vec![Vec3::new(0.0, 0.0, 10.0), Vec3::new(10.0, 0.0, 10.0)]);
        let svg =
            SvgBuilder::new(&Centroid, &spec, &record, 10.0).build(SpoofDirection::Right).unwrap();
        // Tick 1 (t=0.1) has the smaller average inter-distance by
        // construction.
        assert!((svg.t_clo - 0.1).abs() < 1e-12);
    }
}
