//! Fuzzing seeds and the seedpool (paper §IV-B).
//!
//! A seed is the discrete part of a test-run: the target–victim drone pair
//! and the spoofing direction `<T-V, θ>`. The continuous spoofing window
//! `(t_s, Δt)` is found per seed by the search stage.

use swarm_sim::spoof::{SpoofDirection, WaveformKind};
use swarm_sim::DroneId;

/// One fuzzing seed `<T-V, θ>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seed {
    /// The drone whose GPS will be spoofed.
    pub target: DroneId,
    /// The drone expected to crash into the obstacle.
    pub victim: DroneId,
    /// The spoofing direction θ.
    pub direction: SpoofDirection,
    /// The scheduler's estimate of this seed's promise (higher = fuzz
    /// earlier); purely informational once the pool is ordered.
    pub influence: f64,
    /// The victim's closest distance to the obstacle in the no-attack run
    /// (the paper's VDO).
    pub victim_vdo: f64,
    /// The attack class this seed will be searched with. Schedulers expand
    /// each ranked `<T-V, θ>` pair into one seed per enabled class.
    pub waveform: WaveformKind,
}

impl Seed {
    /// A copy of this seed aimed at a different attack class.
    pub fn with_waveform(self, waveform: WaveformKind) -> Seed {
        Seed { waveform, ..self }
    }
}

impl std::fmt::Display for Seed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "<{}-{}, {}> (influence {:.4}, VDO {:.2} m)",
            self.target, self.victim, self.direction, self.influence, self.victim_vdo
        )?;
        if self.waveform != WaveformKind::Constant {
            write!(f, " [{}]", self.waveform)?;
        }
        Ok(())
    }
}

/// An ordered pool of seeds, most promising first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Seedpool {
    seeds: Vec<Seed>,
}

impl Seedpool {
    /// Creates a pool from pre-ordered seeds.
    pub fn new(seeds: Vec<Seed>) -> Self {
        Seedpool { seeds }
    }

    /// The seeds in fuzzing order.
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds
    }

    /// Number of seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Iterates over seeds in fuzzing order.
    pub fn iter(&self) -> std::slice::Iter<'_, Seed> {
        self.seeds.iter()
    }
}

impl IntoIterator for Seedpool {
    type Item = Seed;
    type IntoIter = std::vec::IntoIter<Seed>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.into_iter()
    }
}

impl<'a> IntoIterator for &'a Seedpool {
    type Item = &'a Seed;
    type IntoIter = std::slice::Iter<'a, Seed>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.iter()
    }
}

impl FromIterator<Seed> for Seedpool {
    fn from_iter<I: IntoIterator<Item = Seed>>(iter: I) -> Self {
        Seedpool { seeds: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(t: usize, v: usize) -> Seed {
        Seed {
            target: DroneId(t),
            victim: DroneId(v),
            direction: SpoofDirection::Right,
            influence: 0.5,
            victim_vdo: 3.0,
            waveform: WaveformKind::Constant,
        }
    }

    #[test]
    fn pool_preserves_order() {
        let pool = Seedpool::new(vec![seed(0, 1), seed(2, 3)]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.seeds()[0].target, DroneId(0));
        assert_eq!(pool.iter().count(), 2);
    }

    #[test]
    fn pool_from_iterator() {
        let pool: Seedpool = (0..3).map(|i| seed(i, i + 1)).collect();
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
    }

    #[test]
    fn display_shows_pair_and_direction() {
        let s = seed(1, 4).to_string();
        assert!(s.contains("drone1"));
        assert!(s.contains("drone4"));
        assert!(s.contains("right"));
        assert!(!s.contains('['), "constant seeds display exactly as before the zoo");
    }

    #[test]
    fn display_names_non_constant_waveforms() {
        let s = seed(1, 4).with_waveform(WaveformKind::Circular).to_string();
        assert!(s.contains("[circular]"), "{s}");
    }
}
