//! Fuzzing seeds (paper §IV-B).
//!
//! A seed is the discrete part of a test-run: the target–victim drone pair
//! and the spoofing direction `<T-V, θ>`. The continuous spoofing window
//! `(t_s, Δt)` is found per seed by the search stage. The seedpool is a
//! `Vec<Seed>` in fuzzing order, most promising first, as the
//! [`crate::schedule`] functions return it.

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
