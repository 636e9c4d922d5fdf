//! Named parameter presets for the Vásárhelyi controller.
//!
//! The reproduction's defaults ([`VasarhelyiParams::default`]) sit in the
//! paper's regime: unattacked missions are safe, yet 5–10 m spoofing can
//! crash victims. These presets bracket that regime and are what the
//! "tuning the parameters in the control algorithm" mitigation the paper
//! suggests (§I) looks like in practice — the hardened preset trades
//! mission speed for attack resistance.

use crate::vasarhelyi::VasarhelyiParams;

/// The paper-regime preset (same as `VasarhelyiParams::default()`).
pub fn paper() -> VasarhelyiParams {
    VasarhelyiParams::default()
}

/// A hardened preset: stronger, un-outvotable obstacle avoidance and slower
/// flight. Missions take longer and formations are looser, but the
/// avoidance term can no longer be outvoted by cohesion pressure — the
/// mitigation a defender would deploy after a SwarmFuzz audit.
pub fn hardened() -> VasarhelyiParams {
    VasarhelyiParams {
        v_flock: 3.0,
        v_obs_max: 9.0, // avoidance can override every other goal combined
        v_shill: 9.0,
        a_shill: 2.0, // conservative braking assumption: act early
        p_att: 0.05,  // weaker cohesion = weaker attack lever
        v_att_max: 0.8,
        v_rep_max: 2.0,
        ..VasarhelyiParams::default()
    }
}

/// An aggressive preset: faster flight, tighter formation, later avoidance.
/// Used in tests as the "what not to do" contrast — even unattacked crowded
/// missions become risky.
pub fn aggressive() -> VasarhelyiParams {
    VasarhelyiParams {
        v_flock: 5.0,
        v_max: 7.0,
        v_obs_max: 3.0,
        p_att: 0.15,
        v_att_max: 2.0,
        r0_att: 9.0,
        ..VasarhelyiParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VasarhelyiController;
    use swarm_sim::mission::MissionSpec;
    use swarm_sim::Simulation;

    /// Mean mission VDO over a few clean missions (collisions excluded).
    fn mean_vdo(params: VasarhelyiParams, n: usize) -> (f64, usize) {
        let controller = VasarhelyiController::new(params);
        let mut vdos = Vec::new();
        let mut collisions = 0;
        for seed in 0..8u64 {
            let spec = MissionSpec::paper_delivery(n, 300 + seed);
            let out = Simulation::new(spec, controller).unwrap().run(None).unwrap();
            if out.collision_free() {
                vdos.push(out.record.mission_vdo().unwrap().1);
            } else {
                collisions += 1;
            }
        }
        (vdos.iter().sum::<f64>() / vdos.len().max(1) as f64, collisions)
    }

    #[test]
    fn paper_preset_is_the_default() {
        assert_eq!(paper(), VasarhelyiParams::default());
    }

    #[test]
    fn hardened_keeps_wider_obstacle_berth() {
        let (vdo_paper, _) = mean_vdo(paper(), 10);
        let (vdo_hard, coll_hard) = mean_vdo(hardened(), 10);
        assert!(
            vdo_hard > vdo_paper,
            "hardened preset must pass wider: {vdo_hard:.2} vs {vdo_paper:.2}"
        );
        assert_eq!(coll_hard, 0, "hardened baselines must never collide");
    }

    #[test]
    fn hardened_avoidance_cannot_be_outvoted() {
        let p = hardened();
        // The cap exceeds the sum of every other velocity source.
        assert!(p.v_obs_max > p.v_flock + p.v_att_max + p.v_rep_max);
    }

    #[test]
    fn presets_are_distinct() {
        assert_ne!(paper(), hardened());
        assert_ne!(paper(), aggressive());
        assert_ne!(hardened(), aggressive());
    }
}
