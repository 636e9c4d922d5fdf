//! Gate for the attack-model zoo: every attack class is one
//! [`SpoofingAttack`] value whose [`Waveform`] shapes the GPS offset, and the
//! paper's constant offset is its shape-less case.
//!
//! * Pinned digests: the attacked record of each of the four classes under
//!   both spatial-grid policies, and the fuzz reports of all four
//!   fuzzer variants with the zoo enabled, equal constants computed before
//!   the legacy constant-offset path was merged into the one value. They
//!   fail loudly on any change to a class's offset math or to either search.
//! * Fuzz-report level: snapshot-and-fork execution on vs off, for the
//!   constant-offset fuzzer and for the four-class fuzzer.
//! * Campaign-report level: across worker counts, with and without
//!   snapshots.
//!
//! Plus the per-waveform metamorphic oracles: a zero-amplitude attack of
//! *any* class is indistinguishable from no attack at all; flipping the
//! spoofing direction mirrors the offset across the mission axis; ramp-in
//! deviation is monotone in window time; and circular at ω = 0 degenerates
//! to the constant offset, record-for-record.

use swarm_control::{VasarhelyiController, VasarhelyiParams};
use swarm_math::Vec2;
use swarm_sim::mission::MissionSpec;
use swarm_sim::spoof::{SpoofDirection, SpoofingAttack, Waveform, WaveformKind, WaveformSet};
use swarm_sim::{DroneId, SimConfig, Simulation, SpatialPolicy};
use swarm_testkit::gens::{f64_in, one_of, u64_in, usize_in, zip2, zip3, zip4};
use swarm_testkit::{cases, check_budgeted, tk_ensure, Gen};
use swarmfuzz::campaign::{run_campaign, CampaignConfig, SwarmConfig};
use swarmfuzz::{Fuzzer, FuzzerConfig};

fn controller() -> VasarhelyiController {
    VasarhelyiController::new(VasarhelyiParams::default())
}

fn policies() -> Vec<SpatialPolicy> {
    vec![SpatialPolicy::Auto, SpatialPolicy::ForceOff]
}

/// One randomized differential case: a short delivery mission, an attack
/// window, and a grid policy.
#[derive(Debug, Clone)]
struct ZooCase {
    swarm_size: usize,
    seed: u64,
    start: f64,
    duration: f64,
    policy: SpatialPolicy,
}

fn zoo_case() -> Gen<ZooCase> {
    zip4(
        &zip2(&usize_in(3..=6), &u64_in(0..=u64::MAX)),
        &f64_in(0.0, 25.0),
        &f64_in(0.0, 20.0),
        &one_of(policies()),
    )
    .map(|((swarm_size, seed), start, duration, policy)| ZooCase {
        swarm_size,
        seed,
        start,
        duration,
        policy,
    })
}

fn short_mission(case: &ZooCase) -> MissionSpec {
    let mut spec = MissionSpec::paper_delivery(case.swarm_size, case.seed);
    spec.duration = 30.0;
    spec
}

fn sim_for(case: &ZooCase) -> Result<Simulation<VasarhelyiController>, String> {
    Ok(Simulation::new(short_mission(case), controller())
        .map_err(|e| e.to_string())?
        .with_config(SimConfig { spatial: case.policy }))
}

/// Every class of the zoo at a representative shape, over `case`'s window.
fn zoo_specs(case: &ZooCase, deviation: f64) -> Vec<SpoofingAttack> {
    let waveforms = [
        Waveform::Constant,
        Waveform::Drift { ramp: case.duration / 2.0 },
        Waveform::Circular { omega: 1.3 },
        Waveform::Jump { period: 0.7 },
    ];
    waveforms
        .into_iter()
        .map(|w| {
            SpoofingAttack::from_waveform(
                w,
                0.into(),
                SpoofDirection::Right,
                case.start,
                case.duration,
                deviation,
            )
            .expect("representative zoo parameters are feasible")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pinned digests.
// ---------------------------------------------------------------------------

/// FNV-1a, folded over `bytes` starting from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn attack_records_are_pinned_for_every_class_and_grid_policy() {
    // A 10-drone delivery cut to 40 s, spoofed left on drone 6 over
    // [12.8, 24.8) s by 10 m: the constant, drift and circular attacks each
    // crash a different drone at a different time, the jump attack crashes
    // none. The digest folds the bits of every recorded position, then the
    // collision list; the grid policy must not move it.
    let mut spec = MissionSpec::paper_delivery(10, 0);
    spec.duration = 40.0;
    let pinned = [
        (Waveform::Constant, 0x3b10_a69c_c1d4_2aed_u64),
        (Waveform::Drift { ramp: 6.0 }, 0x42d0_a4e1_cb98_95a8),
        (Waveform::Circular { omega: 1.3 }, 0xc584_26db_e7ac_576d),
        (Waveform::Jump { period: 0.7 }, 0xec66_17fe_0de5_4b08),
    ];
    for policy in policies() {
        let sim = Simulation::new(spec.clone(), controller())
            .unwrap()
            .with_config(SimConfig { spatial: policy });
        for (waveform, expected) in pinned {
            let attack = SpoofingAttack::from_waveform(
                waveform,
                DroneId(6),
                SpoofDirection::Left,
                12.8,
                12.0,
                10.0,
            )
            .unwrap();
            let record = sim.run(Some(&attack)).unwrap().record;
            let mut digest = FNV_OFFSET;
            for tick in 0..record.len() {
                for p in record.positions_at(tick) {
                    for c in [p.x, p.y, p.z] {
                        digest = fnv1a(digest, &c.to_bits().to_le_bytes());
                    }
                }
            }
            digest = fnv1a(digest, format!("{:?}", record.collisions()).as_bytes());
            assert_eq!(digest, expected, "{waveform:?} under {policy:?}: {digest:#018x}");
        }
    }
}

#[test]
fn zoo_fuzz_reports_are_pinned_for_every_variant() {
    // The four fuzzers on one 10-drone mission, budget 20, with every class
    // enabled and with jump alone. With every class a random search spends
    // the whole budget on its first, constant seed, so the jump-only set is
    // what reaches the shaped random search. Seven of the eight reports
    // carry a finding, so their digests pin the fitted window and shape.
    let spec = MissionSpec::paper_delivery(10, 0);
    let jump_only = WaveformSet::parse(WaveformKind::Jump.name()).unwrap();
    let pinned = [
        (WaveformSet::all(), FuzzerConfig::swarmfuzz(10.0), 0xa8d7_aaff_32ce_7d84_u64),
        (WaveformSet::all(), FuzzerConfig::r_fuzz(10.0), 0x1807_db3c_8f69_5f0d),
        (WaveformSet::all(), FuzzerConfig::g_fuzz(10.0), 0x40e3_f63a_5766_88f9),
        (WaveformSet::all(), FuzzerConfig::s_fuzz(10.0), 0xb568_1e87_43b9_4828),
        (jump_only, FuzzerConfig::swarmfuzz(10.0), 0xa8a6_4960_0d1a_9cc9),
        (jump_only, FuzzerConfig::r_fuzz(10.0), 0x2131_24f4_b49c_41cc),
        (jump_only, FuzzerConfig::g_fuzz(10.0), 0x6f37_3802_f722_fc87),
        (jump_only, FuzzerConfig::s_fuzz(10.0), 0x8681_5531_b1d2_0eff),
    ];
    for (waveforms, config, expected) in pinned {
        let config = FuzzerConfig { eval_budget: 20, ..config }.with_waveforms(waveforms);
        let report = format!("{:?}", Fuzzer::new(controller(), config).fuzz(&spec));
        let digest = fnv1a(FNV_OFFSET, report.as_bytes());
        assert_eq!(
            digest,
            expected,
            "{} with {waveforms}: {digest:#018x} for {report}",
            config.variant_name()
        );
    }
}

// ---------------------------------------------------------------------------
// Metamorphic oracles.
// ---------------------------------------------------------------------------

#[test]
fn zero_amplitude_attack_of_every_class_equals_the_baseline() {
    // A spoof of amplitude zero displaces nothing, so the attacked record
    // must equal the no-attack record for every waveform class — injecting
    // an attack may not perturb a single RNG stream or physics step.
    check_budgeted("attack_zoo_zero_amplitude", (cases() / 16).max(6), &zoo_case(), |case| {
        let sim = sim_for(case)?;
        let baseline = sim.run(None).map_err(|e| e.to_string())?;
        for spec in zoo_specs(case, 0.0) {
            let attacked = sim.run(Some(&spec)).map_err(|e| e.to_string())?;
            tk_ensure!(
                attacked.record == baseline.record,
                "zero-amplitude {:?} attack perturbed the mission (policy {:?})",
                spec.waveform.kind(),
                case.policy
            );
        }
        Ok(())
    });
}

#[test]
fn direction_flip_mirrors_the_offset_across_the_mission_axis() {
    // Decompose the offset onto the mission frame: the across-axis component
    // must negate exactly under a direction flip while the along-axis
    // component is unchanged. Constant, drift and jump offsets are purely
    // across-axis, so their whole vector negates bitwise; circular carries
    // both components, checked on an axis-aligned frame where the
    // decomposition is exact.
    let gen = zip4(
        &zip2(&f64_in(-3.0, 3.0), &f64_in(-3.0, 3.0)),
        &f64_in(0.0, 25.0),
        &f64_in(0.5, 20.0),
        &zip2(&f64_in(0.0, 20.0), &f64_in(0.0, 3.0)),
    );
    check_budgeted(
        "attack_zoo_direction_flip",
        (cases() / 4).max(32),
        &gen,
        |&((ax, ay), start, duration, (deviation, dt))| {
            let axis = Vec2::new(ax, ay);
            if axis.norm() < 1e-6 {
                return Ok(()); // degenerate frame, not a mission axis
            }
            let t = start + dt.min(duration * 0.999);
            let case =
                ZooCase { swarm_size: 3, seed: 0, start, duration, policy: SpatialPolicy::Auto };
            for spec in zoo_specs(&case, deviation) {
                let flipped = SpoofingAttack::from_waveform(
                    spec.waveform,
                    spec.target,
                    spec.direction.flipped(),
                    start,
                    duration,
                    deviation,
                )
                .map_err(|e| e.to_string())?;
                let circular = spec.waveform.kind() == WaveformKind::Circular;
                let frame = if circular { Vec2::new(1.0, 0.0) } else { axis };
                let o = spec.offset_at(t, spec.target, frame);
                let f = flipped.offset_at(t, spec.target, frame);
                match (o, f) {
                    (None, None) => {}
                    (Some(o), Some(f)) => {
                        if circular {
                            // Axis (1, 0): along = x, across = ±y.
                            tk_ensure!(
                                f.x == o.x && f.y == -o.y && f.z == -o.z,
                                "circular flip must negate only the across component: {o:?} vs {f:?}"
                            );
                        } else {
                            // The offset is horizontal: x/y negate bit for
                            // bit, z stays exactly zero on both sides.
                            tk_ensure!(
                                f.x.to_bits() == (-o.x).to_bits()
                                    && f.y.to_bits() == (-o.y).to_bits()
                                    && o.z == 0.0
                                    && f.z == 0.0,
                                "{:?} flip must negate the offset bitwise: {o:?} vs {f:?}",
                                spec.waveform.kind()
                            );
                        }
                    }
                    (o, f) => {
                        return Err(format!(
                            "direction flip changed the activity window of {:?}: {o:?} vs {f:?}",
                            spec.waveform.kind()
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn ramp_in_deviation_is_monotone_in_window_time() {
    // The drift waveform models a slow drag: its offset magnitude must never
    // shrink as the window progresses, and must reach the full deviation
    // once the ramp completes.
    let gen =
        zip3(&f64_in(0.0, 25.0), &zip2(&f64_in(1.0, 20.0), &f64_in(0.0, 1.0)), &f64_in(0.1, 20.0));
    check_budgeted(
        "attack_zoo_ramp_monotone",
        (cases() / 4).max(32),
        &gen,
        |&(start, (duration, ramp_frac), deviation)| {
            let ramp = ramp_frac * duration;
            let spec = SpoofingAttack::from_waveform(
                Waveform::Drift { ramp },
                0.into(),
                SpoofDirection::Right,
                start,
                duration,
                deviation,
            )
            .map_err(|e| e.to_string())?;
            let axis = Vec2::new(1.0, 0.0);
            let mut prev = 0.0_f64;
            let steps = 64;
            for k in 0..steps {
                let t = start + duration * (k as f64 + 0.5) / steps as f64;
                let offset = spec
                    .offset_at(t, spec.target, axis)
                    .ok_or("drift must be active inside its window")?;
                let magnitude = offset.norm();
                tk_ensure!(
                    magnitude + 1e-12 >= prev,
                    "ramp-in deviation shrank: {magnitude} < {prev} at t = {t}"
                );
                tk_ensure!(
                    magnitude <= deviation * (1.0 + 1e-12),
                    "ramp-in overshot the deviation: {magnitude} > {deviation}"
                );
                if t - start >= ramp {
                    tk_ensure!(
                        magnitude == deviation,
                        "completed ramp must hold the full deviation: {magnitude} != {deviation}"
                    );
                }
                prev = magnitude;
            }
            Ok(())
        },
    );
}

#[test]
fn circular_at_omega_zero_is_identical_to_the_constant_offset() {
    // The orbit starts at the θ-side extreme, so ω = 0 freezes it into the
    // paper's constant offset — whole mission records must agree.
    check_budgeted("attack_zoo_circular_omega_zero", (cases() / 16).max(6), &zoo_case(), |case| {
        let sim = sim_for(case)?;
        let frozen = SpoofingAttack::from_waveform(
            Waveform::Circular { omega: 0.0 },
            0.into(),
            SpoofDirection::Right,
            case.start,
            case.duration,
            10.0,
        )
        .map_err(|e| e.to_string())?;
        let constant =
            SpoofingAttack::new(0.into(), SpoofDirection::Right, case.start, case.duration, 10.0)
                .map_err(|e| e.to_string())?;
        let a = sim.run(Some(&frozen)).map_err(|e| e.to_string())?;
        let b = sim.run(Some(&constant)).map_err(|e| e.to_string())?;
        tk_ensure!(
            a.record == b.record,
            "circular at ω = 0 diverged from the constant offset (policy {:?})",
            case.policy
        );
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Fuzz-report bit-identity across execution modes.
// ---------------------------------------------------------------------------

fn fuzzer_with(budget: usize, snapshots: bool) -> Fuzzer<VasarhelyiController> {
    let config = FuzzerConfig { eval_budget: budget, ..FuzzerConfig::swarmfuzz(10.0) };
    Fuzzer::new(controller(), config).with_snapshots(snapshots)
}

#[test]
fn constant_fuzz_reports_are_bit_identical_snapshots_on_vs_off() {
    // Whole-pipeline differential: the constant-offset fuzzer must report
    // exactly the same result with and without snapshot-and-fork execution.
    let gen = zip2(&u64_in(0..=50), &one_of(vec![2usize, 5, 20]));
    check_budgeted(
        "attack_zoo_fuzz_report_toggle",
        (cases() / 16).max(6),
        &gen,
        |&(seed, budget)| {
            let spec = MissionSpec::paper_delivery(5, seed);
            let fresh = fuzzer_with(budget, false).fuzz(&spec);
            let forked = fuzzer_with(budget, true).fuzz(&spec);
            tk_ensure!(
                format!("{fresh:?}") == format!("{forked:?}"),
                "snapshot toggle changed the fuzz result (seed {seed}, budget {budget})"
            );
            Ok(())
        },
    );
}

#[test]
fn zoo_fuzz_reports_are_bit_identical_snapshots_on_vs_off() {
    // The shaped (circular/jump) search paths must be equally deterministic
    // under forking: a full four-class fuzz run is bit-identical with
    // snapshots on and off.
    let gen = zip2(&u64_in(0..=50), &one_of(vec![4usize, 12]));
    check_budgeted(
        "attack_zoo_fuzz_all_classes",
        (cases() / 32).max(4),
        &gen,
        |&(seed, budget)| {
            let spec = MissionSpec::paper_delivery(4, seed);
            let make = |snapshots: bool| {
                let config = FuzzerConfig { eval_budget: budget, ..FuzzerConfig::swarmfuzz(10.0) }
                    .with_waveforms(WaveformSet::all());
                Fuzzer::new(controller(), config).with_snapshots(snapshots).fuzz(&spec)
            };
            let on = make(true);
            let off = make(false);
            tk_ensure!(
                format!("{on:?}") == format!("{off:?}"),
                "snapshot toggle changed the zoo fuzz result (seed {seed}, budget {budget})"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Campaign-report bit-identity across worker counts.
// ---------------------------------------------------------------------------

fn tiny_campaign(workers: usize) -> CampaignConfig {
    CampaignConfig {
        configs: vec![
            SwarmConfig { swarm_size: 3, deviation: 5.0 },
            SwarmConfig { swarm_size: 5, deviation: 10.0 },
        ],
        missions_per_config: 2,
        base_seed: 21,
        workers,
    }
}

#[test]
fn campaign_reports_are_identical_across_workers_and_snapshots() {
    let run = |workers: usize, snapshot: bool| {
        let make = |deviation: f64| {
            let config = FuzzerConfig { eval_budget: 4, ..FuzzerConfig::swarmfuzz(deviation) };
            Fuzzer::new(controller(), config).with_snapshots(snapshot)
        };
        run_campaign(&tiny_campaign(workers), make).expect("campaign must run")
    };
    let reference = run(1, false);
    assert_eq!(reference.missions.len(), 4);
    for workers in [1usize, 4] {
        for snapshot in [false, true] {
            assert_eq!(reference, run(workers, snapshot), "workers={workers}, snapshot={snapshot}");
        }
    }
}
