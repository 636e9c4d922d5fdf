//! The GPS spoofing attack model (paper §IV-A, "horizontal constant
//! spoofing").
//!
//! A test-run in SwarmFuzz is the tuple `<T-V, t_s, Δt, θ>` plus the global
//! spoofing deviation `d`. This module describes the part injected into the
//! simulator: the target drone, the spoofing window `[t_s, t_s + Δt)`, the
//! horizontal direction θ ∈ {left, right} and the offset distance `d`. While
//! the window is active the target's GPS reading (and therefore both its own
//! control input and the state it broadcasts to the swarm) is displaced by
//! `d` in direction θ, perpendicular to the mission axis — exactly how the
//! paper injects spoofing in SwarmLab ("manipulating the GPS reading to
//! GPS + d at the GPS sampling rate").
//!
//! [`SpoofingAttack`] is the one attack value. Its [`Waveform`] shapes the
//! offset inside the window: the paper's attack is [`Waveform::Constant`],
//! and the zoo adds a ramp-in drift, a circular orbit and a periodic jump,
//! each with one shape parameter.

use swarm_math::{Vec2, Vec3};

use crate::{DroneId, SimError};

/// Horizontal spoofing direction θ relative to the mission axis.
///
/// With the mission flying along +x, [`SpoofDirection::Left`] displaces the
/// perceived position toward +y and [`SpoofDirection::Right`] toward −y. The
/// paper encodes these as θ = −1 (left) and θ = +1 (right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpoofDirection {
    /// Displace perceived position to the left of the mission axis (θ = −1).
    Left,
    /// Displace perceived position to the right of the mission axis (θ = +1).
    Right,
}

impl SpoofDirection {
    /// Both directions, in the deterministic order used by seed schedulers.
    pub const BOTH: [SpoofDirection; 2] = [SpoofDirection::Right, SpoofDirection::Left];

    /// The paper's numeric encoding: +1 for right, −1 for left.
    pub fn theta(self) -> i8 {
        match self {
            SpoofDirection::Right => 1,
            SpoofDirection::Left => -1,
        }
    }

    /// The opposite direction.
    pub fn flipped(self) -> SpoofDirection {
        match self {
            SpoofDirection::Left => SpoofDirection::Right,
            SpoofDirection::Right => SpoofDirection::Left,
        }
    }

    /// Unit offset vector for a mission flying along `mission_axis`
    /// (horizontal). Left is +90° counter-clockwise from the axis.
    pub fn offset_direction(self, mission_axis: Vec2) -> Vec3 {
        let left = mission_axis.normalized().perp();
        let dir = match self {
            SpoofDirection::Left => left,
            SpoofDirection::Right => -left,
        };
        Vec3::new(dir.x, dir.y, 0.0)
    }
}

impl std::fmt::Display for SpoofDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoofDirection::Left => write!(f, "left"),
            SpoofDirection::Right => write!(f, "right"),
        }
    }
}

/// A fully specified GPS spoofing attack against one swarm member: the
/// paper's `<T, θ, t_s, Δt, d>` plus the [`Waveform`] that shapes the offset
/// inside the window. [`Waveform::Constant`] is the paper's attack; the other
/// classes of the zoo are the same value with a different shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofingAttack {
    /// The drone whose GPS is spoofed (the paper's *target* drone).
    pub target: DroneId,
    /// Spoofing direction θ.
    pub direction: SpoofDirection,
    /// Attack start time `t_s` in seconds.
    pub start: f64,
    /// Attack duration `Δt` in seconds.
    pub duration: f64,
    /// Spoofing deviation `d` in metres (e.g. 5 or 10): the constant offset,
    /// the ramp's final offset, the orbit radius or the jump amplitude.
    pub deviation: f64,
    /// How the offset evolves inside the window.
    pub waveform: Waveform,
}

impl SpoofingAttack {
    /// Creates the paper's constant-offset attack, validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAttack`] when `start`, `duration` or
    /// `deviation` is negative or non-finite.
    pub fn new(
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
    ) -> Result<Self, SimError> {
        SpoofingAttack::from_waveform(
            Waveform::Constant,
            target,
            direction,
            start,
            duration,
            deviation,
        )
    }

    /// Creates an attack of any class from a seed-level waveform plus the
    /// searched window, validating the parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpoofingAttack::validate`].
    pub fn from_waveform(
        waveform: Waveform,
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
    ) -> Result<Self, SimError> {
        let attack = SpoofingAttack { target, direction, start, duration, deviation, waveform };
        attack.validate()?;
        Ok(attack)
    }

    /// Checks the parameters in isolation (every field is public, so a
    /// hand-built value may never have met a constructor).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAttack`] when `start`, `duration`,
    /// `deviation`, a ramp time or ω is negative or non-finite, when a ramp
    /// time exceeds the window duration, or when a jump period is not
    /// positive and finite.
    pub fn validate(&self) -> Result<(), SimError> {
        validate_non_negative("start", self.start)?;
        validate_non_negative("duration", self.duration)?;
        validate_non_negative("deviation", self.deviation)?;
        match self.waveform {
            Waveform::Constant => {}
            Waveform::Drift { ramp } => {
                validate_non_negative("ramp", ramp)?;
                if ramp > self.duration {
                    return Err(SimError::InvalidAttack(format!(
                        "ramp-in time {ramp} exceeds the attack window duration {}",
                        self.duration
                    )));
                }
            }
            Waveform::Circular { omega } => validate_non_negative("omega", omega)?,
            Waveform::Jump { period } => {
                if !period.is_finite() || period <= 0.0 {
                    return Err(SimError::InvalidAttack(format!(
                        "period must be finite and positive, got {period}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// End of the spoofing window (`t_s + Δt`).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// `true` while the attack is active at time `t` (half-open window).
    pub fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.end()
    }

    /// The GPS displacement for `drone` at time `t`, for a mission flying
    /// along `mission_axis`; `None` when the attack leaves this drone's GPS
    /// untouched at `t`.
    ///
    /// The runner injects an exact [`Vec3::ZERO`] for `None`, so an attack is
    /// bit-identical to no attack at all outside its window — the invariant
    /// snapshot forking relies on to resume from any prefix ending at or
    /// before `start`.
    pub fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone != self.target || !self.is_active(t) {
            return None;
        }
        let across = self.direction.offset_direction(mission_axis);
        match self.waveform {
            Waveform::Constant => Some(across * self.deviation),
            Waveform::Drift { ramp } => {
                let tau = t - self.start;
                let scale = if ramp > 0.0 { (tau / ramp).min(1.0) } else { 1.0 };
                Some(across * (self.deviation * scale))
            }
            Waveform::Circular { omega } => {
                let (d, phase) = (self.deviation, omega * (t - self.start));
                let axis = mission_axis.normalized();
                let along = Vec3::new(axis.x, axis.y, 0.0);
                Some(across * (d * phase.cos()) + along * (d * phase.sin()))
            }
            Waveform::Jump { period } => {
                let half_cycle = ((t - self.start) / period).floor() as u64;
                half_cycle.is_multiple_of(2).then(|| across * self.deviation)
            }
        }
    }

    /// Returns a copy with a different spoofing window, its waveform
    /// re-fitted to the new duration by [`Waveform::fitted`] (a ramp longer
    /// than the new window is capped to it), and re-validated.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpoofingAttack::validate`].
    pub fn with_window(&self, start: f64, duration: f64) -> Result<Self, SimError> {
        let waveform = Waveform::fitted(self.waveform.kind(), duration, self.waveform.shape());
        SpoofingAttack::from_waveform(
            waveform,
            self.target,
            self.direction,
            start,
            duration,
            self.deviation,
        )
    }
}

/// The paper's attack prints as `spoof <target> <θ> by <d> m during
/// [t_s, t_s + Δt) s`; every other class is prefixed with its name and
/// suffixed with its shape parameter.
impl std::fmt::Display for SpoofingAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.waveform != Waveform::Constant {
            write!(f, "{} ", self.waveform.kind())?;
        }
        write!(
            f,
            "spoof {} {} by {:.1} m during [{:.2}, {:.2}) s",
            self.target,
            self.direction,
            self.deviation,
            self.start,
            self.end()
        )?;
        match self.waveform {
            Waveform::Constant => Ok(()),
            Waveform::Drift { ramp } => write!(f, " (ramp-in {ramp:.1} s)"),
            Waveform::Circular { omega } => write!(f, " (omega {omega:.2} rad/s)"),
            Waveform::Jump { period } => write!(f, " (period {period:.2} s)"),
        }
    }
}

/// The attack classes of the zoo, without their shape parameters — the unit
/// a seed scheduler ranks and a CLI flag selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WaveformKind {
    /// The paper's horizontal constant-offset spoof.
    Constant,
    /// Linear ramp-in to the full deviation over a ramp time.
    Drift,
    /// Circular orbit of radius `d` at angular rate ω around the true fix.
    Circular,
    /// Periodic teleport: full offset toggling on and off every period.
    Jump,
}

impl WaveformKind {
    /// Every class, in the deterministic order used by schedulers and CLIs.
    pub const ALL: [WaveformKind; 4] =
        [WaveformKind::Constant, WaveformKind::Drift, WaveformKind::Circular, WaveformKind::Jump];

    /// The CLI/journal token for this class.
    pub fn name(self) -> &'static str {
        match self {
            WaveformKind::Constant => "constant",
            WaveformKind::Drift => "drift",
            WaveformKind::Circular => "circular",
            WaveformKind::Jump => "jump",
        }
    }

    /// Parses a CLI/journal token.
    pub fn parse(token: &str) -> Option<WaveformKind> {
        WaveformKind::ALL.into_iter().find(|k| k.name() == token)
    }
}

impl std::fmt::Display for WaveformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of enabled attack classes (CLI `--attacks constant,drift,...`).
///
/// Kept `Copy` and defaulting to constant-only so fuzzer configurations that
/// never mention waveforms behave — and fingerprint — exactly as before the
/// zoo existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WaveformSet {
    bits: u8,
}

impl WaveformSet {
    /// The default set: the paper's constant-offset spoofing only.
    pub const CONSTANT_ONLY: WaveformSet = WaveformSet { bits: 1 };

    /// Every class in the zoo.
    pub fn all() -> WaveformSet {
        let mut s = WaveformSet { bits: 0 };
        for k in WaveformKind::ALL {
            s.insert(k);
        }
        s
    }

    /// Adds a class to the set.
    pub fn insert(&mut self, kind: WaveformKind) {
        self.bits |= 1 << kind as u8;
    }

    /// Whether the set contains `kind`.
    pub fn contains(self, kind: WaveformKind) -> bool {
        self.bits & (1 << kind as u8) != 0
    }

    /// Enabled classes in canonical ([`WaveformKind::ALL`]) order.
    pub fn iter(self) -> impl Iterator<Item = WaveformKind> {
        WaveformKind::ALL.into_iter().filter(move |&k| self.contains(k))
    }

    /// Whether no class is enabled.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Parses a comma-separated class list, e.g. `"constant,drift"`.
    ///
    /// # Errors
    ///
    /// Returns the offending token when it names no class, or an error for
    /// an empty list.
    pub fn parse(list: &str) -> Result<WaveformSet, String> {
        let mut set = WaveformSet { bits: 0 };
        for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match WaveformKind::parse(token) {
                Some(kind) => set.insert(kind),
                None => return Err(format!("unknown attack class {token:?}")),
            }
        }
        if set.is_empty() {
            return Err("attack class list is empty".to_string());
        }
        Ok(set)
    }
}

impl Default for WaveformSet {
    fn default() -> Self {
        WaveformSet::CONSTANT_ONLY
    }
}

impl std::fmt::Display for WaveformSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(WaveformKind::name).collect();
        f.write_str(&names.join(","))
    }
}

/// A waveform together with its shape parameter — the typed, serializable
/// parameter space the search optimizes and the journal persists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant offset; no shape parameter.
    Constant,
    /// Ramp-in over `ramp` seconds from zero to the full deviation.
    Drift {
        /// Ramp-in time in seconds (≤ the window duration).
        ramp: f64,
    },
    /// Orbit at angular rate `omega` (rad/s); ω = 0 degenerates to constant.
    Circular {
        /// Angular rate in rad/s.
        omega: f64,
    },
    /// Offset present during even half-cycles of length `period` seconds.
    Jump {
        /// Half-cycle length in seconds.
        period: f64,
    },
}

impl Waveform {
    /// The class of this waveform.
    pub fn kind(self) -> WaveformKind {
        match self {
            Waveform::Constant => WaveformKind::Constant,
            Waveform::Drift { .. } => WaveformKind::Drift,
            Waveform::Circular { .. } => WaveformKind::Circular,
            Waveform::Jump { .. } => WaveformKind::Jump,
        }
    }

    /// The shape parameter, when the class has one.
    pub fn shape(self) -> Option<f64> {
        match self {
            Waveform::Constant => None,
            Waveform::Drift { ramp } => Some(ramp),
            Waveform::Circular { omega } => Some(omega),
            Waveform::Jump { period } => Some(period),
        }
    }

    /// The waveform of class `kind` that an attack window of `duration`
    /// seconds flies: the searched `shape` when there is one, else the class
    /// default (drift ramps in over the whole window, ω = 1 rad/s, a 1 s jump
    /// period), capped so the attack stays valid — a ramp never outlasts its
    /// window and a jump period stays positive.
    pub fn fitted(kind: WaveformKind, duration: f64, shape: Option<f64>) -> Waveform {
        match kind {
            WaveformKind::Constant => Waveform::Constant,
            WaveformKind::Drift => {
                Waveform::Drift { ramp: shape.unwrap_or(duration).min(duration) }
            }
            WaveformKind::Circular => Waveform::Circular { omega: shape.unwrap_or(1.0) },
            WaveformKind::Jump => {
                Waveform::Jump { period: shape.unwrap_or(1.0).max(f64::MIN_POSITIVE) }
            }
        }
    }
}

fn validate_non_negative(name: &str, v: f64) -> Result<(), SimError> {
    if !v.is_finite() || v < 0.0 {
        return Err(SimError::InvalidAttack(format!(
            "{name} must be finite and non-negative, got {v}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack() -> SpoofingAttack {
        SpoofingAttack::new(DroneId(2), SpoofDirection::Right, 10.0, 5.0, 10.0).unwrap()
    }

    fn shaped(waveform: Waveform, start: f64, duration: f64, deviation: f64) -> SpoofingAttack {
        SpoofingAttack::from_waveform(
            waveform,
            DroneId(0),
            SpoofDirection::Left,
            start,
            duration,
            deviation,
        )
        .unwrap()
    }

    #[test]
    fn window_is_half_open() {
        let a = attack();
        assert!(!a.is_active(9.999));
        assert!(a.is_active(10.0));
        assert!(a.is_active(14.999));
        assert!(!a.is_active(15.0));
    }

    #[test]
    fn offset_only_for_target_in_window() {
        let a = attack();
        let axis = Vec2::X;
        assert_eq!(a.offset_at(12.0, DroneId(0), axis), None);
        assert_eq!(a.offset_at(2.0, DroneId(2), axis), None);
        let o = a.offset_at(12.0, DroneId(2), axis).unwrap();
        // Right of +x is -y.
        assert!((o.y + 10.0).abs() < 1e-12, "offset={o}");
        assert!(o.x.abs() < 1e-12);
    }

    #[test]
    fn left_and_right_are_opposite() {
        let l = SpoofDirection::Left.offset_direction(Vec2::X);
        let r = SpoofDirection::Right.offset_direction(Vec2::X);
        assert_eq!(l, -r);
        assert_eq!(SpoofDirection::Left.flipped(), SpoofDirection::Right);
    }

    #[test]
    fn theta_encoding_matches_paper() {
        assert_eq!(SpoofDirection::Right.theta(), 1);
        assert_eq!(SpoofDirection::Left.theta(), -1);
    }

    #[test]
    fn direction_follows_rotated_axis() {
        // Mission along +y: left of +y is -x.
        let l = SpoofDirection::Left.offset_direction(Vec2::Y);
        assert!((l.x + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_parameters() {
        assert!(SpoofingAttack::new(DroneId(0), SpoofDirection::Left, -1.0, 1.0, 5.0).is_err());
        assert!(SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 0.0, f64::NAN, 5.0).is_err());
        assert!(SpoofingAttack::new(DroneId(0), SpoofDirection::Left, 0.0, 1.0, -5.0).is_err());
    }

    #[test]
    fn with_window_preserves_identity() {
        let a = attack().with_window(1.0, 2.0).unwrap();
        assert_eq!(a.target, DroneId(2));
        assert_eq!(a.start, 1.0);
        assert_eq!(a.duration, 2.0);
        assert_eq!(a.deviation, 10.0);
        assert_eq!(a.waveform, Waveform::Constant);
        // A shaped attack keeps its class; a ramp is capped to a shorter
        // window, the other shapes carry over unchanged.
        let drift = shaped(Waveform::Drift { ramp: 6.0 }, 0.0, 8.0, 5.0);
        assert_eq!(drift.with_window(2.0, 4.0).unwrap().waveform, Waveform::Drift { ramp: 4.0 });
        assert_eq!(drift.with_window(2.0, 7.0).unwrap().waveform, Waveform::Drift { ramp: 6.0 });
        let jump = shaped(Waveform::Jump { period: 2.5 }, 0.0, 8.0, 5.0);
        assert_eq!(jump.with_window(1.0, 3.0).unwrap().waveform, Waveform::Jump { period: 2.5 });
    }

    #[test]
    fn display_mentions_target_and_window() {
        let s = attack().to_string();
        assert_eq!(s, "spoof drone2 right by 10.0 m during [10.00, 15.00) s");
    }

    #[test]
    fn ramp_drift_scales_linearly_then_holds() {
        let a = shaped(Waveform::Drift { ramp: 4.0 }, 10.0, 8.0, 6.0);
        let axis = Vec2::X;
        let at = |t: f64| a.offset_at(t, DroneId(0), axis).unwrap().norm();
        assert!((at(10.0) - 0.0).abs() < 1e-12);
        assert!((at(12.0) - 3.0).abs() < 1e-12);
        assert!((at(14.0) - 6.0).abs() < 1e-12);
        assert!((at(16.0) - 6.0).abs() < 1e-12, "holds at full deviation after the ramp");
        assert_eq!(a.offset_at(18.0, DroneId(0), axis), None, "window is half-open");
    }

    #[test]
    fn ramp_drift_rejects_ramp_exceeding_window() {
        let err = SpoofingAttack::from_waveform(
            Waveform::Drift { ramp: 5.1 },
            DroneId(0),
            SpoofDirection::Left,
            0.0,
            5.0,
            6.0,
        )
        .expect_err("ramp longer than the window is infeasible");
        let SimError::InvalidAttack(msg) = err else { panic!("wrong error kind") };
        assert_eq!(msg, "ramp-in time 5.1 exceeds the attack window duration 5");
    }

    #[test]
    fn circular_at_omega_zero_is_bitwise_constant() {
        let axis = Vec2::new(0.8, 0.6);
        let circ = SpoofingAttack::from_waveform(
            Waveform::Circular { omega: 0.0 },
            DroneId(1),
            SpoofDirection::Right,
            5.0,
            20.0,
            10.0,
        )
        .unwrap();
        let cons = SpoofingAttack::new(DroneId(1), SpoofDirection::Right, 5.0, 20.0, 10.0).unwrap();
        for t in [5.0, 9.3, 17.77, 24.999] {
            let c = circ.offset_at(t, DroneId(1), axis).unwrap();
            let k = cons.offset_at(t, DroneId(1), axis).unwrap();
            assert_eq!(c.x.to_bits(), k.x.to_bits(), "t={t}");
            assert_eq!(c.y.to_bits(), k.y.to_bits(), "t={t}");
            assert_eq!(c.z.to_bits(), k.z.to_bits(), "t={t}");
        }
    }

    #[test]
    fn circular_orbit_keeps_radius() {
        let a = shaped(Waveform::Circular { omega: 0.9 }, 0.0, 100.0, 7.0);
        for t in [0.0, 1.3, 5.5, 40.0, 99.0] {
            let o = a.offset_at(t, DroneId(0), Vec2::new(1.0, 0.4)).unwrap();
            assert!((o.norm() - 7.0).abs() < 1e-9, "radius preserved at t={t}");
        }
    }

    #[test]
    fn jump_toggles_every_period() {
        let a = shaped(Waveform::Jump { period: 2.0 }, 10.0, 10.0, 5.0);
        let axis = Vec2::X;
        assert!(a.offset_at(10.0, DroneId(0), axis).is_some(), "first half-cycle on");
        assert!(a.offset_at(11.9, DroneId(0), axis).is_some());
        assert_eq!(a.offset_at(12.0, DroneId(0), axis), None, "second half-cycle off");
        assert!(a.offset_at(14.5, DroneId(0), axis).is_some(), "third half-cycle on again");
        assert_eq!(a.offset_at(20.0, DroneId(0), axis), None, "window over");
    }

    #[test]
    fn zoo_constructors_reject_bad_shape_parameters() {
        let make = |waveform| {
            SpoofingAttack::from_waveform(waveform, DroneId(0), SpoofDirection::Left, 0.0, 5.0, 5.0)
        };
        let c = |omega| make(Waveform::Circular { omega });
        assert!(matches!(c(f64::NAN), Err(SimError::InvalidAttack(_))));
        assert!(matches!(c(-1.0), Err(SimError::InvalidAttack(_))));
        let j = |period| make(Waveform::Jump { period });
        assert!(matches!(j(0.0), Err(SimError::InvalidAttack(_))));
        assert!(matches!(j(f64::INFINITY), Err(SimError::InvalidAttack(_))));
        let r = |ramp| make(Waveform::Drift { ramp });
        assert!(matches!(r(-0.1), Err(SimError::InvalidAttack(_))));
    }

    #[test]
    fn waveform_set_parses_and_displays() {
        let set = WaveformSet::parse("constant, drift,jump").unwrap();
        assert!(set.contains(WaveformKind::Constant));
        assert!(set.contains(WaveformKind::Drift));
        assert!(!set.contains(WaveformKind::Circular));
        assert_eq!(set.to_string(), "constant,drift,jump");
        assert_eq!(WaveformSet::default(), WaveformSet::CONSTANT_ONLY);
        assert_eq!(WaveformSet::all().iter().count(), 4);
        assert_eq!(
            WaveformSet::parse("constant,wobble").unwrap_err(),
            "unknown attack class \"wobble\""
        );
        assert_eq!(WaveformSet::parse(" ,").unwrap_err(), "attack class list is empty");
    }

    #[test]
    fn attack_spec_round_trips_waveform() {
        for (waveform, wants_shape) in [
            (Waveform::Constant, false),
            (Waveform::Drift { ramp: 3.0 }, true),
            (Waveform::Circular { omega: 1.5 }, true),
            (Waveform::Jump { period: 2.0 }, true),
        ] {
            let a = SpoofingAttack::from_waveform(
                waveform,
                DroneId(1),
                SpoofDirection::Left,
                2.0,
                8.0,
                5.0,
            )
            .unwrap();
            assert_eq!(a.waveform, waveform);
            assert_eq!(a.waveform.shape().is_some(), wants_shape);
            assert_eq!(Waveform::fitted(waveform.kind(), 8.0, waveform.shape()), waveform);
            assert_eq!(a.target, DroneId(1));
            assert_eq!(a.start, 2.0);
            assert_eq!(a.duration, 8.0);
            assert_eq!(a.deviation, 5.0);
        }
    }

    #[test]
    fn attack_spec_display_names_the_class() {
        let a = SpoofingAttack::from_waveform(
            Waveform::Circular { omega: 1.25 },
            DroneId(3),
            SpoofDirection::Right,
            1.0,
            4.0,
            10.0,
        )
        .unwrap();
        assert_eq!(
            a.to_string(),
            "circular spoof drone3 right by 10.0 m during [1.00, 5.00) s (omega 1.25 rad/s)"
        );
    }
}
