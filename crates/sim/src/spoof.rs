//! The GPS spoofing attack model (paper §IV-A, "horizontal constant
//! spoofing").
//!
//! A test-run in SwarmFuzz is the tuple `<T-V, t_s, Δt, θ>` plus the global
//! spoofing deviation `d`. This module describes the part injected into the
//! simulator: the target drone, the spoofing window `[t_s, t_s + Δt)`, the
//! horizontal direction θ ∈ {left, right} and the constant offset distance
//! `d`. While the window is active the target's GPS reading (and therefore
//! both its own control input and the state it broadcasts to the swarm) is
//! displaced by `d` in direction θ, perpendicular to the mission axis —
//! exactly how the paper injects spoofing in SwarmLab ("manipulating the GPS
//! reading to GPS + d at the GPS sampling rate").

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

/// A fully specified GPS spoofing attack against one swarm member.
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
    /// Constant spoofing deviation `d` in metres (e.g. 5 or 10).
    pub deviation: f64,
}

impl SpoofingAttack {
    /// Creates an attack, validating the parameters.
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
        for (name, v) in [("start", start), ("duration", duration), ("deviation", deviation)] {
            if !v.is_finite() || v < 0.0 {
                return Err(SimError::InvalidAttack(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(SpoofingAttack { target, direction, start, duration, deviation })
    }

    /// End of the spoofing window (`t_s + Δt`).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// `true` while the attack is active at time `t` (half-open window).
    pub fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.end()
    }

    /// The GPS offset applied to `drone` at time `t` for a mission flying
    /// along `mission_axis`; zero when the attack is inactive or aimed at a
    /// different drone.
    pub fn offset_for(&self, drone: DroneId, t: f64, mission_axis: Vec2) -> Vec3 {
        if drone == self.target && self.is_active(t) {
            self.direction.offset_direction(mission_axis) * self.deviation
        } else {
            Vec3::ZERO
        }
    }

    /// Returns a copy with a different spoofing window, re-validated.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpoofingAttack::new`].
    pub fn with_window(&self, start: f64, duration: f64) -> Result<Self, SimError> {
        SpoofingAttack::new(self.target, self.direction, start, duration, self.deviation)
    }
}

impl std::fmt::Display for SpoofingAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spoof {} {} by {:.1} m during [{:.2}, {:.2}) s",
            self.target,
            self.direction,
            self.deviation,
            self.start,
            self.end()
        )
    }
}

/// A GPS spoofing attack model: anything that can displace one drone's GPS
/// reading over time.
///
/// The simulator never stores an attack — it threads `Option<&dyn
/// AttackModel>` through the run loop and queries the offset at every GPS
/// sampling instant. `None` from [`AttackModel::offset_at`] means "no
/// displacement for this drone at this time" and injects an exact
/// [`Vec3::ZERO`], so a model that is inert outside its window is
/// bit-identical to no attack at all outside that window (the invariant the
/// snapshot-fork machinery relies on).
pub trait AttackModel {
    /// The drone whose GPS this model spoofs.
    fn target(&self) -> DroneId;

    /// Earliest time at which the model can produce a non-`None` offset.
    /// Snapshot admission (`resume` from a cached baseline prefix) uses this
    /// to prove the simulated prefix is attack-free.
    fn start(&self) -> f64;

    /// The GPS displacement for `drone` at time `t`, for a mission flying
    /// along `mission_axis`; `None` when the model leaves this drone's GPS
    /// untouched at `t`.
    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3>;
}

impl AttackModel for SpoofingAttack {
    fn target(&self) -> DroneId {
        self.target
    }

    fn start(&self) -> f64 {
        self.start
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone == self.target && self.is_active(t) {
            Some(self.direction.offset_direction(mission_axis) * self.deviation)
        } else {
            None
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
    /// The legacy set: constant-offset spoofing only.
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

    /// Number of enabled classes.
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
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
}

fn validate_non_negative(name: &str, v: f64) -> Result<(), SimError> {
    if !v.is_finite() || v < 0.0 {
        return Err(SimError::InvalidAttack(format!(
            "{name} must be finite and non-negative, got {v}"
        )));
    }
    Ok(())
}

/// The paper's constant-offset spoof as a zoo class: identical semantics to
/// [`SpoofingAttack`], expressed through [`AttackModel`]. The offset math is
/// the very same float operations, so the two paths are bit-identical — the
/// property `tests/attack_zoo_equivalence.rs` enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantOffset {
    /// The spoofed drone.
    pub target: DroneId,
    /// Spoofing direction θ.
    pub direction: SpoofDirection,
    /// Window start `t_s` in seconds.
    pub start: f64,
    /// Window duration `Δt` in seconds.
    pub duration: f64,
    /// Offset amplitude `d` in metres.
    pub deviation: f64,
}

impl ConstantOffset {
    /// Creates a constant-offset attack, validating window and amplitude.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidAttack`] when `start`, `duration` or `deviation`
    /// is negative or non-finite.
    pub fn new(
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
    ) -> Result<Self, SimError> {
        SpoofingAttack::new(target, direction, start, duration, deviation)?;
        Ok(ConstantOffset { target, direction, start, duration, deviation })
    }

    fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

impl AttackModel for ConstantOffset {
    fn target(&self) -> DroneId {
        self.target
    }

    fn start(&self) -> f64 {
        self.start
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone == self.target && self.is_active(t) {
            Some(self.direction.offset_direction(mission_axis) * self.deviation)
        } else {
            None
        }
    }
}

/// Linear ramp-in drift: the offset grows from zero to the full deviation
/// over `ramp` seconds, then holds — the "slow drag" waveform GPS spoofers
/// use to stay under innovation monitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampDrift {
    /// The spoofed drone.
    pub target: DroneId,
    /// Spoofing direction θ.
    pub direction: SpoofDirection,
    /// Window start `t_s` in seconds.
    pub start: f64,
    /// Window duration `Δt` in seconds.
    pub duration: f64,
    /// Final offset amplitude `d` in metres.
    pub deviation: f64,
    /// Ramp-in time in seconds; must not exceed `duration`.
    pub ramp: f64,
}

impl RampDrift {
    /// Creates a ramp-in drift attack.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidAttack`] when a window parameter is negative or
    /// non-finite, or when the ramp time exceeds the window duration.
    pub fn new(
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
        ramp: f64,
    ) -> Result<Self, SimError> {
        SpoofingAttack::new(target, direction, start, duration, deviation)?;
        validate_non_negative("ramp", ramp)?;
        if ramp > duration {
            return Err(SimError::InvalidAttack(format!(
                "ramp-in time {ramp} exceeds the attack window duration {duration}"
            )));
        }
        Ok(RampDrift { target, direction, start, duration, deviation, ramp })
    }

    fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

impl AttackModel for RampDrift {
    fn target(&self) -> DroneId {
        self.target
    }

    fn start(&self) -> f64 {
        self.start
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone != self.target || !self.is_active(t) {
            return None;
        }
        let tau = t - self.start;
        let scale = if self.ramp > 0.0 { (tau / self.ramp).min(1.0) } else { 1.0 };
        Some(self.direction.offset_direction(mission_axis) * (self.deviation * scale))
    }
}

/// Circular orbit: the perceived position circles the true fix with radius
/// `d` at angular rate ω, starting at the θ-side extreme so ω = 0
/// degenerates to the constant offset exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circular {
    /// The spoofed drone.
    pub target: DroneId,
    /// Spoofing direction θ (the phase-0 side of the orbit).
    pub direction: SpoofDirection,
    /// Window start `t_s` in seconds.
    pub start: f64,
    /// Window duration `Δt` in seconds.
    pub duration: f64,
    /// Orbit radius `d` in metres.
    pub deviation: f64,
    /// Angular rate ω in rad/s.
    pub omega: f64,
}

impl Circular {
    /// Creates a circular-orbit attack.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidAttack`] when a window parameter or ω is negative
    /// or non-finite.
    pub fn new(
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
        omega: f64,
    ) -> Result<Self, SimError> {
        SpoofingAttack::new(target, direction, start, duration, deviation)?;
        validate_non_negative("omega", omega)?;
        Ok(Circular { target, direction, start, duration, deviation, omega })
    }

    fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

impl AttackModel for Circular {
    fn target(&self) -> DroneId {
        self.target
    }

    fn start(&self) -> f64 {
        self.start
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone != self.target || !self.is_active(t) {
            return None;
        }
        let phase = self.omega * (t - self.start);
        let across = self.direction.offset_direction(mission_axis);
        let axis = mission_axis.normalized();
        let along = Vec3::new(axis.x, axis.y, 0.0);
        Some(across * (self.deviation * phase.cos()) + along * (self.deviation * phase.sin()))
    }
}

/// Periodic teleport: the full offset appears during even half-cycles of
/// `period` seconds and vanishes during odd ones — the discontinuous
/// waveform that stresses estimator gating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jump {
    /// The spoofed drone.
    pub target: DroneId,
    /// Spoofing direction θ.
    pub direction: SpoofDirection,
    /// Window start `t_s` in seconds.
    pub start: f64,
    /// Window duration `Δt` in seconds.
    pub duration: f64,
    /// Offset amplitude `d` in metres.
    pub deviation: f64,
    /// Half-cycle length in seconds; must be positive.
    pub period: f64,
}

impl Jump {
    /// Creates a periodic-jump attack.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidAttack`] when a window parameter is negative or
    /// non-finite, or the period is not positive and finite.
    pub fn new(
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
        period: f64,
    ) -> Result<Self, SimError> {
        SpoofingAttack::new(target, direction, start, duration, deviation)?;
        if !period.is_finite() || period <= 0.0 {
            return Err(SimError::InvalidAttack(format!(
                "period must be finite and positive, got {period}"
            )));
        }
        Ok(Jump { target, direction, start, duration, deviation, period })
    }

    fn is_active(&self, t: f64) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

impl AttackModel for Jump {
    fn target(&self) -> DroneId {
        self.target
    }

    fn start(&self) -> f64 {
        self.start
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        if drone != self.target || !self.is_active(t) {
            return None;
        }
        let half_cycle = ((t - self.start) / self.period).floor() as u64;
        if half_cycle.is_multiple_of(2) {
            Some(self.direction.offset_direction(mission_axis) * self.deviation)
        } else {
            None
        }
    }
}

/// A fully specified attack from any class of the zoo — the closed sum the
/// fuzzer searches over and the journal serializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSpec {
    /// The paper's constant-offset spoof.
    Constant(ConstantOffset),
    /// Linear ramp-in drift.
    Drift(RampDrift),
    /// Circular orbit.
    Circular(Circular),
    /// Periodic teleport.
    Jump(Jump),
}

impl AttackSpec {
    /// Builds a spec from a seed-level waveform plus the searched window.
    ///
    /// # Errors
    ///
    /// Propagates the class constructor's [`SimError::InvalidAttack`].
    pub fn from_waveform(
        waveform: Waveform,
        target: DroneId,
        direction: SpoofDirection,
        start: f64,
        duration: f64,
        deviation: f64,
    ) -> Result<Self, SimError> {
        Ok(match waveform {
            Waveform::Constant => AttackSpec::Constant(ConstantOffset::new(
                target, direction, start, duration, deviation,
            )?),
            Waveform::Drift { ramp } => AttackSpec::Drift(RampDrift::new(
                target, direction, start, duration, deviation, ramp,
            )?),
            Waveform::Circular { omega } => AttackSpec::Circular(Circular::new(
                target, direction, start, duration, deviation, omega,
            )?),
            Waveform::Jump { period } => {
                AttackSpec::Jump(Jump::new(target, direction, start, duration, deviation, period)?)
            }
        })
    }

    /// The waveform (class + shape parameter) of this spec.
    pub fn waveform(&self) -> Waveform {
        match self {
            AttackSpec::Constant(_) => Waveform::Constant,
            AttackSpec::Drift(a) => Waveform::Drift { ramp: a.ramp },
            AttackSpec::Circular(a) => Waveform::Circular { omega: a.omega },
            AttackSpec::Jump(a) => Waveform::Jump { period: a.period },
        }
    }

    /// Spoofing direction θ.
    pub fn direction(&self) -> SpoofDirection {
        match self {
            AttackSpec::Constant(a) => a.direction,
            AttackSpec::Drift(a) => a.direction,
            AttackSpec::Circular(a) => a.direction,
            AttackSpec::Jump(a) => a.direction,
        }
    }

    /// Window duration `Δt` in seconds.
    pub fn duration(&self) -> f64 {
        match self {
            AttackSpec::Constant(a) => a.duration,
            AttackSpec::Drift(a) => a.duration,
            AttackSpec::Circular(a) => a.duration,
            AttackSpec::Jump(a) => a.duration,
        }
    }

    /// Offset amplitude `d` in metres.
    pub fn deviation(&self) -> f64 {
        match self {
            AttackSpec::Constant(a) => a.deviation,
            AttackSpec::Drift(a) => a.deviation,
            AttackSpec::Circular(a) => a.deviation,
            AttackSpec::Jump(a) => a.deviation,
        }
    }
}

impl AttackModel for AttackSpec {
    fn target(&self) -> DroneId {
        match self {
            AttackSpec::Constant(a) => a.target,
            AttackSpec::Drift(a) => a.target,
            AttackSpec::Circular(a) => a.target,
            AttackSpec::Jump(a) => a.target,
        }
    }

    fn start(&self) -> f64 {
        match self {
            AttackSpec::Constant(a) => a.start,
            AttackSpec::Drift(a) => a.start,
            AttackSpec::Circular(a) => a.start,
            AttackSpec::Jump(a) => a.start,
        }
    }

    fn offset_at(&self, t: f64, drone: DroneId, mission_axis: Vec2) -> Option<Vec3> {
        match self {
            AttackSpec::Constant(a) => a.offset_at(t, drone, mission_axis),
            AttackSpec::Drift(a) => a.offset_at(t, drone, mission_axis),
            AttackSpec::Circular(a) => a.offset_at(t, drone, mission_axis),
            AttackSpec::Jump(a) => a.offset_at(t, drone, mission_axis),
        }
    }
}

impl std::fmt::Display for AttackSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} spoof {} {} by {:.1} m during [{:.2}, {:.2}) s",
            self.waveform().kind(),
            AttackModel::target(self),
            self.direction(),
            self.deviation(),
            AttackModel::start(self),
            AttackModel::start(self) + self.duration()
        )?;
        match self.waveform() {
            Waveform::Constant => Ok(()),
            Waveform::Drift { ramp } => write!(f, " (ramp-in {ramp:.1} s)"),
            Waveform::Circular { omega } => write!(f, " (omega {omega:.2} rad/s)"),
            Waveform::Jump { period } => write!(f, " (period {period:.2} s)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack() -> SpoofingAttack {
        SpoofingAttack::new(DroneId(2), SpoofDirection::Right, 10.0, 5.0, 10.0).unwrap()
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
        assert_eq!(a.offset_for(DroneId(0), 12.0, axis), Vec3::ZERO);
        assert_eq!(a.offset_for(DroneId(2), 2.0, axis), Vec3::ZERO);
        let o = a.offset_for(DroneId(2), 12.0, axis);
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
    }

    #[test]
    fn display_mentions_target_and_window() {
        let s = attack().to_string();
        assert!(s.contains("drone2"));
        assert!(s.contains("right"));
    }

    #[test]
    fn trait_constant_matches_legacy_offset_exactly() {
        let legacy = attack();
        let zoo = ConstantOffset::new(DroneId(2), SpoofDirection::Right, 10.0, 5.0, 10.0).unwrap();
        let axis = Vec2::new(0.97, 0.24);
        for t in [0.0, 9.999, 10.0, 12.5, 14.999, 15.0, 30.0] {
            for d in 0..4 {
                let via_trait = zoo.offset_at(t, DroneId(d), axis).unwrap_or(Vec3::ZERO);
                let via_legacy = legacy.offset_for(DroneId(d), t, axis);
                assert_eq!(via_trait.x.to_bits(), via_legacy.x.to_bits());
                assert_eq!(via_trait.y.to_bits(), via_legacy.y.to_bits());
                assert_eq!(via_trait.z.to_bits(), via_legacy.z.to_bits());
            }
        }
    }

    #[test]
    fn legacy_attack_implements_the_trait_identically() {
        let a = attack();
        let axis = Vec2::X;
        let model: &dyn AttackModel = &a;
        assert_eq!(model.target(), DroneId(2));
        assert_eq!(model.start(), 10.0);
        assert_eq!(
            model.offset_at(12.0, DroneId(2), axis),
            Some(a.offset_for(DroneId(2), 12.0, axis))
        );
        assert_eq!(model.offset_at(2.0, DroneId(2), axis), None);
        assert_eq!(model.offset_at(12.0, DroneId(0), axis), None);
    }

    #[test]
    fn ramp_drift_scales_linearly_then_holds() {
        let a = RampDrift::new(DroneId(0), SpoofDirection::Left, 10.0, 8.0, 6.0, 4.0).unwrap();
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
        let err = RampDrift::new(DroneId(0), SpoofDirection::Left, 0.0, 5.0, 6.0, 5.1)
            .expect_err("ramp longer than the window is infeasible");
        let SimError::InvalidAttack(msg) = err else { panic!("wrong error kind") };
        assert_eq!(msg, "ramp-in time 5.1 exceeds the attack window duration 5");
    }

    #[test]
    fn circular_at_omega_zero_is_bitwise_constant() {
        let axis = Vec2::new(0.8, 0.6);
        let circ = Circular::new(DroneId(1), SpoofDirection::Right, 5.0, 20.0, 10.0, 0.0).unwrap();
        let cons = ConstantOffset::new(DroneId(1), SpoofDirection::Right, 5.0, 20.0, 10.0).unwrap();
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
        let a = Circular::new(DroneId(0), SpoofDirection::Left, 0.0, 100.0, 7.0, 0.9).unwrap();
        for t in [0.0, 1.3, 5.5, 40.0, 99.0] {
            let o = a.offset_at(t, DroneId(0), Vec2::new(1.0, 0.4)).unwrap();
            assert!((o.norm() - 7.0).abs() < 1e-9, "radius preserved at t={t}");
        }
    }

    #[test]
    fn jump_toggles_every_period() {
        let a = Jump::new(DroneId(0), SpoofDirection::Left, 10.0, 10.0, 5.0, 2.0).unwrap();
        let axis = Vec2::X;
        assert!(a.offset_at(10.0, DroneId(0), axis).is_some(), "first half-cycle on");
        assert!(a.offset_at(11.9, DroneId(0), axis).is_some());
        assert_eq!(a.offset_at(12.0, DroneId(0), axis), None, "second half-cycle off");
        assert!(a.offset_at(14.5, DroneId(0), axis).is_some(), "third half-cycle on again");
        assert_eq!(a.offset_at(20.0, DroneId(0), axis), None, "window over");
    }

    #[test]
    fn zoo_constructors_reject_bad_shape_parameters() {
        let c = |omega| Circular::new(DroneId(0), SpoofDirection::Left, 0.0, 5.0, 5.0, omega);
        assert!(matches!(c(f64::NAN), Err(SimError::InvalidAttack(_))));
        assert!(matches!(c(-1.0), Err(SimError::InvalidAttack(_))));
        let j = |period| Jump::new(DroneId(0), SpoofDirection::Left, 0.0, 5.0, 5.0, period);
        assert!(matches!(j(0.0), Err(SimError::InvalidAttack(_))));
        assert!(matches!(j(f64::INFINITY), Err(SimError::InvalidAttack(_))));
        let r = |ramp| RampDrift::new(DroneId(0), SpoofDirection::Left, 0.0, 5.0, 5.0, ramp);
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
        assert_eq!(WaveformSet::all().len(), 4);
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
            let spec = AttackSpec::from_waveform(
                waveform,
                DroneId(1),
                SpoofDirection::Left,
                2.0,
                8.0,
                5.0,
            )
            .unwrap();
            assert_eq!(spec.waveform(), waveform);
            assert_eq!(spec.waveform().shape().is_some(), wants_shape);
            assert_eq!(AttackModel::target(&spec), DroneId(1));
            assert_eq!(AttackModel::start(&spec), 2.0);
            assert_eq!(spec.duration(), 8.0);
            assert_eq!(spec.deviation(), 5.0);
        }
    }

    #[test]
    fn attack_spec_display_names_the_class() {
        let spec = AttackSpec::from_waveform(
            Waveform::Circular { omega: 1.25 },
            DroneId(3),
            SpoofDirection::Right,
            1.0,
            4.0,
            10.0,
        )
        .unwrap();
        let s = spec.to_string();
        assert!(s.contains("circular"), "{s}");
        assert!(s.contains("drone3"), "{s}");
        assert!(s.contains("omega 1.25"), "{s}");
    }
}
