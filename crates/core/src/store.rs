//! Crash-safe campaign persistence: an append-only JSONL journal of
//! per-mission results plus the atomic-write helper shared by every file
//! export.
//!
//! Long campaigns (the paper's §V-B grid is 600 missions per variant) must
//! survive being killed: results stream to a journal as workers finish them,
//! and a resumed campaign skips every already-journaled `(config, index)`
//! job. The journal starts with a header line carrying a **fingerprint** —
//! a hash of the [`CampaignConfig`] grid and the per-configuration
//! [`FuzzerConfig`]s — so a journal can never be replayed against a
//! different campaign (worker count and retry limits are execution details
//! and deliberately excluded).
//!
//! Determinism discipline: every `f64` is rendered with Rust's
//! shortest-round-trip formatting and parsed back with `str::parse`, so a
//! journaled [`MissionResult`] reloads **bit-identical** — a resumed
//! campaign report equals the uninterrupted one byte for byte (covered by
//! `tests/campaign_store.rs`).
//!
//! Crash tolerance: rows are appended one `write_all` at a time, so a kill
//! can leave at most one truncated final line; the loader drops such a tail
//! and [`CampaignJournal::resume`] compacts the file (atomic
//! write-temp-then-rename) before appending continues. A malformed line
//! anywhere *else* is real corruption and surfaces as
//! [`StoreError::Corrupt`].

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use swarm_math::rng::derive_seed;
use swarm_sim::spoof::{SpoofDirection, Waveform, WaveformSet};
use swarm_sim::DroneId;

use crate::campaign::{CampaignConfig, MissionFailure, MissionResult, SwarmConfig};
use crate::fuzzer::{FuzzerConfig, SearchStrategy, SeedStrategy, SpvFinding};
use crate::seed::Seed;
use crate::svg::CentralityKind;

/// Journal-layer errors. I/O failures are captured as strings so the type
/// stays `Clone + PartialEq` like every other error in the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The journal belongs to a different campaign/fuzzer combination.
    FingerprintMismatch {
        /// Fingerprint of the campaign being run.
        expected: String,
        /// Fingerprint found in the journal header.
        found: String,
    },
    /// A journal line (other than a truncated tail) failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "journal I/O error at {path}: {message}"),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint {found} does not match this campaign ({expected}); \
                 refusing to resume against a different grid or fuzzer variant"
            ),
            StoreError::Corrupt { line, message } => {
                write!(f, "journal corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// file in the same directory (created if needed), are synced, and the file
/// is renamed over the target. A crash mid-export leaves either the old
/// file or the new one — never a truncated mix.
///
/// # Errors
///
/// Propagates I/O errors from any step.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let file_name = path.file_name().map_or_else(|| "out".into(), |n| n.to_string_lossy());
    let tmp = parent.join(format!(".{}.tmp-{}", file_name, std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

fn mix_str(mut h: u64, s: &str) -> u64 {
    h = derive_seed(h, s.len() as u64);
    for b in s.as_bytes() {
        h = derive_seed(h, u64::from(*b));
    }
    h
}

fn centrality_code(k: CentralityKind) -> u64 {
    match k {
        CentralityKind::PageRank => 0,
        CentralityKind::Degree => 1,
        CentralityKind::Eigenvector => 2,
        CentralityKind::Closeness => 3,
        CentralityKind::Betweenness => 4,
    }
}

/// Hashes a campaign's identity: the configuration grid, mission count and
/// base seed of `campaign`, plus every per-configuration [`FuzzerConfig`]
/// (strategies, centrality, budgets, window parameters, RNG seed). Worker
/// count is excluded — it changes scheduling, never results.
pub fn campaign_fingerprint(campaign: &CampaignConfig, fuzzers: &[FuzzerConfig]) -> String {
    let mut h = derive_seed(0x5357_4652_u64, JOURNAL_VERSION);
    h = derive_seed(h, campaign.base_seed);
    h = derive_seed(h, campaign.missions_per_config as u64);
    h = derive_seed(h, campaign.configs.len() as u64);
    for c in &campaign.configs {
        h = derive_seed(h, c.swarm_size as u64);
        h = derive_seed(h, c.deviation.to_bits());
    }
    for f in fuzzers {
        h = mix_str(h, f.variant_name());
        h = derive_seed(h, matches!(f.seed_strategy, SeedStrategy::Random) as u64);
        h = derive_seed(h, matches!(f.search_strategy, SearchStrategy::Random) as u64);
        h = derive_seed(h, centrality_code(f.centrality));
        h = derive_seed(h, f.deviation.to_bits());
        h = derive_seed(h, f.eval_budget as u64);
        h = derive_seed(h, f.lead_time.to_bits());
        h = derive_seed(h, f.initial_duration.to_bits());
        h = derive_seed(h, f.max_duration.to_bits());
        h = derive_seed(h, f.rng_seed);
        // Mixed only when non-default so every pre-zoo journal keeps its
        // fingerprint: a constant-only campaign is the same campaign it was
        // before attack classes existed.
        if f.waveforms != WaveformSet::default() {
            h = mix_str(h, "waveforms");
            for kind in f.waveforms.iter() {
                h = mix_str(h, kind.name());
            }
        }
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------------
// Journal rows
// ---------------------------------------------------------------------------

/// One journaled campaign event: a finished mission or a quarantined
/// failure. Both carry the job's `(config, index)` identity so resume can
/// skip them.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRow {
    /// A mission that fuzzed to completion.
    Done {
        /// Mission index within its configuration.
        index: usize,
        /// The full result, exactly as the campaign report carries it.
        result: MissionResult,
    },
    /// A mission that exhausted its retries.
    Failed(MissionFailure),
}

impl JournalRow {
    /// The job identity `(swarm_size, deviation bits, index)` used for
    /// resume deduplication.
    pub fn job_key(&self) -> (usize, u64, usize) {
        match self {
            JournalRow::Done { index, result } => {
                (result.config.swarm_size, result.config.deviation.to_bits(), *index)
            }
            JournalRow::Failed(f) => (f.config.swarm_size, f.config.deviation.to_bits(), f.index),
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so 64-bit integers
/// (mission seeds) never round through `f64`. Shared with the trace codec
/// (`crate::trace`), which is why the type is crate-visible.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key).filter(|v| !matches!(v, Json::Null)),
            _ => None,
        }
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn boolean(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub(crate) fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser { bytes: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            // Non-finite floats are journaled as bare `inf`/`-inf`/`NaN`
            // tokens (Rust's Display output), which `str::parse::<f64>`
            // reads back; strict JSON never produces them.
            Some(b'N') if self.eat_literal("NaN") => Ok(Json::Num("NaN".into())),
            Some(b'i') if self.eat_literal("inf") => Ok(Json::Num("inf".into())),
            Some(_) => self.parse_number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid \\u{hex} escape"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (journals are valid UTF-8:
                    // they are read via `read_to_string`).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            if self.eat_literal("inf") {
                return Ok(Json::Num("-inf".into()));
            }
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a value at byte {start}"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("malformed number {raw:?}"));
        }
        Ok(Json::Num(raw.to_string()))
    }
}

pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes after value at byte {}", p.pos));
    }
    Ok(v)
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

/// Journal schema version; bumped on incompatible format changes (also
/// mixed into the fingerprint).
pub const JOURNAL_VERSION: u64 = 1;

const JOURNAL_MAGIC: &str = "swarmfuzz-campaign";

fn encode_header(fingerprint: &str, variant: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"journal\":");
    push_json_string(&mut out, JOURNAL_MAGIC);
    out.push_str(&format!(",\"version\":{JOURNAL_VERSION},\"fingerprint\":"));
    push_json_string(&mut out, fingerprint);
    out.push_str(",\"variant\":");
    push_json_string(&mut out, variant);
    out.push_str("}\n");
    out
}

fn direction_name(d: SpoofDirection) -> &'static str {
    match d {
        SpoofDirection::Left => "left",
        SpoofDirection::Right => "right",
    }
}

pub(crate) fn push_field_f64(out: &mut String, key: &str, x: f64) {
    // Rust's shortest-round-trip formatting: parses back bit-identical.
    out.push_str(&format!(",\"{key}\":{x}"));
}

/// Renders one row as a single JSONL line (newline included).
pub fn encode_row(row: &JournalRow) -> String {
    let mut out = String::new();
    match row {
        JournalRow::Done { index, result } => {
            out.push_str(&format!(
                "{{\"row\":\"done\",\"swarm_size\":{},\"index\":{index}",
                result.config.swarm_size
            ));
            push_field_f64(&mut out, "deviation", result.config.deviation);
            out.push_str(&format!(",\"mission_seed\":{}", result.mission_seed));
            push_field_f64(&mut out, "vdo", result.vdo);
            out.push_str(&format!(
                ",\"success\":{},\"evaluations\":{},\"seeds_tried\":{}",
                result.success, result.evaluations, result.seeds_tried
            ));
            match &result.finding {
                None => out.push_str(",\"finding\":null"),
                Some(f) => {
                    out.push_str(&format!(
                        ",\"finding\":{{\"target\":{},\"victim\":{},\"direction\":\"{}\"",
                        f.seed.target.0,
                        f.seed.victim.0,
                        direction_name(f.seed.direction)
                    ));
                    push_field_f64(&mut out, "influence", f.seed.influence);
                    push_field_f64(&mut out, "victim_vdo", f.seed.victim_vdo);
                    push_field_f64(&mut out, "start", f.start);
                    push_field_f64(&mut out, "duration", f.duration);
                    push_field_f64(&mut out, "spoof_deviation", f.deviation);
                    // Only non-constant waveforms emit their class: journals
                    // written by constant-only campaigns stay byte-identical
                    // to the pre-zoo format.
                    match f.waveform {
                        Waveform::Constant => {}
                        Waveform::Drift { ramp } => {
                            out.push_str(",\"waveform\":\"drift\"");
                            push_field_f64(&mut out, "ramp", ramp);
                        }
                        Waveform::Circular { omega } => {
                            out.push_str(",\"waveform\":\"circular\"");
                            push_field_f64(&mut out, "omega", omega);
                        }
                        Waveform::Jump { period } => {
                            out.push_str(",\"waveform\":\"jump\"");
                            push_field_f64(&mut out, "period", period);
                        }
                    }
                    out.push_str(&format!(",\"actual_victim\":{}", f.actual_victim.0));
                    push_field_f64(&mut out, "collision_time", f.collision_time);
                    out.push('}');
                }
            }
            out.push_str("}\n");
        }
        JournalRow::Failed(f) => {
            out.push_str(&format!(
                "{{\"row\":\"failed\",\"swarm_size\":{},\"index\":{}",
                f.config.swarm_size, f.index
            ));
            push_field_f64(&mut out, "deviation", f.config.deviation);
            out.push_str(&format!(",\"retries\":{},\"error\":", f.retries));
            push_json_string(&mut out, &f.error);
            out.push_str("}\n");
        }
    }
    out
}

/// Reads `obj[key]` through `get` (`Json::f64`, `Json::str`, ...), naming
/// the key when it is missing or of the wrong kind.
pub(crate) fn field<'j, T>(
    obj: &'j Json,
    key: &str,
    get: impl Fn(&'j Json) -> Option<T>,
) -> Result<T, String> {
    obj.get(key).and_then(get).ok_or_else(|| format!("missing or invalid field {key:?}"))
}

fn decode_finding(j: &Json) -> Result<SpvFinding, String> {
    let direction = match field(j, "direction", Json::str)? {
        "left" => SpoofDirection::Left,
        "right" => SpoofDirection::Right,
        other => return Err(format!("unknown direction {other:?}")),
    };
    // Legacy rows carry no waveform field: they are constant-offset.
    let waveform = match j.get("waveform").map(|w| w.str().ok_or("waveform must be a string")) {
        None => Waveform::Constant,
        Some(Err(e)) => return Err(e.to_string()),
        Some(Ok("constant")) => Waveform::Constant,
        Some(Ok("drift")) => Waveform::Drift { ramp: field(j, "ramp", Json::f64)? },
        Some(Ok("circular")) => Waveform::Circular { omega: field(j, "omega", Json::f64)? },
        Some(Ok("jump")) => Waveform::Jump { period: field(j, "period", Json::f64)? },
        Some(Ok(other)) => return Err(format!("unknown waveform {other:?}")),
    };
    Ok(SpvFinding {
        seed: Seed {
            target: DroneId(field(j, "target", Json::usize)?),
            victim: DroneId(field(j, "victim", Json::usize)?),
            direction,
            influence: field(j, "influence", Json::f64)?,
            victim_vdo: field(j, "victim_vdo", Json::f64)?,
            waveform: waveform.kind(),
        },
        start: field(j, "start", Json::f64)?,
        duration: field(j, "duration", Json::f64)?,
        deviation: field(j, "spoof_deviation", Json::f64)?,
        actual_victim: DroneId(field(j, "actual_victim", Json::usize)?),
        collision_time: field(j, "collision_time", Json::f64)?,
        waveform,
    })
}

/// Parses one JSONL line back into a row.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn decode_row(line: &str) -> Result<JournalRow, String> {
    let j = parse_json(line)?;
    let config = SwarmConfig {
        swarm_size: field(&j, "swarm_size", Json::usize)?,
        deviation: field(&j, "deviation", Json::f64)?,
    };
    let index = field(&j, "index", Json::usize)?;
    match field(&j, "row", Json::str)? {
        "done" => Ok(JournalRow::Done {
            index,
            result: MissionResult {
                config,
                mission_seed: field(&j, "mission_seed", Json::u64)?,
                vdo: field(&j, "vdo", Json::f64)?,
                success: field(&j, "success", Json::boolean)?,
                finding: j.get("finding").map(decode_finding).transpose()?,
                evaluations: field(&j, "evaluations", Json::usize)?,
                seeds_tried: field(&j, "seeds_tried", Json::usize)?,
            },
        }),
        "failed" => Ok(JournalRow::Failed(MissionFailure {
            config,
            index,
            error: field(&j, "error", Json::str)?.to_string(),
            retries: field(&j, "retries", Json::usize)?,
        })),
        other => Err(format!("unknown row kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// Everything read back from a journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// Campaign fingerprint from the header.
    pub fingerprint: String,
    /// Fuzzer variant name from the header (informational).
    pub variant: String,
    /// Every intact row, in file order.
    pub rows: Vec<JournalRow>,
}

/// An open append-only campaign journal.
#[derive(Debug)]
pub struct CampaignJournal {
    file: std::fs::File,
    path: PathBuf,
}

impl CampaignJournal {
    /// Creates (or truncates) a journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`StoreError::Io`].
    pub fn create(path: &Path, fingerprint: &str, variant: &str) -> Result<Self, StoreError> {
        atomic_write(path, &encode_header(fingerprint, variant)).map_err(|e| io_err(path, &e))?;
        let file =
            std::fs::OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, &e))?;
        Ok(CampaignJournal { file, path: path.to_path_buf() })
    }

    /// Reads a journal without opening it for appending. A truncated final
    /// line (the signature of a crash mid-append) is dropped silently.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when the header or any non-final line is malformed.
    pub fn read(path: &Path) -> Result<JournalContents, StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let lines: Vec<&str> = text.lines().collect();
        let header_line = lines
            .first()
            .ok_or(StoreError::Corrupt { line: 1, message: "empty journal".into() })?;
        let header =
            parse_json(header_line).map_err(|message| StoreError::Corrupt { line: 1, message })?;
        if header.get("journal").and_then(Json::str) != Some(JOURNAL_MAGIC) {
            return Err(StoreError::Corrupt { line: 1, message: "not a campaign journal".into() });
        }
        if header.get("version").and_then(Json::u64) != Some(JOURNAL_VERSION) {
            return Err(StoreError::Corrupt {
                line: 1,
                message: "unsupported journal version".into(),
            });
        }
        let fingerprint = header
            .get("fingerprint")
            .and_then(Json::str)
            .ok_or(StoreError::Corrupt { line: 1, message: "header missing fingerprint".into() })?
            .to_string();
        let variant = header.get("variant").and_then(Json::str).unwrap_or_default().to_string();

        let mut rows = Vec::new();
        let last = lines.len().saturating_sub(1);
        for (i, line) in lines.iter().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            match decode_row(line) {
                Ok(row) => rows.push(row),
                // A kill mid-append leaves exactly one truncated tail line;
                // drop it and let the resumed campaign redo that mission.
                Err(_) if i == last => break,
                Err(message) => return Err(StoreError::Corrupt { line: i + 1, message }),
            }
        }
        Ok(JournalContents { fingerprint, variant, rows })
    }

    /// Opens an existing journal for resumption: validates the fingerprint,
    /// compacts the file (dropping any truncated tail atomically) and
    /// returns the intact rows alongside the reopened journal.
    ///
    /// # Errors
    ///
    /// [`StoreError::FingerprintMismatch`] when the journal belongs to a
    /// different campaign; otherwise as [`CampaignJournal::read`].
    pub fn resume(
        path: &Path,
        expected_fingerprint: &str,
    ) -> Result<(Self, Vec<JournalRow>), StoreError> {
        let contents = Self::read(path)?;
        if contents.fingerprint != expected_fingerprint {
            return Err(StoreError::FingerprintMismatch {
                expected: expected_fingerprint.to_string(),
                found: contents.fingerprint,
            });
        }
        let mut compacted = encode_header(&contents.fingerprint, &contents.variant);
        for row in &contents.rows {
            compacted.push_str(&encode_row(row));
        }
        atomic_write(path, &compacted).map_err(|e| io_err(path, &e))?;
        let file =
            std::fs::OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, &e))?;
        Ok((CampaignJournal { file, path: path.to_path_buf() }, contents.rows))
    }

    /// Appends one row (a single `write_all`, so a kill can only truncate
    /// the final line).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`StoreError::Io`].
    pub fn append(&mut self, row: &JournalRow) -> Result<(), StoreError> {
        self.file.write_all(encode_row(row).as_bytes()).map_err(|e| io_err(&self.path, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_sim::spoof::WaveformKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swarmfuzz-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result(seed: u64, vdo: f64, with_finding: bool) -> MissionResult {
        MissionResult {
            config: SwarmConfig { swarm_size: 5, deviation: 10.0 },
            mission_seed: seed,
            vdo,
            success: with_finding,
            finding: with_finding.then_some(SpvFinding {
                seed: Seed {
                    target: DroneId(3),
                    victim: DroneId(1),
                    direction: SpoofDirection::Left,
                    influence: 0.1 + 0.2, // deliberately non-representable exactly
                    victim_vdo: 1e-300,
                    waveform: WaveformKind::Constant,
                },
                start: 12.625,
                duration: 7.3,
                deviation: 10.0,
                actual_victim: DroneId(2),
                collision_time: 39.900000000000006,
                waveform: Waveform::Constant,
            }),
            evaluations: 17,
            seeds_tried: 3,
        }
    }

    #[test]
    fn rows_round_trip_bit_identical() {
        for row in [
            JournalRow::Done { index: 0, result: sample_result(u64::MAX, -0.0, true) },
            JournalRow::Done { index: 7, result: sample_result(0, 2.5, false) },
            JournalRow::Done { index: 3, result: sample_result(1 << 63, f64::INFINITY, false) },
            JournalRow::Failed(MissionFailure {
                config: SwarmConfig { swarm_size: 1, deviation: 5.0 },
                index: 9,
                error: "weird \"label\", with\nnewline and \u{7} bell".into(),
                retries: 2,
            }),
        ] {
            let line = encode_row(&row);
            assert!(line.ends_with('\n'));
            let back = decode_row(line.trim_end()).expect("row must decode");
            assert_eq!(row, back);
            // Bit-identity for the floats, beyond PartialEq.
            if let (JournalRow::Done { result: a, .. }, JournalRow::Done { result: b, .. }) =
                (&row, &back)
            {
                assert_eq!(a.vdo.to_bits(), b.vdo.to_bits());
            }
        }
    }

    #[test]
    fn waveform_rows_round_trip_bit_identical() {
        for waveform in [
            Waveform::Drift { ramp: 3.5 },
            Waveform::Circular { omega: 0.25 },
            Waveform::Jump { period: 1.75 },
            Waveform::Circular { omega: -0.0 },
            Waveform::Jump { period: 5e-324 },
        ] {
            let mut result = sample_result(9, 1.5, true);
            let finding = result.finding.as_mut().unwrap();
            finding.waveform = waveform;
            finding.seed.waveform = waveform.kind();
            let row = JournalRow::Done { index: 1, result };
            let line = encode_row(&row);
            let back = decode_row(line.trim_end()).expect("waveform row must decode");
            assert_eq!(row, back);
            if let (JournalRow::Done { result: a, .. }, JournalRow::Done { result: b, .. }) =
                (&row, &back)
            {
                let (fa, fb) = (a.finding.unwrap(), b.finding.unwrap());
                assert_eq!(
                    fa.waveform.shape().map(f64::to_bits),
                    fb.waveform.shape().map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn constant_rows_encode_without_waveform_fields() {
        // Byte-compatibility with pre-zoo journals: the paper's attack must
        // serialize exactly as it always did, so old journals resume and new
        // constant-only journals stay readable by old builds.
        let row = JournalRow::Done { index: 4, result: sample_result(11, 2.0, true) };
        let line = encode_row(&row);
        assert!(!line.contains("waveform"), "constant findings must not name their class: {line}");
    }

    #[test]
    fn unknown_waveform_is_a_decode_error() {
        let row = JournalRow::Done { index: 0, result: sample_result(1, 1.0, true) };
        let line = encode_row(&row);
        let corrupted = line
            .trim_end()
            .replace(",\"actual_victim\"", ",\"waveform\":\"teleport\",\"actual_victim\"");
        let err = decode_row(&corrupted).unwrap_err();
        assert!(err.contains("unknown waveform \"teleport\""), "got: {err}");
    }

    #[test]
    fn fingerprint_ignores_the_default_waveform_set() {
        // Pre-zoo journals hashed no waveform information; a constant-only
        // config must keep producing the identical fingerprint.
        let campaign = CampaignConfig::paper_grid(10, 7);
        let fuzzers: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
        let base = campaign_fingerprint(&campaign, &fuzzers);

        let explicit: Vec<FuzzerConfig> =
            fuzzers.iter().map(|f| f.with_waveforms(WaveformSet::CONSTANT_ONLY)).collect();
        assert_eq!(base, campaign_fingerprint(&campaign, &explicit));

        let zoo: Vec<FuzzerConfig> =
            fuzzers.iter().map(|f| f.with_waveforms(WaveformSet::all())).collect();
        assert_ne!(base, campaign_fingerprint(&campaign, &zoo), "the class set is identity");
    }

    #[test]
    fn fingerprint_keys_on_campaign_identity_not_workers() {
        let mut campaign = CampaignConfig::paper_grid(10, 7);
        let fuzzers: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::swarmfuzz(c.deviation)).collect();
        let base = campaign_fingerprint(&campaign, &fuzzers);

        campaign.workers = 16;
        assert_eq!(base, campaign_fingerprint(&campaign, &fuzzers), "workers are execution detail");

        let mut other = campaign.clone();
        other.base_seed = 8;
        assert_ne!(base, campaign_fingerprint(&other, &fuzzers));

        let mut other = campaign.clone();
        other.missions_per_config = 11;
        assert_ne!(base, campaign_fingerprint(&other, &fuzzers));

        let r_fuzz: Vec<FuzzerConfig> =
            campaign.configs.iter().map(|c| FuzzerConfig::r_fuzz(c.deviation)).collect();
        assert_ne!(base, campaign_fingerprint(&campaign, &r_fuzz), "variant must be hashed");
    }

    #[test]
    fn journal_create_append_read() {
        let dir = temp_dir("basic");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "abcd", "SwarmFuzz").unwrap();
        let row = JournalRow::Done { index: 2, result: sample_result(42, 3.25, true) };
        j.append(&row).unwrap();
        drop(j);

        let contents = CampaignJournal::read(&path).unwrap();
        assert_eq!(contents.fingerprint, "abcd");
        assert_eq!(contents.variant, "SwarmFuzz");
        assert_eq!(contents.rows, vec![row]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_compacted_on_resume() {
        let dir = temp_dir("truncate");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "fp", "SwarmFuzz").unwrap();
        let keep = JournalRow::Done { index: 0, result: sample_result(1, 1.5, false) };
        j.append(&keep).unwrap();
        drop(j);
        // Simulate a kill mid-append: half a row at EOF.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"row\":\"done\",\"swarm_si");
        std::fs::write(&path, &text).unwrap();

        let (mut j, rows) = CampaignJournal::resume(&path, "fp").unwrap();
        assert_eq!(rows, vec![keep.clone()]);
        // The compaction removed the garbage; appending continues cleanly.
        let next = JournalRow::Done { index: 1, result: sample_result(2, 2.5, false) };
        j.append(&next).unwrap();
        drop(j);
        assert_eq!(CampaignJournal::read(&path).unwrap().rows, vec![keep, next]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let dir = temp_dir("corrupt");
        let path = dir.join("j.jsonl");
        let mut j = CampaignJournal::create(&path, "fp", "SwarmFuzz").unwrap();
        j.append(&JournalRow::Done { index: 0, result: sample_result(1, 1.5, false) }).unwrap();
        j.append(&JournalRow::Done { index: 1, result: sample_result(2, 2.5, false) }).unwrap();
        drop(j);
        // Garble the middle row (not the tail).
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"row\":\"done\",\"nonsense\":true}";
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(CampaignJournal::read(&path), Err(StoreError::Corrupt { line: 2, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let dir = temp_dir("foreign");
        let path = dir.join("j.jsonl");
        CampaignJournal::create(&path, "aaaa", "SwarmFuzz").unwrap();
        let err = CampaignJournal::resume(&path, "bbbb").unwrap_err();
        assert_eq!(
            err,
            StoreError::FingerprintMismatch { expected: "bbbb".into(), found: "aaaa".into() }
        );
        assert!(err.to_string().contains("refusing to resume"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = temp_dir("atomic");
        let path = dir.join("nested").join("out.csv");
        atomic_write(&path, "first\n").unwrap();
        atomic_write(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_parser_handles_escapes_and_numbers() {
        let j = parse_json(
            "{\"s\":\"a\\\"b\\\\c\\n\\u0041\",\"n\":-1.5e-3,\"u\":18446744073709551615,\
             \"t\":true,\"x\":null,\"inf\":inf,\"ninf\":-inf,\"nan\":NaN}",
        )
        .unwrap();
        assert_eq!(j.get("s").and_then(Json::str), Some("a\"b\\c\nA"));
        assert_eq!(j.get("n").and_then(Json::f64), Some(-1.5e-3));
        assert_eq!(j.get("u").and_then(Json::u64), Some(u64::MAX));
        assert_eq!(j.get("t").and_then(Json::boolean), Some(true));
        assert!(j.get("x").is_none(), "null reads as absent");
        assert_eq!(j.get("inf").and_then(Json::f64), Some(f64::INFINITY));
        assert_eq!(j.get("ninf").and_then(Json::f64), Some(f64::NEG_INFINITY));
        assert!(j.get("nan").and_then(Json::f64).unwrap().is_nan());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
    }
}
