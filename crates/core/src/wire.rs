//! Line-delimited wire protocol for [`crate::server::CampaignServer`].
//!
//! Every message is one JSON line built with the store codec helpers
//! (fixed field order, shortest-round-trip floats), so equal messages are
//! equal bytes — the same byte-stability discipline the journal codec
//! follows. Result rows are streamed as raw [`crate::store::encode_row`]
//! lines; a client that feeds them through
//! [`crate::campaign::report_from_rows`] reconstructs a report
//! bit-identical to the server's own (and to a direct `run_campaign` of
//! the same spec).
//!
//! Requests (client → server), one per line:
//!
//! ```text
//! {"msg":"submit","tenant":"team-a","weight":2,"spec":{...campaign spec...}}
//! {"msg":"status","job":3}
//! {"msg":"results","job":3,"wait":true}
//! {"msg":"watch"}
//! ```
//!
//! Replies (server → client): `accepted`, `status`, a `results` header
//! followed by raw journal-row lines and an `end` marker, or a typed
//! `error` line carrying the [`ServerError::code`]. `watch` turns the
//! connection into a one-way stream of the server's progress events.
//!
//! Transport is any `BufRead`/`Write` pair; [`serve`] binds the protocol
//! to TCP with one thread per connection, and tests drive
//! [`serve_connection`] over in-memory buffers.
//!
//! Framing: every message — a request, a reply, a watched event, and the
//! whole `results` reply (header, rows and `end` marker) — leaves in one
//! `write` call, and both ends of a TCP connection set `TCP_NODELAY`
//! (`split_tcp`). A message split over several small writes on a Nagle
//! socket waits for the peer's delayed ACK before its tail is sent: tens of
//! milliseconds per reply on loopback, whatever the server does.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use crate::campaign::{report_from_rows, CampaignReport};
use crate::server::{CampaignServer, CampaignSpec, JobPhase, JobStatus, ServerError};
use crate::store::{decode_row, encode_row, field, parse_json, push_json_string, JournalRow, Json};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit a campaign for `tenant`. Unknown tenants are registered on
    /// first contact with `weight` (default 1); the weight of an already
    /// registered tenant is never changed by a submit.
    Submit {
        /// Submitting tenant id.
        tenant: String,
        /// Fair-share weight used only if the tenant is new.
        weight: u64,
        /// The campaign to run.
        spec: CampaignSpec,
    },
    /// Fetch a job's status snapshot.
    Status {
        /// Job id from an `accepted` reply.
        job: u64,
    },
    /// Stream a finished job's rows. With `wait`, block until the job
    /// finishes instead of failing with `job-not-finished`.
    Results {
        /// Job id from an `accepted` reply.
        job: u64,
        /// Block until the job completes.
        wait: bool,
    },
    /// Subscribe to the server's progress events (one-way stream).
    Watch,
}

impl ClientMsg {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ClientMsg::Submit { tenant, weight, spec } => {
                let mut out = String::from("{\"msg\":\"submit\",\"tenant\":");
                push_json_string(&mut out, tenant);
                out.push_str(&format!(",\"weight\":{weight},\"spec\":"));
                out.push_str(&spec.encode());
                out.push('}');
                out
            }
            ClientMsg::Status { job } => format!("{{\"msg\":\"status\",\"job\":{job}}}"),
            ClientMsg::Results { job, wait } => {
                format!("{{\"msg\":\"results\",\"job\":{job},\"wait\":{wait}}}")
            }
            ClientMsg::Watch => "{\"msg\":\"watch\"}".to_string(),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed field.
    pub fn decode(line: &str) -> Result<ClientMsg, String> {
        let j = parse_json(line)?;
        match field(&j, "msg", Json::str)? {
            "submit" => Ok(ClientMsg::Submit {
                tenant: field(&j, "tenant", Json::str)?.to_string(),
                weight: j.get("weight").and_then(Json::u64).unwrap_or(1),
                spec: CampaignSpec::from_json(field(&j, "spec", Some)?)?,
            }),
            "status" => Ok(ClientMsg::Status { job: field(&j, "job", Json::u64)? }),
            "results" => Ok(ClientMsg::Results {
                job: field(&j, "job", Json::u64)?,
                wait: j.get("wait").and_then(Json::boolean).unwrap_or(false),
            }),
            "watch" => Ok(ClientMsg::Watch),
            other => Err(format!("unknown message {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

fn encode_error(e: &ServerError) -> String {
    let mut out = String::from("{\"msg\":\"error\",\"code\":");
    push_json_string(&mut out, e.code());
    out.push_str(",\"error\":");
    push_json_string(&mut out, &e.to_string());
    out.push('}');
    out
}

fn encode_accepted(job: u64, status: &JobStatus) -> String {
    let mut out = format!(
        "{{\"msg\":\"accepted\",\"job\":{job},\"total\":{},\"done\":{},\"fingerprint\":",
        status.total, status.done
    );
    push_json_string(&mut out, &status.fingerprint);
    out.push('}');
    out
}

fn encode_status(status: &JobStatus) -> String {
    let mut out = format!("{{\"msg\":\"status\",\"job\":{},\"tenant\":", status.job);
    push_json_string(&mut out, &status.tenant);
    out.push_str(",\"phase\":");
    push_json_string(&mut out, status.phase.name());
    out.push_str(&format!(",\"done\":{},\"total\":{},\"fingerprint\":", status.done, status.total));
    push_json_string(&mut out, &status.fingerprint);
    if let Some(ordinal) = status.completed_ordinal {
        out.push_str(&format!(",\"ordinal\":{ordinal}"));
    }
    if let Some(error) = &status.error {
        out.push_str(",\"error\":");
        push_json_string(&mut out, error);
    }
    out.push('}');
    out
}

fn decode_accepted(j: &Json) -> Result<Accepted, String> {
    Ok(Accepted {
        job: field(j, "job", Json::u64)?,
        fingerprint: field(j, "fingerprint", Json::str)?.to_string(),
        total: field(j, "total", Json::usize)?,
        done: field(j, "done", Json::usize)?,
    })
}

fn decode_status(j: &Json) -> Result<JobStatus, String> {
    let phase_name = field(j, "phase", Json::str)?;
    Ok(JobStatus {
        job: field(j, "job", Json::u64)?,
        tenant: field(j, "tenant", Json::str)?.to_string(),
        phase: JobPhase::parse(phase_name).ok_or_else(|| format!("bad phase {phase_name:?}"))?,
        done: field(j, "done", Json::usize)?,
        total: field(j, "total", Json::usize)?,
        fingerprint: field(j, "fingerprint", Json::str)?.to_string(),
        completed_ordinal: j.get("ordinal").and_then(Json::u64),
        error: j.get("error").and_then(Json::str).map(str::to_string),
    })
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Hands `line` and its newline to `writer` as one buffer, so the message
/// leaves in a single `write`.
fn write_line(writer: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// The `results` reply to `job`: header, one [`encode_row`] line per row
/// and the `end` marker, as one newline-terminated block.
fn encode_results(job: u64, rows: &[JournalRow]) -> String {
    let mut out = format!("{{\"msg\":\"results\",\"job\":{job},\"rows\":{}}}\n", rows.len());
    for row in rows {
        // encode_row is already newline-terminated.
        out.push_str(&encode_row(row));
    }
    out.push_str(&format!("{{\"msg\":\"end\",\"job\":{job}}}"));
    out
}

/// Sets `TCP_NODELAY` on a connected stream and splits it into a buffered
/// read half and a write half: the one place either end of the protocol
/// decides its socket options.
fn split_tcp(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Serves one connection: reads request lines from `reader`, writes reply
/// lines to `writer`, returns at EOF. Malformed requests produce a typed
/// `error` line (code `wire`) and the connection stays open; a `watch`
/// request turns the connection into a one-way event stream until the
/// client disconnects or the server shuts down.
///
/// # Errors
///
/// Only transport-level I/O errors; protocol errors are replied, not
/// returned.
pub fn serve_connection(
    server: &CampaignServer,
    reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let msg = match ClientMsg::decode(&line) {
            Ok(msg) => msg,
            Err(e) => {
                write_line(&mut writer, encode_error(&ServerError::Wire(e)))?;
                continue;
            }
        };
        match msg {
            ClientMsg::Submit { tenant, weight, spec } => {
                // Register before submitting: a known tenant keeps its weight,
                // and concurrent first contacts cannot refuse one another.
                let submitted = match server.register_tenant(&tenant, weight) {
                    Ok(()) | Err(ServerError::DuplicateTenant(_)) => server.submit(&tenant, &spec),
                    Err(e) => Err(e),
                };
                match submitted {
                    Ok(job) => match server.status(job) {
                        Ok(status) => write_line(&mut writer, encode_accepted(job, &status))?,
                        Err(e) => write_line(&mut writer, encode_error(&e))?,
                    },
                    Err(e) => write_line(&mut writer, encode_error(&e))?,
                }
            }
            ClientMsg::Status { job } => match server.status(job) {
                Ok(status) => write_line(&mut writer, encode_status(&status))?,
                Err(e) => write_line(&mut writer, encode_error(&e))?,
            },
            ClientMsg::Results { job, wait } => {
                let rows = if wait {
                    server.wait(job).and_then(|_| server.rows(job))
                } else {
                    server.rows(job)
                };
                match rows {
                    Ok(rows) => write_line(&mut writer, encode_results(job, &rows))?,
                    Err(e) => write_line(&mut writer, encode_error(&e))?,
                }
            }
            ClientMsg::Watch => {
                let events = server.subscribe();
                write_line(&mut writer, "{\"msg\":\"watching\"}".to_string())?;
                // Stream until the subscriber is dropped (server shutdown)
                // or the client hangs up (write error ends the connection).
                for event in events.iter() {
                    write_line(&mut writer, event)?;
                }
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Accepts connections on `listener` and serves each on its own thread
/// until the server shuts down. Returns the acceptor's join handle; note
/// the acceptor only notices shutdown on its next accepted connection (the
/// CLI closes the process instead of joining).
pub fn serve(server: CampaignServer, listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if server.is_shutdown() {
                return;
            }
            let Ok(stream) = stream else { continue };
            let server = server.clone();
            std::thread::spawn(move || {
                if let Ok((reader, writer)) = split_tcp(stream) {
                    let _ = serve_connection(&server, reader, writer);
                }
            });
        }
    })
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A client-side wire failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Transport I/O failed (rendered).
    Io(String),
    /// The peer sent a line this client cannot interpret.
    Protocol(String),
    /// The server replied with a typed error line.
    Server {
        /// The [`ServerError::code`] of the failure.
        code: String,
        /// The rendered server-side error.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Protocol(e) => write!(f, "wire protocol error: {e}"),
            WireError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// An accepted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Accepted {
    /// The job id to poll.
    pub job: u64,
    /// The campaign fingerprint the server computed.
    pub fingerprint: String,
    /// Total missions in the campaign grid.
    pub total: usize,
    /// Rows already present from resumed shard journals.
    pub done: usize,
}

/// A blocking wire client over any `BufRead`/`Write` transport pair
/// (`TcpStream` via [`Client::over_tcp`]; tests use in-memory buffers).
pub struct Client<R, W> {
    reader: R,
    writer: W,
}

impl Client<BufReader<TcpStream>, TcpStream> {
    /// Wraps a connected TCP stream (setting `TCP_NODELAY`).
    ///
    /// # Errors
    ///
    /// When the socket option cannot be set or the stream cannot be cloned
    /// into a read half.
    pub fn over_tcp(stream: TcpStream) -> io::Result<Self> {
        let (reader, writer) = split_tcp(stream)?;
        Ok(Client { reader, writer })
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client over an arbitrary transport pair.
    pub fn new(reader: R, writer: W) -> Self {
        Client { reader, writer }
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), WireError> {
        write_line(&mut self.writer, msg.encode())?;
        Ok(())
    }

    fn read_reply(&mut self) -> Result<Json, WireError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(WireError::Protocol("connection closed".into()));
        }
        let j = parse_json(line.trim_end()).map_err(WireError::Protocol)?;
        if j.get("msg").and_then(Json::str) == Some("error") {
            return Err(WireError::Server {
                code: j.get("code").and_then(Json::str).unwrap_or("unknown").to_string(),
                message: j.get("error").and_then(Json::str).unwrap_or_default().to_string(),
            });
        }
        Ok(j)
    }

    /// Submits a campaign; unknown tenants are registered with `weight`.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] with code `queue-full` under back-pressure,
    /// plus transport/protocol failures.
    pub fn submit(
        &mut self,
        tenant: &str,
        weight: u64,
        spec: &CampaignSpec,
    ) -> Result<Accepted, WireError> {
        self.send(&ClientMsg::Submit { tenant: tenant.to_string(), weight, spec: spec.clone() })?;
        let j = self.read_reply()?;
        if j.get("msg").and_then(Json::str) != Some("accepted") {
            return Err(WireError::Protocol("expected accepted reply".into()));
        }
        decode_accepted(&j).map_err(WireError::Protocol)
    }

    /// Fetches a job's status snapshot.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] (e.g. `unknown-job`) or transport failures.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, WireError> {
        self.send(&ClientMsg::Status { job })?;
        let j = self.read_reply()?;
        decode_status(&j).map_err(WireError::Protocol)
    }

    /// Streams a finished job's rows and returns them in server order.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] (`job-not-finished` without `wait`,
    /// `job-failed`, `unknown-job`) or transport failures.
    pub fn results_rows(&mut self, job: u64, wait: bool) -> Result<Vec<JournalRow>, WireError> {
        self.send(&ClientMsg::Results { job, wait })?;
        let header = self.read_reply()?;
        if header.get("msg").and_then(Json::str) != Some("results") {
            return Err(WireError::Protocol("expected results header".into()));
        }
        let count = field(&header, "rows", Json::usize).map_err(WireError::Protocol)?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(WireError::Protocol("row stream truncated".into()));
            }
            rows.push(decode_row(line.trim_end()).map_err(WireError::Protocol)?);
        }
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let end = parse_json(line.trim_end()).map_err(WireError::Protocol)?;
        if end.get("msg").and_then(Json::str) != Some("end") {
            return Err(WireError::Protocol("missing end marker".into()));
        }
        Ok(rows)
    }

    /// [`Client::results_rows`] assembled into a report — bit-identical to
    /// the server's own [`CampaignServer::wait`] result and to a direct
    /// `run_campaign` of the same spec ([`report_from_rows`] is
    /// order-independent).
    ///
    /// # Errors
    ///
    /// As [`Client::results_rows`].
    pub fn results(&mut self, job: u64, wait: bool) -> Result<CampaignReport, WireError> {
        Ok(report_from_rows(self.results_rows(job, wait)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::server::FuzzerVariant;
    use swarm_sim::spoof::WaveformSet;

    fn spec() -> CampaignSpec {
        CampaignSpec::new(CampaignConfig::paper_grid(2, 7))
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Submit { tenant: "team-a".into(), weight: 3, spec: spec() },
            ClientMsg::Status { job: 5 },
            ClientMsg::Results { job: 5, wait: true },
            ClientMsg::Watch,
        ];
        for msg in msgs {
            let line = msg.encode();
            assert_eq!(ClientMsg::decode(&line).expect("round trip"), msg);
            assert_eq!(ClientMsg::decode(&line).expect("stable").encode(), line);
        }
    }

    #[test]
    fn submit_weight_defaults_to_one() {
        let line =
            "{\"msg\":\"submit\",\"tenant\":\"t\",\"spec\":".to_string() + &spec().encode() + "}";
        match ClientMsg::decode(&line).expect("decodes") {
            ClientMsg::Submit { weight, .. } => assert_eq!(weight, 1),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn spec_variants_survive_the_submit_envelope() {
        let mut s = spec();
        s.variant = FuzzerVariant::GFuzz;
        s.attacks = WaveformSet::all();
        s.eval_budget = Some(9);
        let msg = ClientMsg::Submit { tenant: "t".into(), weight: 1, spec: s.clone() };
        match ClientMsg::decode(&msg.encode()).expect("decodes") {
            ClientMsg::Submit { spec, .. } => assert_eq!(spec, s),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn error_lines_carry_typed_codes() {
        let e = ServerError::QueueFull { tenant: "t".into(), queued: 4, depth: 4 };
        let line = encode_error(&e);
        let j = parse_json(&line).expect("valid json");
        assert_eq!(j.get("code").and_then(Json::str), Some("queue-full"));
        assert!(j.get("error").and_then(Json::str).expect("message").contains("4/4"));
    }

    #[test]
    fn status_reply_round_trips() {
        let status = JobStatus {
            job: 9,
            tenant: "team-b".into(),
            phase: JobPhase::Done,
            done: 12,
            total: 12,
            fingerprint: "abc".into(),
            completed_ordinal: Some(3),
            error: None,
        };
        let decoded = decode_status(&parse_json(&encode_status(&status)).expect("valid json"))
            .expect("decodes");
        assert_eq!(decoded, status);
    }

    #[test]
    fn tcp_halves_set_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        for stream in [client, accepted] {
            let (reader, writer) = split_tcp(stream).expect("split");
            assert!(writer.nodelay().expect("write half"));
            assert!(reader.get_ref().nodelay().expect("read half"));
        }
    }

    #[test]
    fn decode_rejects_malformed_lines_and_names_missing_fields() {
        // That a rejected line keeps the connection alive is checked against
        // a live server in tests/executor_equivalence.rs.
        assert!(ClientMsg::decode("not json").is_err());
        assert!(ClientMsg::decode("{\"msg\":\"nope\"}").is_err());
        let spec = CampaignSpec::new(CampaignConfig::paper_grid(1, 0));
        let submit = ClientMsg::Submit { tenant: "t".into(), weight: 1, spec }.encode();
        let line = submit.replace("\"tenant\":\"t\",", "");
        assert_ne!(line, submit);
        let err = ClientMsg::decode(&line).unwrap_err();
        assert!(err.contains("\"tenant\""), "a missing field must be named: {err}");
    }
}
