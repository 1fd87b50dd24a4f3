//! The NDJSON wire protocol: one JSON object per line, both directions.
//!
//! A request names a registered experiment case and its parameters; the
//! response wraps the case's deterministic `result` payload in an
//! envelope carrying delivery metadata (status, cache/coalescing
//! flags). The *envelope* flags depend on arrival order and are
//! explicitly non-deterministic; the `result` payload is byte-identical
//! for identical request keys — across connections, worker counts and
//! server instances.
//!
//! Requests are keyed by content: [`Request::key`] hashes the case
//! name, the quick flag and the *canonicalised* parameter tree
//! (object keys sorted recursively), so `{"a":1,"b":2}` and
//! `{"b":2,"a":1}` coalesce onto one computation.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use m3d_bench::cases::MAX_SOURCE_BYTES;
use m3d_core::obs::TraceContext;
use m3d_core::ErrorCode;
use m3d_tech::{StableHash, StableHasher};
use serde::Value;

/// Reserved case name: drain and stop the server.
pub const CASE_SHUTDOWN: &str = "shutdown";
/// Reserved case name: liveness probe.
pub const CASE_PING: &str = "ping";
/// Reserved case name: cache/queue/worker statistics snapshot.
pub const CASE_STATS: &str = "stats";
/// Reserved case name: full recorder snapshot (counters, latency and
/// queue-depth histograms, span-ring totals), merged with the
/// process-global engine recorder.
pub const CASE_METRICS: &str = "metrics";
/// Reserved case name: the same merged recorder data rendered as
/// Prometheus text exposition format (`{"text": "..."}` result).
pub const CASE_METRICS_TEXT: &str = "metrics_text";
/// Reserved case name: the registered experiment cases with their
/// parameter schemas (registry order, deterministic).
pub const CASE_CASES: &str = "cases";
/// Reserved case name: liveness probe — answers as long as the process
/// can read a line and write one back, even while draining.
pub const CASE_HEALTH: &str = "health";
/// Reserved case name: readiness probe — `ready:false` once a drain
/// has begun (the fleet router stops routing to a non-ready replica).
/// Carries the current queue depth so the prober doubles as a
/// queue-depth gauge source.
pub const CASE_READY: &str = "ready";
/// Reserved case name (gateway only): stop routing to one replica and
/// let its in-flight work finish. Params: `{"replica": K}`.
pub const CASE_DRAIN: &str = "drain";
/// Reserved case name (gateway only): return a drained replica to the
/// routing ring. Params: `{"replica": K}`.
pub const CASE_UNDRAIN: &str = "undrain";
/// Reserved case name: the trace flight recorder — recent stitched
/// traces and slow-request exemplars. On the gateway this is the
/// fleet-wide end-to-end view; on a single server, its local request
/// trees. Optional params filter it: `{"case": name, "trace_id": hex,
/// "min_wall_us": N}`.
pub const CASE_TRACES: &str = "traces";

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Case name: a `m3d_bench::registry` entry or a reserved admin
    /// case ([`CASE_SHUTDOWN`], [`CASE_PING`], [`CASE_STATS`]).
    pub case: String,
    /// Scaled-down configuration (the registry's `--quick` analogue).
    pub quick: bool,
    /// Case parameters; `Value::Null` when omitted.
    pub params: Value,
    /// Per-request deadline override in milliseconds (server default
    /// applies when omitted).
    pub timeout_ms: Option<u64>,
    /// Fleet routing override: force the gateway to forward this
    /// request to replica index `K` instead of consistent-hash
    /// routing. A delivery field like `id`/`timeout_ms`: it does not
    /// participate in the content key, and a plain `m3d-serve` ignores
    /// it — the payload it answers with is byte-identical whichever
    /// replica computes it, which is what the cross-replica identity
    /// check exploits.
    pub replica: Option<u64>,
    /// Opt-in tracing: when set, the response envelope carries the
    /// stitched span tree of this request. A delivery field — never
    /// part of the content key.
    pub trace: bool,
    /// Inbound distributed-trace context (the gateway sets it on
    /// forwarded requests so the replica's spans parent under the
    /// gateway's root span). A delivery field.
    pub trace_ctx: Option<TraceContext>,
}

impl Request {
    /// A request for `case` with `params`, quick by default.
    pub fn new(id: u64, case: &str, params: Value) -> Self {
        Self {
            id,
            case: case.to_owned(),
            quick: true,
            params,
            timeout_ms: None,
            replica: None,
            trace: false,
            trace_ctx: None,
        }
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the line is not a JSON
    /// object, `case` is missing/mistyped, or a present field has the
    /// wrong type.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str_value(line).map_err(|e| format!("malformed JSON: {e}"))?;
        if v.as_object().is_none() {
            return Err("request must be a JSON object".to_owned());
        }
        let case = match v.get("case") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            Some(_) => return Err("`case` must be a non-empty string".to_owned()),
            None => return Err("missing required field `case`".to_owned()),
        };
        let id = match v.get("id") {
            None => 0,
            Some(x) => x.as_u64().ok_or("`id` must be a non-negative integer")?,
        };
        let quick = match v.get("quick") {
            None => true,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("`quick` must be a boolean".to_owned()),
        };
        let params = v.get("params").cloned().unwrap_or(Value::Null);
        match &params {
            Value::Null | Value::Object(_) => {}
            _ => return Err("`params` must be an object".to_owned()),
        }
        let timeout_ms = match v.get("timeout_ms") {
            None => None,
            Some(x) => Some(
                x.as_u64()
                    .ok_or("`timeout_ms` must be a non-negative integer")?,
            ),
        };
        let replica = match v.get("replica") {
            None => None,
            Some(x) => Some(
                x.as_u64()
                    .ok_or("`replica` must be a non-negative integer")?,
            ),
        };
        let trace = match v.get("trace") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("`trace` must be a boolean".to_owned()),
        };
        let trace_ctx = match v.get("trace_ctx") {
            None => None,
            Some(x) => Some(
                TraceContext::from_value(x)
                    .ok_or("`trace_ctx` must be {trace_id: 32 hex, parent_span: 16 hex}")?,
            ),
        };
        Ok(Self {
            id,
            case,
            quick,
            params,
            timeout_ms,
            replica,
            trace,
            trace_ctx,
        })
    }

    /// The content key identical requests share: case + quick +
    /// canonicalised params. Field order and the `id`/`timeout_ms`
    /// delivery fields do not participate.
    pub fn key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.case.stable_hash(&mut h);
        self.quick.stable_hash(&mut h);
        hash_value(&canonical(&self.params), &mut h);
        h.finish()
    }

    /// Serialises the request as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("id".to_owned(), Value::U64(self.id)),
            ("case".to_owned(), Value::Str(self.case.clone())),
            ("quick".to_owned(), Value::Bool(self.quick)),
        ];
        if self.params != Value::Null {
            fields.push(("params".to_owned(), self.params.clone()));
        }
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".to_owned(), Value::U64(t)));
        }
        if let Some(r) = self.replica {
            fields.push(("replica".to_owned(), Value::U64(r)));
        }
        if self.trace {
            fields.push(("trace".to_owned(), Value::Bool(true)));
        }
        if let Some(ctx) = &self.trace_ctx {
            fields.push(("trace_ctx".to_owned(), ctx.to_value()));
        }
        serde_json::to_string(&Value::Object(fields)).expect("request serialises")
    }
}

/// A response line: either a completed case or a protocol error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The case ran (or was replayed from cache).
    Ok {
        /// Echo of the request id.
        id: u64,
        /// Echo of the case name.
        case: String,
        /// The request content key, as 16 lowercase hex digits.
        key: String,
        /// Served from the response cache (no execution).
        cached: bool,
        /// Joined another request's in-flight execution.
        coalesced: bool,
        /// The deterministic case payload.
        result: Value,
        /// Stitched trace document `{trace_id, root}` — present only
        /// when the request opted in with `trace: true`, so untraced
        /// responses keep their pre-tracing byte layout.
        trace: Option<Value>,
    },
    /// The request was not served.
    Err {
        /// Echo of the request id (0 when the line did not parse).
        id: u64,
        /// Typed failure category; the wire carries both its stable
        /// name (`code`) and its HTTP-flavoured numeric `status`.
        code: ErrorCode,
        /// Human-readable cause.
        error: String,
        /// Backpressure hint: retry after this many milliseconds
        /// (overload only).
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// Status code (200 for [`Response::Ok`]).
    pub fn status(&self) -> u16 {
        match self {
            Response::Ok { .. } => 200,
            Response::Err { code, .. } => code.status(),
        }
    }

    /// The typed error code, when this is an error reply.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Ok { .. } => None,
            Response::Err { code, .. } => Some(*code),
        }
    }

    /// Serialises the response as one NDJSON line (no trailing
    /// newline). Field order is fixed, so identical responses are
    /// byte-identical.
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Ok {
                id,
                case,
                key,
                cached,
                coalesced,
                result,
                trace,
            } => {
                let mut fields = vec![
                    ("id".to_owned(), Value::U64(*id)),
                    ("status".to_owned(), Value::U64(200)),
                    ("case".to_owned(), Value::Str(case.clone())),
                    ("key".to_owned(), Value::Str(key.clone())),
                    ("cached".to_owned(), Value::Bool(*cached)),
                    ("coalesced".to_owned(), Value::Bool(*coalesced)),
                    ("result".to_owned(), result.clone()),
                ];
                if let Some(t) = trace {
                    fields.push(("trace".to_owned(), t.clone()));
                }
                Value::Object(fields)
            }
            Response::Err {
                id,
                code,
                error,
                retry_after_ms,
            } => {
                let mut fields = vec![
                    ("id".to_owned(), Value::U64(*id)),
                    ("status".to_owned(), Value::U64(u64::from(code.status()))),
                    ("code".to_owned(), Value::Str(code.wire_name().to_owned())),
                    ("error".to_owned(), Value::Str(error.clone())),
                ];
                if let Some(ms) = retry_after_ms {
                    fields.push(("retry_after_ms".to_owned(), Value::U64(*ms)));
                }
                Value::Object(fields)
            }
        };
        serde_json::to_string(&v).expect("response serialises")
    }

    /// Parses one NDJSON response line (the loadgen side).
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a valid response object.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str_value(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
        let status = v
            .get("status")
            .and_then(Value::as_u64)
            .ok_or("missing `status`")?;
        if status == 200 {
            let case = match v.get("case") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("missing `case` in OK response".to_owned()),
            };
            let key = match v.get("key") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("missing `key` in OK response".to_owned()),
            };
            let flag = |name: &str| match v.get(name) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing `{name}` in OK response")),
            };
            Ok(Response::Ok {
                id,
                case,
                key,
                cached: flag("cached")?,
                coalesced: flag("coalesced")?,
                result: v.get("result").cloned().ok_or("missing `result`")?,
                trace: v.get("trace").cloned(),
            })
        } else {
            let error = match v.get("error") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("missing `error` in error response".to_owned()),
            };
            // Prefer the stable name; fall back to the numeric status
            // for replies from servers that predate the `code` field.
            let status = u16::try_from(status).map_err(|_| "status out of range")?;
            let code = match v.get("code") {
                Some(Value::Str(s)) => {
                    ErrorCode::from_wire(s).ok_or_else(|| format!("unknown error code `{s}`"))?
                }
                _ => ErrorCode::from_status(status)
                    .ok_or_else(|| format!("unmapped error status {status}"))?,
            };
            Ok(Response::Err {
                id,
                code,
                error,
                retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
            })
        }
    }
}

/// Longest request line a server reads, in bytes: the largest legal
/// `ingest` upload ([`MAX_SOURCE_BYTES`]) after JSON escaping (at most
/// 6 bytes per source byte, as `\u00XX`), plus 64 KiB for the rest of
/// the request envelope.
pub const MAX_LINE_BYTES: usize = 6 * MAX_SOURCE_BYTES + (64 << 10);

/// Reads the next newline-terminated line of at most `cap` bytes into
/// `buf` (cleared first, so a connection reuses one buffer) and returns
/// it without its `\n` / `\r\n` terminator; `None` at end of stream.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the line exceeds `cap` bytes or
/// is not UTF-8 (the rest of the stream cannot be framed), and any I/O
/// error of `reader`.
pub(crate) fn read_line_capped<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    cap: usize,
) -> io::Result<Option<&'b str>> {
    buf.clear();
    let limit = u64::try_from(cap).map_or(u64::MAX, |c| c.saturating_add(1));
    if io::Read::take(&mut *reader, limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds {cap} bytes"),
        ));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Serves one client connection of `m3d-serve` or `m3d-gateway`: reads
/// request lines of at most [`MAX_LINE_BYTES`], skips blank ones, and
/// writes one reply line per request — `answer`'s for a parsed request,
/// `bad-request` for a malformed one. A line that cannot be framed
/// (oversized or not UTF-8) is answered `bad-request` and ends the
/// connection.
///
/// # Errors
///
/// Propagates I/O errors of the connection.
pub(crate) fn serve_connection(
    stream: TcpStream,
    mut answer: impl FnMut(Request) -> String,
) -> io::Result<()> {
    // Line-sized writes each wait on a delayed ACK under Nagle's
    // algorithm (~40 ms per request); this is a request/response
    // protocol, so send eagerly.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let bad_request = |error: String| {
        Response::Err {
            id: 0,
            code: ErrorCode::BadRequest,
            error,
            retry_after_ms: None,
        }
        .to_line()
    };
    let mut buf = Vec::new();
    loop {
        let (reply, last) = match read_line_capped(&mut reader, &mut buf, MAX_LINE_BYTES) {
            Ok(None) => return Ok(()),
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => (
                Request::parse(line).map_or_else(bad_request, &mut answer),
                false,
            ),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => (bad_request(e.to_string()), true),
            Err(e) => return Err(e),
        };
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if last {
            return Ok(());
        }
    }
}

/// Formats a content key the way responses carry it.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Recursively sorts object keys so structurally equal parameter trees
/// serialise (and hash) identically regardless of client field order.
pub fn canonical(v: &Value) -> Value {
    match v {
        Value::Object(fields) => {
            let mut sorted: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, x)| (k.clone(), canonical(x)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonical).collect()),
        other => other.clone(),
    }
}

/// Stable-hashes a canonical [`Value`] tree (tag + payload per node).
fn hash_value(v: &Value, h: &mut StableHasher) {
    match v {
        Value::Null => 0u8.stable_hash(h),
        Value::Bool(b) => {
            1u8.stable_hash(h);
            b.stable_hash(h);
        }
        Value::I64(i) => {
            2u8.stable_hash(h);
            i.stable_hash(h);
        }
        Value::U64(u) => {
            3u8.stable_hash(h);
            u.stable_hash(h);
        }
        Value::F64(f) => {
            4u8.stable_hash(h);
            f.stable_hash(h);
        }
        Value::Str(s) => {
            5u8.stable_hash(h);
            s.stable_hash(h);
        }
        Value::Array(items) => {
            6u8.stable_hash(h);
            items.len().stable_hash(h);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Object(fields) => {
            7u8.stable_hash(h);
            fields.len().stable_hash(h);
            for (k, x) in fields {
                k.stable_hash(h);
                hash_value(x, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    #[test]
    fn capped_reader_frames_lines_and_refuses_overlong_ones() {
        let mut buf = Vec::new();
        let mut lines = |mut input: &[u8]| {
            let mut out: Vec<String> = Vec::new();
            loop {
                match read_line_capped(&mut input, &mut buf, 4) {
                    Ok(Some(line)) => out.push(line.to_owned()),
                    Ok(None) => return Ok(out),
                    Err(e) => return Err((out, e.kind())),
                }
            }
        };
        // Terminators are stripped, exactly `cap` bytes fit, and a final
        // unterminated line still counts.
        assert_eq!(
            lines(b"ab\r\n\nabcd\ngh"),
            Ok(vec!["ab".into(), String::new(), "abcd".into(), "gh".into()])
        );
        // `cap + 1` bytes are refused, newline or not, as is non-UTF-8.
        let refused = |out: &[&str]| {
            Err((
                out.iter().map(|&s| s.to_owned()).collect(),
                io::ErrorKind::InvalidData,
            ))
        };
        assert_eq!(lines(b"ok\nabcde"), refused(&["ok"]));
        assert_eq!(lines(b"abcde\n"), refused(&[]));
        assert_eq!(lines(b"\xff\n"), refused(&[]));
    }

    #[test]
    fn request_round_trips_through_its_own_line() {
        let req = Request {
            id: 42,
            case: "pd_flow".into(),
            quick: false,
            params: obj(vec![("n_cs", Value::U64(8))]),
            timeout_ms: Some(2500),
            replica: Some(2),
            trace: true,
            trace_ctx: Some(TraceContext::root("pd_flow", 0xfeed, 42)),
        };
        assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn defaults_apply_to_a_minimal_request() {
        let req = Request::parse(r#"{"case":"ping"}"#).unwrap();
        assert_eq!(req.id, 0);
        assert!(req.quick);
        assert_eq!(req.params, Value::Null);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn bad_requests_name_the_field() {
        assert!(Request::parse("{}").unwrap_err().contains("case"));
        assert!(Request::parse(r#"{"case":3}"#)
            .unwrap_err()
            .contains("case"));
        assert!(Request::parse(r#"{"case":"x","params":[1]}"#)
            .unwrap_err()
            .contains("params"));
        assert!(Request::parse("not json").unwrap_err().contains("JSON"));
        assert!(Request::parse(r#"{"case":"x","trace":1}"#)
            .unwrap_err()
            .contains("trace"));
        assert!(
            Request::parse(r#"{"case":"x","trace_ctx":{"trace_id":"nope"}}"#)
                .unwrap_err()
                .contains("trace_ctx")
        );
    }

    #[test]
    fn key_ignores_field_order_and_delivery_fields() {
        let a = Request::parse(r#"{"id":1,"case":"x","params":{"a":1,"b":2}}"#).unwrap();
        let b =
            Request::parse(r#"{"id":9,"timeout_ms":5,"case":"x","params":{"b":2,"a":1}}"#).unwrap();
        assert_eq!(a.key(), b.key());
        let forced =
            Request::parse(r#"{"id":1,"case":"x","replica":2,"params":{"a":1,"b":2}}"#).unwrap();
        assert_eq!(forced.replica, Some(2));
        assert_eq!(
            a.key(),
            forced.key(),
            "the routing override is a delivery field, not content"
        );
        let mut traced = a.clone();
        traced.trace = true;
        traced.trace_ctx = Some(TraceContext::root("x", a.key(), 1));
        assert_eq!(
            a.key(),
            traced.key(),
            "trace identity is a delivery field, not content"
        );
        let c = Request::parse(r#"{"case":"x","params":{"a":1,"b":3}}"#).unwrap();
        assert_ne!(a.key(), c.key());
        let d = Request::parse(r#"{"case":"x","quick":false,"params":{"a":1,"b":2}}"#).unwrap();
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn canonicalisation_recurses_into_arrays() {
        let v = serde_json::from_str_value(r#"{"z":[{"b":1,"a":2}],"a":0}"#).unwrap();
        let w = serde_json::from_str_value(r#"{"a":0,"z":[{"a":2,"b":1}]}"#).unwrap();
        assert_eq!(canonical(&v), canonical(&w));
    }

    #[test]
    fn responses_round_trip_both_arms() {
        let ok = Response::Ok {
            id: 7,
            case: "tier_sweep".into(),
            key: key_hex(0xdead_beef),
            cached: true,
            coalesced: false,
            result: obj(vec![("points", Value::Array(vec![]))]),
            trace: None,
        };
        assert_eq!(Response::parse(&ok.to_line()).unwrap(), ok);
        assert!(
            !ok.to_line().contains("trace"),
            "untraced responses keep the pre-tracing byte layout"
        );
        let traced = Response::Ok {
            id: 7,
            case: "tier_sweep".into(),
            key: key_hex(0xdead_beef),
            cached: false,
            coalesced: false,
            result: Value::Null,
            trace: Some(obj(vec![("trace_id", Value::Str("00".repeat(16)))])),
        };
        assert_eq!(Response::parse(&traced.to_line()).unwrap(), traced);
        let err = Response::Err {
            id: 8,
            code: ErrorCode::Overloaded,
            error: "queue full".into(),
            retry_after_ms: Some(50),
        };
        assert_eq!(Response::parse(&err.to_line()).unwrap(), err);
        assert_eq!(err.status(), 429);
        assert_eq!(err.error_code(), Some(ErrorCode::Overloaded));
        assert!(err.to_line().contains(r#""code":"overloaded""#));
    }

    #[test]
    fn error_replies_without_a_code_field_fall_back_to_status() {
        let legacy = r#"{"id":3,"status":408,"error":"deadline exceeded"}"#;
        let parsed = Response::parse(legacy).unwrap();
        assert_eq!(parsed.error_code(), Some(ErrorCode::Deadline));
        // An unmapped numeric status is a parse error, not a panic.
        assert!(Response::parse(r#"{"id":3,"status":418,"error":"?"}"#).is_err());
    }
}
