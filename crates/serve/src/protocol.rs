//! The wire protocol: framing rules, error codes, and response shapes.
//!
//! Transport is **line-delimited JSON**: each request is one JSON object
//! on one line (`\n`-terminated), answered by exactly one JSON object on
//! one line, in order, over a plain TCP or Unix-domain stream. A session
//! is a sequence of request/response pairs on one connection; `nc` is a
//! full-featured client. The complete verb-by-verb schema lives in
//! `docs/SERVE_PROTOCOL.md`.
//!
//! Every response carries `"ok"`: `true` with verb-specific fields, or
//! `false` with an `"error": {"code", "message"}` object. Error codes are
//! the stable machine-readable surface ([`ErrorCode`]); messages are for
//! humans and may change.
//!
//! Requests longer than [`MAX_REQUEST_BYTES`] are answered with a
//! `payload_too_large` error and the connection is closed (an oversized
//! line cannot be resynchronized safely). Malformed JSON or a
//! non-object request gets `bad_request` and the connection stays open.
//!
//! Both ends send each frame with a single write ([`write_frame`]) and
//! set `TCP_NODELAY` on TCP streams: a frame split over two writes would
//! otherwise make Nagle's algorithm hold the second segment until the
//! peer's delayed ACK, adding tens of milliseconds to every round trip
//! on a persistent connection.

use crate::json::Json;
use std::io::{BufRead, Read, Write};

/// Upper bound on one request line, newline included. Every defined verb
/// fits in well under a kilobyte; the megabyte of headroom is for long
/// filesystem paths, not bulk data (matrices travel by path, not by
/// value).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Machine-readable error categories. The `code` string in an error
/// response is `as_str` of one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object, or a field was missing/mistyped.
    BadRequest,
    /// The `op` value names no known verb.
    UnknownOp,
    /// The named dataset is not resident.
    UnknownDataset,
    /// `load` under a name that is already resident.
    AlreadyLoaded,
    /// The request line exceeded [`MAX_REQUEST_BYTES`].
    PayloadTooLarge,
    /// Dataset ingest failed (I/O error, malformed matrix, not square).
    LoadFailed,
    /// The kernel rejected the request (e.g. MCA with a complemented
    /// mask) or the execution itself failed.
    ExecFailed,
    /// The admission queue is full; the error object carries a
    /// `retry_after_ms` backoff hint. Retry later — nothing about the
    /// request itself was wrong.
    Busy,
    /// The request's `deadline_ms` budget expired before the work
    /// produced a result; partial work was abandoned.
    DeadlineExceeded,
    /// The server is shutting down and accepts no further work.
    ShuttingDown,
    /// The named dataset is quarantined after repeated kernel panics;
    /// an operator clears it with `unload` + `load`.
    Quarantined,
    /// The named dataset was evicted by the memory budget; `load` it
    /// again to use it.
    Evicted,
    /// The dataset cannot fit the `--max-resident-bytes` budget even
    /// after evicting everything evictable.
    OverBudget,
    /// An `update` op addressed a row/column outside the matrix shape;
    /// the whole batch was rejected, nothing was applied.
    OutOfBounds,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::AlreadyLoaded => "already_loaded",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::LoadFailed => "load_failed",
            ErrorCode::ExecFailed => "exec_failed",
            ErrorCode::Busy => "busy",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Evicted => "evicted",
            ErrorCode::OverBudget => "over_budget",
            ErrorCode::OutOfBounds => "out_of_bounds",
        }
    }
}

/// A successful response: `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// An error response: `{"ok":false,"error":{"code","message"}}`.
pub fn err_response(code: ErrorCode, message: impl Into<String>) -> Json {
    err_response_with(code, message, vec![])
}

/// [`err_response`] with extra machine-readable fields inside the error
/// object — e.g. `busy` responses carry `retry_after_ms` there, next to
/// the code a client already switches on.
pub fn err_response_with(
    code: ErrorCode,
    message: impl Into<String>,
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut err = vec![
        ("code", Json::str(code.as_str())),
        ("message", Json::Str(message.into())),
    ];
    err.extend(extra);
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::obj(err))])
}

/// What one framed read produced.
#[derive(Debug, PartialEq)]
pub enum Frame {
    /// One complete line (without the trailing newline).
    Line(String),
    /// The peer closed the connection at a line boundary.
    Eof,
    /// The line exceeded `cap` bytes; the connection must be closed.
    Oversized,
}

/// Read one `\n`-terminated line of at most `cap` bytes. Invalid UTF-8 is
/// surfaced as an I/O error (the JSON layer would reject it anyway, with
/// a worse message). A final unterminated line at EOF is accepted —
/// `printf '{"op":"list"}' | nc` works without the trailing newline.
pub fn read_frame(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    // `take` bounds the worst case: a peer streaming an endless line can
    // make us buffer at most cap+1 bytes, not the whole stream.
    let n = reader.take(cap as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > cap {
        return Ok(Frame::Oversized);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Frame::Line(line)),
        Err(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line is not valid UTF-8",
        )),
    }
}

/// Send one frame: `line` plus its `\n` terminator in a single
/// `write_all`, then flush.
pub fn write_frame(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// Required string field of a request object, with `bad_request`-shaped
/// error text when absent.
pub fn req_str<'a>(req: &'a Json, field: &str) -> Result<&'a str, String> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("'{field}' must be a string"))
}

/// Optional string field; `Err` when present with the wrong type.
pub fn opt_str<'a>(req: &'a Json, field: &str) -> Result<Option<&'a str>, String> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("'{field}' must be a string")),
    }
}

/// Optional boolean field with a default; `Err` when present with the
/// wrong type.
pub fn opt_bool(req: &Json, field: &str, default: bool) -> Result<bool, String> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("'{field}' must be a boolean")),
    }
}

/// Optional non-negative integer field with a default.
pub fn opt_u64(req: &Json, field: &str, default: u64) -> Result<u64, String> {
    match req.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("'{field}' must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_split_on_newlines() {
        let mut r = BufReader::new(&b"{\"op\":\"list\"}\r\nsecond\n"[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("{\"op\":\"list\"}".into())
        );
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("second".into())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn unterminated_final_line_is_accepted() {
        let mut r = BufReader::new(&b"{\"op\":\"ping\"}"[..]);
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("{\"op\":\"ping\"}".into())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_lines_are_flagged_not_buffered() {
        let big = vec![b'x'; 1000];
        let mut r = BufReader::new(&big[..]);
        assert_eq!(read_frame(&mut r, 100).unwrap(), Frame::Oversized);
        // Exactly at the cap, terminated: fine.
        let mut exact = vec![b'y'; 100];
        exact.push(b'\n');
        let mut r = BufReader::new(&exact[..]);
        assert!(matches!(read_frame(&mut r, 100).unwrap(), Frame::Line(_)));
    }

    #[test]
    fn response_shapes() {
        let ok = ok_response(vec![("pong", Json::Bool(true))]);
        assert_eq!(ok.to_line(), r#"{"ok":true,"pong":true}"#);
        let err = err_response(ErrorCode::UnknownOp, "no verb 'frobnicate'");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            err.get("error").unwrap().get("code").unwrap().as_str(),
            Some("unknown_op")
        );
        let busy = err_response_with(
            ErrorCode::Busy,
            "queue full",
            vec![("retry_after_ms", 40u64.into())],
        );
        let e = busy.get("error").unwrap();
        assert_eq!(e.get("code").unwrap().as_str(), Some("busy"));
        assert_eq!(e.get("retry_after_ms").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn field_extractors_type_check() {
        let req = crate::json::parse(r#"{"op":"mxm","dataset":"k","reps":3,"bad":[1]}"#).unwrap();
        assert_eq!(req_str(&req, "dataset").unwrap(), "k");
        assert!(req_str(&req, "missing").is_err());
        assert_eq!(opt_str(&req, "missing").unwrap(), None);
        assert!(opt_str(&req, "reps").is_err());
        assert_eq!(opt_u64(&req, "reps", 1).unwrap(), 3);
        assert_eq!(opt_u64(&req, "missing", 7).unwrap(), 7);
        assert!(opt_u64(&req, "bad", 0).is_err());
    }
}
