//! The length-prefixed binary request protocol.
//!
//! Every frame is a little-endian `u32` body length followed by the
//! body. A request body is
//!
//! ```text
//! u8  op            1 = compress, 2 = decompress, 3 = stats
//! u8  tenant_len
//! u8  use_case_len
//! [tenant_len bytes]   UTF-8 tenant id
//! [use_case_len bytes] UTF-8 use case
//! u32 payload_len
//! [payload_len bytes]
//! ```
//!
//! and a response body is `u8 status`, `u32 payload_len`, payload.
//!
//! Hostile declared sizes are the protocol's allocation surface, so the
//! body length is routed through [`DecodeLimits`] — exactly like the
//! codecs' content-size headers — *before* any buffer is sized from it,
//! and the interior `payload_len` must account for the remaining body
//! bytes exactly. A frame failing either check yields a typed
//! [`WireError`], never a panic and never an unbounded allocation.

use std::io::{BufRead, Read, Write};

use codecs::DecodeLimits;

/// Fixed bytes of a request body before the variable-length fields.
const REQ_FIXED: usize = 1 + 1 + 1 + 4;
/// Fixed bytes of a response body before the payload.
const RESP_FIXED: usize = 1 + 4;

/// Request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compress the payload under the tenant's use case.
    Compress,
    /// Decompress a frame previously returned by [`Op::Compress`].
    Decompress,
    /// Return the tenant's per-use-case counters as JSON.
    Stats,
}

impl Op {
    fn to_wire(self) -> u8 {
        match self {
            Op::Compress => 1,
            Op::Decompress => 2,
            Op::Stats => 3,
        }
    }

    fn from_wire(b: u8) -> Option<Op> {
        match b {
            1 => Some(Op::Compress),
            2 => Some(Op::Decompress),
            3 => Some(Op::Stats),
            _ => None,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Tenant id: selects the per-tenant managed-compression shard.
    pub tenant: String,
    /// Use case within the tenant (dictionary lifecycle scope).
    pub use_case: String,
    /// Operation payload (bytes to compress, frame to decompress,
    /// empty for stats).
    pub payload: Vec<u8>,
}

/// Response status. Degradation outcomes are part of the protocol: a
/// shed or expired request is an answer, not a dropped connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; payload carries the result.
    Ok = 0,
    /// Admission control shed the request (brownout ladder exhausted).
    Shed = 1,
    /// The request's deadline expired between service stages.
    Deadline = 2,
    /// The request frame was malformed; payload carries the reason.
    BadFrame = 3,
    /// The operation failed (codec error, quarantine, unknown use
    /// case); payload carries the reason.
    Error = 4,
    /// A declared length exceeded the server's limits.
    TooLarge = 5,
}

impl Status {
    fn from_wire(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Shed),
            2 => Some(Status::Deadline),
            3 => Some(Status::BadFrame),
            4 => Some(Status::Error),
            5 => Some(Status::TooLarge),
            _ => None,
        }
    }

    /// Stable label used on the server's per-tenant metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Shed => "shed",
            Status::Deadline => "deadline",
            Status::BadFrame => "bad_frame",
            Status::Error => "error",
            Status::TooLarge => "too_large",
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Result bytes (frame, decompressed data, stats JSON, or a
    /// human-readable reason for non-`Ok` statuses).
    pub payload: Vec<u8>,
}

impl Response {
    /// An error response with a human-readable reason.
    pub fn err(status: Status, reason: impl Into<String>) -> Self {
        Response {
            status,
            payload: reason.into().into_bytes(),
        }
    }
}

/// Typed protocol failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed or hit EOF mid-frame.
    Io(std::io::Error),
    /// A declared length exceeded the configured limit. Raised before
    /// any allocation is sized from the hostile value.
    TooLarge {
        /// The declared size.
        declared: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The frame violated the protocol layout.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::TooLarge { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// `read_exact` after a frame's first byte. A read timeout here is not
/// the caller's idle tick: the bytes read so far are gone, so the next
/// read would start inside the frame. It fails as a framing error.
fn read_in_frame<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            WireError::Malformed("frame stalled past the read timeout")
        }
        _ => WireError::Io(e),
    })
}

/// Reads one request frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the client closed between requests).
///
/// # Errors
///
/// [`WireError::TooLarge`] when the body length fails `limits` (checked
/// before the body buffer is allocated), [`WireError::Malformed`] when
/// the body layout is inconsistent or a read times out after the
/// frame's first byte, [`WireError::Io`] on transport failure, on
/// mid-frame EOF, or on a timeout before the first byte.
pub fn read_request<R: BufRead>(
    r: &mut R,
    limits: &DecodeLimits,
) -> Result<Option<Request>, WireError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean close (no bytes) from a truncated prefix.
    match r.read(&mut len_bytes[..1])? {
        0 => return Ok(None),
        _ => read_in_frame(r, &mut len_bytes[1..])?,
    }
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    // The declared body length is attacker-controlled: bound it like a
    // codec content-size header before sizing anything from it.
    limits
        .check_output(body_len)
        .map_err(|_| WireError::TooLarge {
            declared: body_len,
            limit: limits.max_output,
        })?;
    if body_len < REQ_FIXED {
        return Err(WireError::Malformed("body shorter than fixed header"));
    }
    let mut body = vec![0u8; body_len];
    read_in_frame(r, &mut body)?;

    let op = Op::from_wire(body[0]).ok_or(WireError::Malformed("unknown op"))?;
    let tenant_len = body[1] as usize;
    let use_case_len = body[2] as usize;
    let names_end = 3 + tenant_len + use_case_len;
    let Some(rest) = body.get(names_end..) else {
        return Err(WireError::Malformed("names overrun body"));
    };
    let Some((plen_bytes, payload)) = rest.split_first_chunk::<4>() else {
        return Err(WireError::Malformed("missing payload length"));
    };
    let payload_len = u32::from_le_bytes(*plen_bytes) as usize;
    if payload_len != payload.len() {
        return Err(WireError::Malformed("payload length mismatch"));
    }
    let tenant = std::str::from_utf8(&body[3..3 + tenant_len])
        .map_err(|_| WireError::Malformed("tenant not UTF-8"))?
        .to_string();
    let use_case = std::str::from_utf8(&body[3 + tenant_len..names_end])
        .map_err(|_| WireError::Malformed("use case not UTF-8"))?
        .to_string();
    if tenant.is_empty() {
        return Err(WireError::Malformed("empty tenant"));
    }
    Ok(Some(Request {
        op,
        tenant,
        use_case,
        payload: payload.to_vec(),
    }))
}

/// Appends one request frame to `out` (buffered writers batch several
/// frames into one write).
///
/// # Errors
///
/// [`WireError::Malformed`] when a name exceeds its 255-byte field or
/// the frame would overflow the `u32` length prefix.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) -> Result<(), WireError> {
    if req.tenant.len() > u8::MAX as usize || req.use_case.len() > u8::MAX as usize {
        return Err(WireError::Malformed("name longer than 255 bytes"));
    }
    let body_len = REQ_FIXED + req.tenant.len() + req.use_case.len() + req.payload.len();
    if body_len > u32::MAX as usize {
        return Err(WireError::Malformed("frame exceeds u32 length"));
    }
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(req.op.to_wire());
    out.push(req.tenant.len() as u8);
    out.push(req.use_case.len() as u8);
    out.extend_from_slice(req.tenant.as_bytes());
    out.extend_from_slice(req.use_case.as_bytes());
    out.extend_from_slice(&(req.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&req.payload);
    Ok(())
}

/// Appends one response frame to `out`.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {
    let body_len = RESP_FIXED + resp.payload.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(resp.status as u8);
    out.extend_from_slice(&(resp.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&resp.payload);
}

/// Reads one response frame.
///
/// # Errors
///
/// Mirrors [`read_request`]: responses larger than `limits` or with an
/// inconsistent layout are typed errors, EOF mid-frame is
/// [`WireError::Io`].
pub fn read_response<R: BufRead>(r: &mut R, limits: &DecodeLimits) -> Result<Response, WireError> {
    let body_len = read_u32(r)? as usize;
    limits
        .check_output(body_len)
        .map_err(|_| WireError::TooLarge {
            declared: body_len,
            limit: limits.max_output,
        })?;
    if body_len < RESP_FIXED {
        return Err(WireError::Malformed("response shorter than fixed header"));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let status = Status::from_wire(body[0]).ok_or(WireError::Malformed("unknown status"))?;
    let Some((plen_bytes, payload)) = body[1..].split_first_chunk::<4>() else {
        return Err(WireError::Malformed("missing payload length"));
    };
    let payload_len = u32::from_le_bytes(*plen_bytes) as usize;
    if payload_len != payload.len() {
        return Err(WireError::Malformed("payload length mismatch"));
    }
    Ok(Response {
        status,
        payload: payload.to_vec(),
    })
}

/// Writes `response` to `w` and flushes.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(RESP_FIXED + 4 + resp.payload.len());
    encode_response(&mut buf, resp);
    w.write_all(&buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn req(op: Op, payload: &[u8]) -> Request {
        Request {
            op,
            tenant: "cache1".into(),
            use_case: "items".into(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn request_roundtrips_all_ops() {
        for op in [Op::Compress, Op::Decompress, Op::Stats] {
            let r = req(op, b"hello world");
            let mut wire = Vec::new();
            encode_request(&mut wire, &r).unwrap();
            let mut reader = BufReader::new(wire.as_slice());
            let back = read_request(&mut reader, &DecodeLimits::default())
                .unwrap()
                .unwrap();
            assert_eq!(back, r);
            // Clean EOF after the frame.
            assert!(read_request(&mut reader, &DecodeLimits::default())
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn response_roundtrips() {
        for status in [
            Status::Ok,
            Status::Shed,
            Status::Deadline,
            Status::BadFrame,
            Status::Error,
            Status::TooLarge,
        ] {
            let r = Response {
                status,
                payload: vec![1, 2, 3],
            };
            let mut wire = Vec::new();
            encode_response(&mut wire, &r);
            let back = read_response(
                &mut BufReader::new(wire.as_slice()),
                &DecodeLimits::default(),
            )
            .unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn hostile_body_length_is_rejected_before_allocation() {
        // 4 GiB declared in a 9-byte frame: must fail the limits check,
        // not attempt the allocation or wait for bytes.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[1, 1, 1, b'a', b'b']);
        let limits = DecodeLimits::with_max_output(1 << 20);
        match read_request(&mut BufReader::new(wire.as_slice()), &limits) {
            Err(WireError::TooLarge { declared, limit }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(limit, 1 << 20);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn interior_payload_length_must_account_exactly() {
        let r = req(Op::Compress, b"payload");
        let mut wire = Vec::new();
        encode_request(&mut wire, &r).unwrap();
        // Inflate the interior payload_len without growing the body.
        let plen_at = 4 + 3 + r.tenant.len() + r.use_case.len();
        wire[plen_at..plen_at + 4].copy_from_slice(&0xffff_u32.to_le_bytes());
        let got = read_request(
            &mut BufReader::new(wire.as_slice()),
            &DecodeLimits::default(),
        );
        assert!(
            matches!(got, Err(WireError::Malformed(_))),
            "inflated interior length must be malformed, got {got:?}"
        );
    }

    #[test]
    fn truncations_are_typed_errors() {
        let r = req(Op::Compress, b"some payload bytes");
        let mut wire = Vec::new();
        encode_request(&mut wire, &r).unwrap();
        for cut in 1..wire.len() {
            let got = read_request(&mut BufReader::new(&wire[..cut]), &DecodeLimits::default());
            assert!(got.is_err(), "cut {cut} must error, got {got:?}");
        }
    }

    #[test]
    fn unknown_op_and_empty_tenant_are_malformed() {
        let mut r = req(Op::Stats, b"");
        let mut wire = Vec::new();
        encode_request(&mut wire, &r).unwrap();
        wire[4] = 99; // op byte
        assert!(matches!(
            read_request(
                &mut BufReader::new(wire.as_slice()),
                &DecodeLimits::default()
            ),
            Err(WireError::Malformed("unknown op"))
        ));

        r.tenant = String::new();
        let mut wire = Vec::new();
        encode_request(&mut wire, &r).unwrap();
        assert!(matches!(
            read_request(
                &mut BufReader::new(wire.as_slice()),
                &DecodeLimits::default()
            ),
            Err(WireError::Malformed("empty tenant"))
        ));
    }
}
