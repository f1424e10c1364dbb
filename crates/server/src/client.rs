//! Blocking client for the daemon's binary protocol. The serving
//! process's scrape endpoints speak HTTP; `telemetry::serve::http_get`
//! reads them.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use codecs::DecodeLimits;

use crate::protocol::{self, Op, Request, Response, WireError};

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    limits: DecodeLimits,
}

impl Client {
    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            limits: DecodeLimits::default(),
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, WireError> {
        let mut wire = Vec::new();
        protocol::encode_request(&mut wire, req)?;
        self.writer.write_all(&wire).map_err(WireError::Io)?;
        self.writer.flush().map_err(WireError::Io)?;
        protocol::read_response(&mut self.reader, &self.limits)
    }

    /// Compresses `data` under `(tenant, use_case)`.
    ///
    /// # Errors
    ///
    /// Transport or framing failure; service-level outcomes (shed,
    /// deadline) come back as the response's status.
    pub fn compress(
        &mut self,
        tenant: &str,
        use_case: &str,
        data: &[u8],
    ) -> Result<Response, WireError> {
        self.roundtrip(&Request {
            op: Op::Compress,
            tenant: tenant.into(),
            use_case: use_case.into(),
            payload: data.to_vec(),
        })
    }

    /// Decompresses a frame previously returned by [`Self::compress`].
    ///
    /// # Errors
    ///
    /// Transport or framing failure.
    pub fn decompress(
        &mut self,
        tenant: &str,
        use_case: &str,
        frame: &[u8],
    ) -> Result<Response, WireError> {
        self.roundtrip(&Request {
            op: Op::Decompress,
            tenant: tenant.into(),
            use_case: use_case.into(),
            payload: frame.to_vec(),
        })
    }

    /// Fetches the tenant's per-use-case stats JSON.
    ///
    /// # Errors
    ///
    /// Transport or framing failure.
    pub fn stats(&mut self, tenant: &str) -> Result<Response, WireError> {
        self.roundtrip(&Request {
            op: Op::Stats,
            tenant: tenant.into(),
            use_case: String::new(),
            payload: Vec::new(),
        })
    }

    /// Writes every request in one burst, then reads every response —
    /// the pipelining shape the server's batch path coalesces.
    ///
    /// # Errors
    ///
    /// Transport or framing failure; responses arrive in request order.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        let mut wire = Vec::new();
        for req in reqs {
            protocol::encode_request(&mut wire, req)?;
        }
        self.writer.write_all(&wire).map_err(WireError::Io)?;
        self.writer.flush().map_err(WireError::Io)?;
        reqs.iter()
            .map(|_| protocol::read_response(&mut self.reader, &self.limits))
            .collect()
    }
}
