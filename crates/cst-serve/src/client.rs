//! Blocking client for the serve wire protocol.
//!
//! [`ServeClient`] owns one connection (TCP or Unix) plus reusable
//! encode/decode buffers; each call writes one request frame and reads
//! exactly one response frame. Used by `cst-tools serve-replay`, the
//! stress suite, and any external tool that speaks the protocol.

use crate::stats::ServeStats;
use crate::server::Stream;
use crate::wire::{
    decode_response, encode_batch_request, encode_reset_request, encode_route_request,
    encode_stats_request, read_frame, write_frame, ErrorFrame, FrameError, Response, RouteReply,
    DEFAULT_MAX_FRAME,
};
use cst_comm::CommSet;
use cst_core::wire::WireError;
use cst_core::FaultMask;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Anything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent a frame longer than our cap.
    Oversize {
        /// Declared frame length.
        len: usize,
        /// Our cap.
        max: usize,
    },
    /// The peer's frame body failed to decode.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
    /// The response kind did not match the request.
    Unexpected(&'static str),
    /// The peer closed the connection before answering.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Oversize { len, max } => {
                write!(f, "response frame length {len} exceeds cap {max}")
            }
            ClientError::Wire(e) => write!(f, "malformed response: {e}"),
            ClientError::Server(e) => write!(f, "server error [{:?}]: {}", e.code, e.message),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Oversize { len, max } => ClientError::Oversize { len, max },
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// One blocking connection to a serve daemon.
#[derive(Debug)]
pub struct ServeClient {
    stream: Stream,
    send: Vec<u8>,
    recv: Vec<u8>,
    max_frame: usize,
}

impl ServeClient {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient::from_stream(Stream::Tcp(stream)))
    }

    /// Connect over a Unix socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<ServeClient> {
        let stream = UnixStream::connect(path)?;
        Ok(ServeClient::from_stream(Stream::Unix(stream)))
    }

    fn from_stream(stream: Stream) -> ServeClient {
        ServeClient { stream, send: Vec::new(), recv: Vec::new(), max_frame: DEFAULT_MAX_FRAME }
    }

    /// Cap on response frames this client will accept.
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    fn round_trip(&mut self) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &self.send)?;
        if !read_frame(&mut self.stream, &mut self.recv, self.max_frame)? {
            return Err(ClientError::Disconnected);
        }
        Ok(decode_response(&self.recv)?)
    }

    /// Route one set, optionally under a fault mask.
    pub fn route(
        &mut self,
        router: &str,
        set: &CommSet,
        mask: Option<&FaultMask>,
    ) -> Result<RouteReply, ClientError> {
        encode_route_request(&mut self.send, router, set, mask);
        match self.round_trip()? {
            Response::Route(reply) => Ok(reply),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("expected Route response")),
        }
    }

    /// Route a batch where each item carries its own optional fault
    /// mask; per-item results.
    pub fn batch(
        &mut self,
        router: &str,
        items: &[(CommSet, Option<FaultMask>)],
    ) -> Result<Vec<Result<RouteReply, ErrorFrame>>, ClientError> {
        encode_batch_request(&mut self.send, router, items);
        match self.round_trip()? {
            Response::Batch(items) => Ok(items),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("expected Batch response")),
        }
    }

    /// Fetch a counter snapshot.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        encode_stats_request(&mut self.send);
        match self.round_trip()? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("expected Stats response")),
        }
    }

    /// Zero the server's counters and drop its cache.
    pub fn reset(&mut self) -> Result<(), ClientError> {
        encode_reset_request(&mut self.send);
        match self.round_trip()? {
            Response::Reset => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("expected Reset response")),
        }
    }
}
