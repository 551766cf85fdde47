//! The benchmark's own HTTP/1.1 client.
//!
//! Deliberately independent of `cuisine_serve::client` and `loadgen`: a
//! change to those cannot move the instrument. One [`Conn`] is one
//! keep-alive connection; requests may be pipelined (several `send`s before
//! the matching `recv`s) and responses are framed by `content-length`,
//! which the server always sends. Bodies are handed out as borrowed slices
//! of the read buffer, so the client copies nothing it does not keep.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Default bound on any single blocking read or write.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

const READ_CHUNK: usize = 256 * 1024;

/// One response, borrowed from the connection's buffer until the next
/// `recv`.
#[derive(Debug)]
pub struct Reply<'a> {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: &'a [u8],
}

/// A persistent client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` holding received data.
    filled: usize,
    /// Prefix of `buf` already handed out.
    consumed: usize,
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parse one response head at the start of `bytes`: `(status, head
/// length, content length)`, or `None` while the head is incomplete.
fn parse_head(bytes: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(end) = find(bytes, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&bytes[..end]).map_err(|_| bad("response head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok();
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length".into()))?;
    Ok(Some((status, end + 4, length)))
}

impl Conn {
    /// Connect to the server.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; READ_CHUNK],
            filled: 0,
            consumed: 0,
        })
    }

    /// Write one request. `body` is sent with a `content-length` header
    /// whenever the method is not `GET`.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let mut request = format!("{method} {path} HTTP/1.1\r\nhost: benchmark\r\n");
        if method != "GET" {
            request.push_str(&format!(
                "content-type: application/json\r\ncontent-length: {}\r\n",
                body.len()
            ));
        }
        request.push_str("\r\n");
        let mut bytes = request.into_bytes();
        bytes.extend_from_slice(body);
        self.stream.write_all(&bytes)
    }

    /// Wait up to `timeout` for the next complete response. `Ok(None)`
    /// means the time ran out; any partial response stays buffered for the
    /// next call.
    pub fn recv_within(&mut self, timeout: Duration) -> io::Result<Option<Reply<'_>>> {
        let deadline = Instant::now() + timeout;
        loop {
            let pending = &self.buf[self.consumed..self.filled];
            if let Some((status, head, length)) = parse_head(pending)? {
                let start = self.consumed + head;
                if self.filled - start >= length {
                    self.consumed = start + length;
                    return Ok(Some(Reply {
                        status,
                        body: &self.buf[start..start + length],
                    }));
                }
                self.reserve(head + length);
            } else {
                self.reserve(0);
            }
            // A large body streams in over many reads: the deadline bounds
            // the whole wait, not each read.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Block for the next response (up to [`IO_TIMEOUT`]).
    pub fn recv(&mut self) -> io::Result<Reply<'_>> {
        match self.recv_within(IO_TIMEOUT)? {
            Some(reply) => Ok(reply),
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response within the I/O timeout",
            )),
        }
    }

    /// One request, one response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply<'_>> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Make room for a read: drop the consumed prefix, and grow so that a
    /// response of `need` bytes (from the current start) fits with a chunk
    /// to spare.
    fn reserve(&mut self, need: usize) {
        if self.consumed > 0 {
            self.buf.copy_within(self.consumed..self.filled, 0);
            self.filled -= self.consumed;
            self.consumed = 0;
        }
        let want = need.max(self.filled) + READ_CHUNK;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn heads_parse_or_wait() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_head(raw).unwrap(), Some((200, raw.len() - 2, 2)));
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\ncontent-le").unwrap(), None);
        assert!(
            parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "content-length is required"
        );
        assert!(parse_head(b"SMTP ready\r\ncontent-length: 1\r\n\r\n").is_err());
    }

    #[test]
    fn pipelined_responses_split_across_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let big = vec![b'x'; 700_000];
        let wire = |bodies: &[&[u8]]| {
            let mut wire = Vec::new();
            for body in bodies {
                wire.extend_from_slice(
                    format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len()).as_bytes(),
                );
                wire.extend_from_slice(body);
            }
            wire
        };
        let server = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let (mut socket, _) = listener.accept().unwrap();
                let mut sink = [0u8; 1024];
                let _ = socket.read(&mut sink);
                socket.write_all(&wire(&[b"{\"a\":1}"])).unwrap();
                // The second request pipelines two responses, written in
                // pieces that split heads and bodies at arbitrary points.
                let _ = socket.read(&mut sink);
                for piece in wire(&[&big, b""]).chunks(4093) {
                    socket.write_all(piece).unwrap();
                }
                while socket.read(&mut sink).is_ok_and(|n| n > 0) {}
            });
            let mut conn = Conn::open(addr).unwrap();
            conn.send("GET", "/a", b"").unwrap();
            assert_eq!(conn.recv().unwrap().body, b"{\"a\":1}");
            assert!(
                conn.recv_within(Duration::from_millis(20))
                    .unwrap()
                    .is_none(),
                "nothing more yet"
            );
            conn.send("GET", "/b", b"").unwrap();
            assert_eq!(conn.recv().unwrap().body.len(), 700_000);
            let empty = conn.recv().unwrap();
            assert_eq!((empty.status, empty.body.len()), (200, 0));
            drop(conn);
            handle.join()
        });
        assert!(server.is_ok());
    }
}
