//! The load generator's HTTP/1.1 keep-alive client.
//!
//! One [`Conn`] is one kept-alive connection with `TCP_NODELAY`. A
//! request is written whole, then the response is read until the head's
//! blank line and `Content-Length` more bytes. The reader is the
//! harness's own (not `proto::parse_response`): it leaves the body in
//! place as bytes, so checking a click costs one pass over the body and
//! no allocation.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// FNV-1a over `bytes`: the body digest of the click oracle.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The parts of a response head the harness checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Head {
    /// Status code.
    pub status: u16,
    /// `Content-Length`.
    pub body_len: usize,
    /// Whether `X-Strudel-Degraded` was present.
    pub degraded: bool,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Bytes of the head, blank line included.
    pub head_len: usize,
}

/// Parses a response head out of `buf` once its blank line has arrived.
/// `Ok(None)` means "read more"; `Err` means the bytes are not a
/// response this server could have sent.
pub fn parse_head(buf: &[u8]) -> Result<Option<Head>, &'static str> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Err("response head exceeds 16 KiB")
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err("not an HTTP/1.x status line");
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("unreadable status code")?;
    let mut body_len = None;
    let mut degraded = false;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            body_len = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-strudel-degraded") {
            degraded = true;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    Ok(Some(Head {
        status,
        body_len: body_len.ok_or("response without Content-Length")?,
        degraded,
        keep_alive,
        head_len: end + 4,
    }))
}

/// Reads responses off one byte stream, one at a time. Bytes that
/// arrive past the end of a response stay buffered for the next call, so
/// the reader is correct at any chunking of the stream.
#[derive(Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the previous response.
    consumed: usize,
}

impl ResponseReader {
    /// Reads the next response from `src`; the body is returned by
    /// [`ResponseReader::body`] until the next call.
    pub fn next(&mut self, src: &mut impl Read) -> io::Result<Head> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let mut chunk = [0u8; 16 * 1024];
        let mut fill = |buf: &mut Vec<u8>| -> io::Result<()> {
            let n = src.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        };
        let head = loop {
            if let Some(head) = parse_head(&self.buf).map_err(io::Error::other)? {
                break head;
            }
            fill(&mut self.buf)?;
        };
        let total = head.head_len + head.body_len;
        while self.buf.len() < total {
            fill(&mut self.buf)?;
        }
        self.consumed = total;
        Ok(head)
    }

    /// The body of the response `head` describes.
    pub fn body(&self, head: &Head) -> &[u8] {
        &self.buf[head.head_len..head.head_len + head.body_len]
    }
}

/// The wire bytes of a keep-alive GET, as a browser-like client sends
/// it. Built once per URL at set-up so the measured loop only writes.
pub fn encode_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// One kept-alive client connection.
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a 10 s I/O deadline (a wedged
    /// server fails the run instead of hanging it).
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            reader: ResponseReader::default(),
        })
    }

    /// Sends pre-encoded request bytes and reads the response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(Head, &[u8])> {
        self.stream.write_all(request)?;
        let head = self.reader.next(&mut self.stream)?;
        Ok((head, self.reader.body(&head)))
    }

    /// `GET path`, returning the head and the body bytes.
    pub fn get(&mut self, path: &str) -> io::Result<(Head, &[u8])> {
        self.roundtrip(&encode_get(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `step` bytes per call.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const WIRE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\
        Content-Length: 11\r\nConnection: keep-alive\r\n\r\nhello world\
        HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nX-Strudel-Degraded: stale\r\n\
        Connection: close\r\n\r\n";

    #[test]
    fn reads_back_to_back_responses_at_any_chunking() {
        for step in [1, 2, 7, 64, 4096] {
            let mut src = Trickle { data: WIRE, step };
            let mut reader = ResponseReader::default();
            let first = reader.next(&mut src).unwrap();
            assert_eq!((first.status, first.body_len), (200, 11));
            assert!(first.keep_alive && !first.degraded);
            assert_eq!(reader.body(&first), b"hello world");
            let second = reader.next(&mut src).unwrap();
            assert_eq!((second.status, second.body_len), (404, 0));
            assert!(second.degraded && !second.keep_alive);
            assert_eq!(reader.body(&second), b"");
            assert!(reader.next(&mut src).is_err(), "stream is exhausted");
        }
    }

    #[test]
    fn truncated_and_malformed_responses_are_errors() {
        let cut = &WIRE[..WIRE.len() / 3];
        let mut reader = ResponseReader::default();
        assert!(reader.next(&mut Trickle { data: cut, step: 5 }).is_err());
        assert!(parse_head(b"SMTP ready\r\n\r\n").is_err());
        assert!(
            parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "no Content-Length"
        );
        assert_eq!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le"), Ok(None));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
