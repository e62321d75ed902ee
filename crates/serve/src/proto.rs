//! The HTTP/1.1 wire protocol, shared by both transports.
//!
//! The thread-pool transport ([`crate::server`]) and the epoll reactor
//! (`crate::event`) parse requests and encode responses through this
//! one module, so the two transports can never drift: same request
//! grammar, same status bodies, same header set. The only deliberate
//! difference is the `Connection` header — the thread transport always
//! answers `close` (one connection per request, the bench baseline),
//! while the reactor answers `keep-alive` when the request allows it.
//!
//! Parsing is incremental over a byte buffer: callers append whatever
//! arrived and ask again. A request is complete at the first blank line
//! (CRLF or bare LF — the transports have always tolerated both);
//! nothing past it is consumed, so pipelined requests stay in the
//! buffer for the next round.

use crate::Response;

/// One parsed request head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The request method, verbatim (`GET`, `HEAD`, …).
    pub method: String,
    /// The request target (path plus optional query string).
    pub path: String,
    /// Whether the connection may serve another request after this
    /// response: HTTP/1.1 defaults to yes, HTTP/1.0 to no, and an
    /// explicit `Connection: close` / `keep-alive` header overrides.
    /// Requests carrying a body (`Content-Length`/`Transfer-Encoding`)
    /// force `false` — this server never reads bodies, so the unread
    /// bytes would desynchronize a reused connection.
    pub keep_alive: bool,
}

impl ParsedRequest {
    /// Whether the response should omit its body (`HEAD`).
    pub fn head_only(&self) -> bool {
        self.method == "HEAD"
    }

    /// The request gate both transports hold a complete head to before
    /// any service sees it: `405` for a method other than GET/HEAD,
    /// `400` for an unparsable request line, `None` to let it through.
    pub fn refusal(&self) -> Option<Response> {
        if self.method != "GET" && self.method != "HEAD" {
            Some(Response::status_text(405, "only GET is supported\n".into()))
        } else if self.path.is_empty() {
            Some(Response::status_text(400, "malformed request line\n".into()))
        } else {
            None
        }
    }
}

/// What [`parse_request`] found in the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// No blank line yet — read more bytes and ask again.
    Incomplete,
    /// The head outgrew the byte budget without completing: answer
    /// `431` and close.
    TooLarge,
    /// A complete head. `consumed` bytes belong to it (drain them);
    /// anything after is the next pipelined request.
    Complete {
        /// The parsed head.
        request: ParsedRequest,
        /// Bytes of the buffer this head consumed, blank line included.
        consumed: usize,
    },
}

/// Incrementally parses one request head out of `buf` (see
/// [`ParseOutcome`]). `max` is the byte budget for the whole head —
/// request line plus headers ([`crate::server::MAX_REQUEST_BYTES`] in
/// production).
pub fn parse_request(buf: &[u8], max: usize) -> ParseOutcome {
    let Some(end) = head_end(buf, max) else {
        return if buf.len() >= max {
            ParseOutcome::TooLarge
        } else {
            ParseOutcome::Incomplete
        };
    };
    let head = &buf[..end];
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    let version = parts.next().unwrap_or("HTTP/1.1");

    // HTTP/1.1 defaults to keep-alive; anything else (1.0, unversioned)
    // to close. An explicit Connection header overrides either way.
    let mut keep_alive = version.eq_ignore_ascii_case("HTTP/1.1");
    let mut has_body = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            has_body = value.parse::<u64>().map(|n| n > 0).unwrap_or(true);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            has_body = true;
        }
    }
    if has_body {
        keep_alive = false;
    }
    ParseOutcome::Complete {
        request: ParsedRequest {
            method,
            path,
            keep_alive,
        },
        consumed: end,
    }
}

/// The index just past the head's terminating blank line, if present
/// within the first `max` bytes. The blank line is an empty line —
/// `\r\n\r\n`, `\n\n`, or the mixed forms.
fn head_end(buf: &[u8], max: usize) -> Option<usize> {
    let window = &buf[..buf.len().min(max)];
    let mut i = 0;
    while i < window.len() {
        if window[i] != b'\n' {
            i += 1;
            continue;
        }
        // A '\n' ends a line; the next line being empty ends the head.
        match window.get(i + 1) {
            Some(b'\n') => return Some(i + 2),
            Some(b'\r') if window.get(i + 2) == Some(&b'\n') => return Some(i + 3),
            _ => i += 1,
        }
    }
    None
}

/// The canonical reason phrase for every status this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Appends one response head — status line through the blank line —
/// to `out`: the single place heads are formatted. `body_len` is the
/// `Content-Length` (the true length even when a HEAD omits the body);
/// `keep_alive` selects the `Connection` header. A `405` always carries
/// the RFC 9110-required `Allow` header; `retry_after_secs` (used by
/// `503` shedding) adds `Retry-After`; `degraded` adds the stale marker.
pub fn encode_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    degraded: bool,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) {
    use std::io::Write;
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\n",
        reason(status),
    );
    if status == 405 {
        out.extend_from_slice(b"Allow: GET, HEAD\r\n");
    }
    if let Some(secs) = retry_after_secs {
        let _ = write!(out, "Retry-After: {secs}\r\n");
    }
    if degraded {
        out.extend_from_slice(b"X-Strudel-Degraded: stale\r\n");
    }
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"Connection: close\r\n\r\n".as_slice()
    });
}

/// Encodes one response head + body as wire bytes: [`encode_head`]
/// followed by the body, which `head_only` omits (HEAD).
pub fn encode_response(
    response: &Response,
    head_only: bool,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.body.len() + 160);
    encode_head(
        &mut out,
        response.status,
        response.content_type,
        response.body.len(),
        response.degraded,
        keep_alive,
        retry_after_secs,
    );
    if !head_only {
        out.extend_from_slice(response.body.as_bytes());
    }
    out
}

/// Appends one request head as wire bytes to `out` — the client half
/// of the protocol, used by the cluster router to proxy clicks to its
/// shard workers over loopback, into a buffer it reuses per connection.
pub fn encode_request(out: &mut Vec<u8>, method: &str, path: &str, keep_alive: bool) {
    use std::io::Write;
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: strudel-cluster\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
}

/// One response head + body parsed off the wire (the proxy side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value, verbatim.
    pub content_type: String,
    /// The response body (empty for HEAD).
    pub body: String,
    /// Whether the peer marked the response `X-Strudel-Degraded`.
    pub degraded: bool,
    /// Whether the peer will serve another request on this connection.
    pub keep_alive: bool,
}

/// What [`parse_response`] found in the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseOutcome {
    /// Head or declared body still in flight — read more and ask again.
    Incomplete,
    /// Not an HTTP/1.x response this module understands.
    Malformed,
    /// A complete response; `consumed` bytes belong to it.
    Complete {
        /// The parsed response.
        response: ParsedResponse,
        /// Bytes of the buffer this response consumed.
        consumed: usize,
    },
}

/// What [`parse_response_head`] found in the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeadOutcome {
    /// No blank line yet — read more and ask again.
    Incomplete,
    /// Not an HTTP/1.x response head this module understands.
    Malformed,
    /// A complete head.
    Complete {
        /// The head's fields; `body` is empty.
        response: ParsedResponse,
        /// The declared `Content-Length`.
        body_len: usize,
        /// Bytes of the buffer the head consumed, blank line included;
        /// the body starts here.
        consumed: usize,
    },
}

/// Parses one response head out of `buf` — what a client needs to know
/// once, before it reads `body_len` more bytes. Responses from this
/// server always carry `Content-Length`, so a missing one is
/// [`HeadOutcome::Malformed`].
pub fn parse_response_head(buf: &[u8]) -> HeadOutcome {
    const MAX_RESPONSE_HEAD: usize = 16 * 1024;
    let Some(end) = head_end(buf, MAX_RESPONSE_HEAD) else {
        return if buf.len() >= MAX_RESPONSE_HEAD {
            HeadOutcome::Malformed
        } else {
            HeadOutcome::Incomplete
        };
    };
    let text = String::from_utf8_lossy(&buf[..end]);
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return HeadOutcome::Malformed;
    }
    let Some(status) = parts.next().and_then(|s| s.parse::<u16>().ok()) else {
        return HeadOutcome::Malformed;
    };
    let mut content_type = String::new();
    let mut content_length: Option<usize> = None;
    let mut degraded = false;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-type") {
            content_type = value.to_owned();
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-strudel-degraded") {
            degraded = true;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    let Some(body_len) = content_length else {
        return HeadOutcome::Malformed;
    };
    HeadOutcome::Complete {
        response: ParsedResponse {
            status,
            content_type,
            body: String::new(),
            degraded,
            keep_alive,
        },
        body_len,
        consumed: end,
    }
}

/// Incrementally parses one response out of `buf`: the head
/// ([`parse_response_head`]), then the declared body. `head_only` skips
/// the body wait (a HEAD exchange: `Content-Length` describes the body
/// that is *not* coming).
pub fn parse_response(buf: &[u8], head_only: bool) -> ResponseOutcome {
    let (mut response, body_len, body_at) = match parse_response_head(buf) {
        HeadOutcome::Incomplete => return ResponseOutcome::Incomplete,
        HeadOutcome::Malformed => return ResponseOutcome::Malformed,
        HeadOutcome::Complete {
            response,
            body_len,
            consumed,
        } => (response, if head_only { 0 } else { body_len }, consumed),
    };
    let Some(body) = buf.get(body_at..body_at.saturating_add(body_len)) else {
        return ResponseOutcome::Incomplete;
    };
    response.body = String::from_utf8_lossy(body).into_owned();
    ResponseOutcome::Complete {
        response,
        consumed: body_at + body_len,
    }
}

/// The `431` answered when a request head outgrows `max` bytes.
pub fn response_431(max: u64) -> Response {
    Response::status_text(431, format!("request exceeds {max} bytes\n"))
}

/// The `408` answered when a client stalls mid-request (the read timed
/// out or the idle deadline passed with a partial head buffered).
pub fn response_408() -> Response {
    Response::status_text(408, "timed out reading the request\n".into())
}

/// The `503` answered when the server sheds load (full backlog or
/// connection cap).
pub fn response_503() -> Response {
    Response::status_text(503, "server is at capacity, retry shortly\n".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ParseOutcome {
        parse_request(s.as_bytes(), 16 * 1024)
    }

    #[test]
    fn parses_a_plain_get() {
        let ParseOutcome::Complete { request, consumed } =
            parse("GET /page/X HTTP/1.1\r\nHost: h\r\n\r\n")
        else {
            panic!("complete")
        };
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/page/X");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(!request.head_only());
        assert_eq!(consumed, "GET /page/X HTTP/1.1\r\nHost: h\r\n\r\n".len());
    }

    #[test]
    fn connection_header_overrides_version_default() {
        for (req, expect) in [
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
            ("GET / HTTP/1.1\r\n\r\n", true),
        ] {
            let ParseOutcome::Complete { request, .. } = parse(req) else {
                panic!("complete: {req:?}")
            };
            assert_eq!(request.keep_alive, expect, "{req:?}");
        }
    }

    #[test]
    fn bodies_force_close_so_reuse_never_desyncs() {
        for req in [
            "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
            "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: nonsense\r\n\r\n",
        ] {
            let ParseOutcome::Complete { request, .. } = parse(req) else {
                panic!("complete: {req:?}")
            };
            assert!(!request.keep_alive, "{req:?}");
        }
        // An explicit zero-length body is no body at all.
        let ParseOutcome::Complete { request, .. } =
            parse("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        else {
            panic!("complete")
        };
        assert!(request.keep_alive);
    }

    #[test]
    fn incremental_parse_waits_for_the_blank_line() {
        let full = "GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        for cut in 0..full.len() {
            let outcome = parse_request(&full.as_bytes()[..cut], 16 * 1024);
            assert_eq!(outcome, ParseOutcome::Incomplete, "cut at {cut}");
        }
        assert!(matches!(parse(full), ParseOutcome::Complete { .. }));
    }

    #[test]
    fn a_two_byte_header_line_does_not_end_the_head() {
        // "A\n" is the 2-byte header line the old `n > 2` predicate
        // misread as end-of-headers.
        let req = "GET / HTTP/1.1\r\nA\nX-Pad: p\r\n\r\n";
        let ParseOutcome::Complete { consumed, .. } = parse(req) else {
            panic!("complete")
        };
        assert_eq!(consumed, req.len(), "head runs past the 2-byte line");
    }

    #[test]
    fn bare_lf_terminators_are_accepted() {
        let req = "GET / HTTP/1.1\nHost: h\n\n";
        let ParseOutcome::Complete { request, consumed } = parse(req) else {
            panic!("complete")
        };
        assert_eq!(request.path, "/");
        assert_eq!(consumed, req.len());
    }

    #[test]
    fn pipelined_requests_consume_only_the_first_head() {
        let two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete { request, consumed } = parse(two) else {
            panic!("complete")
        };
        assert_eq!(request.path, "/a");
        let rest = &two.as_bytes()[consumed..];
        let ParseOutcome::Complete { request, .. } = parse_request(rest, 16 * 1024) else {
            panic!("second head parses from the remainder")
        };
        assert_eq!(request.path, "/b");
    }

    #[test]
    fn over_budget_heads_are_too_large() {
        let endless = format!("GET /{} HTTP/1.1", "a".repeat(100));
        assert_eq!(
            parse_request(endless.as_bytes(), 64),
            ParseOutcome::TooLarge
        );
        // Under budget but incomplete: keep reading.
        assert_eq!(
            parse_request(b"GET /abc", 64),
            ParseOutcome::Incomplete
        );
        // A head that *completes* within the budget is fine even if
        // pipelined bytes behind it push the buffer past the budget.
        let head = "GET / HTTP/1.1\r\n\r\n";
        let mut buf = head.as_bytes().to_vec();
        buf.extend(std::iter::repeat(b'x').take(200));
        assert!(matches!(
            parse_request(&buf, 64),
            ParseOutcome::Complete { .. }
        ));
    }

    #[test]
    fn encode_sets_connection_allow_and_retry_after() {
        let ok = Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: "<p>hi</p>".into(),
            degraded: false,
        };
        let bytes = encode_response(&ok, false, true, None);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Content-Length: 9\r\n"), "{text}");
        assert!(text.ends_with("<p>hi</p>"), "{text}");

        // HEAD: full Content-Length, no body.
        let head = String::from_utf8(encode_response(&ok, true, false, None)).unwrap();
        assert!(head.contains("Content-Length: 9\r\n"), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");

        // 405 always carries Allow (RFC 9110 §15.5.6).
        let ParseOutcome::Complete { request: post, .. } = parse("POST / HTTP/1.1\r\n\r\n") else {
            panic!("a complete head");
        };
        let refused = post.refusal().expect("only GET and HEAD pass the gate");
        let text = String::from_utf8(encode_response(&refused, false, false, None)).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 "), "{text}");
        assert!(text.contains("Allow: GET, HEAD\r\n"), "{text}");

        // Shedding carries Retry-After.
        let text =
            String::from_utf8(encode_response(&response_503(), false, false, Some(7))).unwrap();
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
    }

    #[test]
    fn a_head_appended_to_a_reused_buffer_plus_the_body_is_the_encoded_response() {
        let ok = Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: "<p>hi</p>".into(),
            degraded: false,
        };
        let mut out = b"stale bytes of the previous response".to_vec();
        for keep_alive in [true, false] {
            out.clear();
            encode_head(&mut out, 200, ok.content_type, ok.body.len(), false, keep_alive, None);
            assert_eq!(out, encode_response(&ok, true, keep_alive, None));
            out.extend_from_slice(ok.body.as_bytes());
            assert_eq!(out, encode_response(&ok, false, keep_alive, None));
        }
    }

    #[test]
    fn degraded_responses_carry_the_stale_marker() {
        let stale = Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: "<p>old</p>".into(),
            degraded: true,
        };
        let text = String::from_utf8(encode_response(&stale, false, false, None)).unwrap();
        assert!(text.contains("X-Strudel-Degraded: stale\r\n"), "{text}");
    }

    #[test]
    fn response_round_trips_through_the_client_side() {
        let sent = Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body: "<p>hi</p>".into(),
            degraded: true,
        };
        let wire = encode_response(&sent, false, true, None);
        // Incremental: every prefix is Incomplete, the whole is Complete.
        for cut in 0..wire.len() {
            assert_eq!(
                parse_response(&wire[..cut], false),
                ResponseOutcome::Incomplete,
                "cut at {cut}"
            );
        }
        let ResponseOutcome::Complete { response, consumed } = parse_response(&wire, false)
        else {
            panic!("complete")
        };
        assert_eq!(consumed, wire.len());
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "text/html; charset=utf-8");
        assert_eq!(response.body, "<p>hi</p>");
        assert!(response.degraded);
        assert!(response.keep_alive);

        // HEAD: the head alone completes despite the Content-Length.
        let head_wire = encode_response(&sent, true, false, None);
        let ResponseOutcome::Complete { response, consumed } =
            parse_response(&head_wire, true)
        else {
            panic!("complete")
        };
        assert_eq!(consumed, head_wire.len());
        assert!(response.body.is_empty());
        assert!(!response.keep_alive);
    }

    #[test]
    fn a_response_head_parses_alone_and_says_how_much_body_follows() {
        let sent = Response::html("<p>hi</p>".into());
        let wire = encode_response(&sent, false, true, None);
        let body_at = wire.len() - sent.body.len();
        for cut in 0..body_at {
            assert_eq!(parse_response_head(&wire[..cut]), HeadOutcome::Incomplete);
        }
        // Complete with none, some or all of the body behind it.
        for cut in body_at..=wire.len() {
            let HeadOutcome::Complete {
                response,
                body_len,
                consumed,
            } = parse_response_head(&wire[..cut])
            else {
                panic!("complete at {cut}")
            };
            assert_eq!((consumed, body_len), (body_at, sent.body.len()));
            assert_eq!(response.status, 200);
            assert!(response.body.is_empty() && response.keep_alive);
        }
        assert_eq!(
            parse_response_head(b"HTTP/1.1 200 OK\r\n\r\n"),
            HeadOutcome::Malformed
        );
    }

    #[test]
    fn malformed_responses_are_rejected_not_misread() {
        assert_eq!(
            parse_response(b"SMTP ready\r\n\r\n", false),
            ResponseOutcome::Malformed
        );
        // No Content-Length: this server never emits that.
        assert_eq!(
            parse_response(b"HTTP/1.1 200 OK\r\n\r\n", false),
            ResponseOutcome::Malformed
        );
    }

    #[test]
    fn encoded_requests_parse_back_through_the_server_side() {
        let mut wire = b"the previous request".to_vec();
        wire.clear();
        encode_request(&mut wire, "GET", "/page/X", true);
        let ParseOutcome::Complete { request, consumed } = parse_request(&wire, 16 * 1024)
        else {
            panic!("complete")
        };
        assert_eq!(consumed, wire.len());
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/page/X");
        assert!(request.keep_alive);
        wire.clear();
        encode_request(&mut wire, "GET", "/", false);
        let ParseOutcome::Complete { request, .. } = parse_request(&wire, 16 * 1024) else {
            panic!("complete")
        };
        assert!(!request.keep_alive);
    }
}
