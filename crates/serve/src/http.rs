//! A deliberately small HTTP/1.1 layer over `std::net`.
//!
//! The server speaks exactly the subset the experiment API needs —
//! `GET`/`POST`, `Content-Length` bodies, one request per connection,
//! `Connection: close` — in the same hand-rolled, dependency-free style
//! as `hvc_runner::json`. Streaming responses (the NDJSON sweep
//! progress) send no `Content-Length`; with `Connection: close` the
//! body legitimately ends when the connection does, which HTTP/1.1
//! explicitly allows and every client understands.
//!
//! Limits are conservative: 64 KB of request head, 4 MB of body.
//! Anything larger — or not a complete, well-formed request — is an
//! error the caller turns into a 4xx.

use std::io::{BufRead, Write};
use std::net::TcpStream;

/// Maximum request line + headers the server will buffer.
const MAX_HEAD: usize = 64 << 10;
/// Maximum request body (experiment grids are a few KB of JSON).
const MAX_BODY: usize = 4 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client, verbatim here).
    pub method: String,
    /// The request target, query string included (e.g. `/sweep`).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads one request from a buffered byte source (the server passes its
/// `BufReader<TcpStream>`). `Err` values are client-facing messages; the
/// caller wraps them in a 400.
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Request, String> {
    let head = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line {request_line:?}"));
    }

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
        }
        if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked request bodies are not supported".into());
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }

    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Reads up to and including the `\r\n\r\n` head terminator, byte by
/// byte (the reader is buffered; a byte loop keeps us from consuming
/// body bytes past the terminator).
fn read_head<R: BufRead>(stream: &mut R) -> Result<String, String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(format!("request head exceeds {MAX_HEAD} bytes"));
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-request".into()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    String::from_utf8(head).map_err(|_| "request head is not UTF-8".into())
}

/// Writes a complete response with a `Content-Length` and closes the
/// exchange (`Connection: close`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Starts a streaming NDJSON response: status line and headers only,
/// no `Content-Length` — the body ends when the connection closes.
pub fn write_stream_head(stream: &mut TcpStream, status: u16) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
        reason(status),
    )?;
    stream.flush()
}

/// The canonical reason phrases for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Runs `read_request` against raw client bytes.
    fn parse_bytes(mut bytes: &[u8]) -> Result<Request, String> {
        read_request(&mut bytes)
    }

    #[test]
    fn parses_a_get_without_a_body() {
        let req = parse_bytes(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_a_content_length_body() {
        let req = parse_bytes(
            b"POST /sweep HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn rejects_garbage_and_short_bodies() {
        assert!(parse_bytes(b"ELEPHANT\r\n\r\n").is_err());
        assert!(parse_bytes(b"GET /x SMTP/1.0\r\n\r\n").is_err());
        let short = parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nonly-a-bit");
        assert!(short.is_err(), "{short:?}");
        let bad_len = parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: lots\r\n\r\n");
        assert!(bad_len.is_err());
        assert!(parse_bytes(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
    }

    #[test]
    fn response_writer_emits_well_formed_http() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            c.read_to_string(&mut text).unwrap();
            text
        });
        let (mut server_side, _) = listener.accept().unwrap();
        write_response(
            &mut server_side,
            404,
            "application/json",
            b"{\"error\":\"nope\"}",
        )
        .unwrap();
        drop(server_side);
        let text = client.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.ends_with("{\"error\":\"nope\"}"));
    }
}
