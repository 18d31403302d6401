//! A minimal blocking HTTP/1.1 client: one request at a time on one
//! TCP connection, plain `Content-Length` bodies and chunked streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest any single read may block: well past the slowest reply
/// (an 8192² solve behind a cold tuner sweep), short enough that a
/// wedged server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    reader: BufReader<TcpStream>,
}

/// A response head: status and how its body is framed.
pub struct Head {
    pub status: u16,
    pub content_length: Option<usize>,
    pub chunked: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Writes one request as a single segment.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> Result<(), String> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
            body.len(),
            if close { "close" } else { "keep-alive" }
        );
        let stream = self.reader.get_mut();
        stream
            .write_all(msg.as_bytes())
            .and_then(|_| stream.flush())
            .map_err(|e| format!("send {method} {path}: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn read_head(&mut self) -> Result<Head, String> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(format!("bad status line '{status_line}'"))?;
        let mut head = Head {
            status,
            content_length: None,
            chunked: false,
        };
        loop {
            let line = self.line()?;
            if line.is_empty() {
                return Ok(head);
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header '{line}'"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }

    /// The body of a `Content-Length` response.
    pub fn read_body(&mut self, head: &Head) -> Result<String, String> {
        let len = head
            .content_length
            .ok_or("response has no Content-Length")?;
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        String::from_utf8(body).map_err(|e| e.to_string())
    }

    /// The next chunk of a chunked body; `None` after the terminal one.
    pub fn read_chunk(&mut self) -> Result<Option<String>, String> {
        let size_line = self.line()?;
        let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| format!("bad chunk size '{size_line}'"))?;
        if size == 0 {
            // No trailers: the blank line closes the body.
            self.line()?;
            return Ok(None);
        }
        let mut data = vec![0u8; size + 2];
        self.reader
            .read_exact(&mut data)
            .map_err(|e| format!("read chunk: {e}"))?;
        if &data[size..] != b"\r\n" {
            return Err("chunk not terminated by CRLF".into());
        }
        data.truncate(size);
        String::from_utf8(data).map(Some).map_err(|e| e.to_string())
    }

    /// One plain request/response exchange; returns status and body.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> Result<(u16, String), String> {
        self.send(method, path, body, close)?;
        let head = self.read_head()?;
        let body = self.read_body(&head)?;
        Ok((head.status, body))
    }
}
