//! A minimal blocking HTTP/1.1 keep-alive client. The benchmark keeps its
//! own client so that the load it generates does not depend on the
//! program's client code, and so that a transport error surfaces as a
//! failure instead of a silent retry.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

/// One completed exchange: status, body and round-trip latency.
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub micros: f64,
}

impl Client {
    pub fn new(addr: &str) -> Self {
        Self { addr: addr.to_string(), conn: None }
    }

    /// Sends one request on the persistent connection (opened on first
    /// use, and again after an error). Errors are transport errors.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        let started = Instant::now();
        let out = self.exchange(method, path, body);
        if out.is_err() {
            self.conn = None;
        }
        out.map(|(status, body)| Reply {
            status,
            body,
            micros: started.elapsed().as_secs_f64() * 1e6,
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
            self.conn = Some(BufReader::new(stream));
        }
        let reader = self.conn.as_mut().expect("connection opened above");
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        reader.get_mut().write_all(wire.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("status line: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut length, mut close) = (None, false);
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).map_err(|e| format!("headers: {e}"))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let mut buf = vec![0u8; length];
        reader.read_exact(&mut buf).map_err(|e| format!("body: {e}"))?;
        if close {
            self.conn = None;
        }
        String::from_utf8(buf).map(|b| (status, b)).map_err(|_| "body is not UTF-8".to_string())
    }
}
