//! A minimal HTTP/1.1 keep-alive client over `std::net`, and just
//! enough JSON to read the gateway's responses. The load generator owns
//! these so that a change to the server's own client or codec cannot
//! change the instrument.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection that may have several requests in flight
/// (pipelined); responses arrive in request order.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Write one request without waiting for its response.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Parse one complete response off the front of the buffer, if any.
    fn take_buffered(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut len = 0usize;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }

    /// Wait until `deadline` for the next response.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<Response>, String> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            if let Some(r) = self.take_buffered()? {
                return Ok(Some(r));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))
                .map_err(|e| e.to_string())?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by server".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// Send one request and wait for its response (closed loop).
    pub fn call(&mut self, raw: &[u8], timeout: Duration) -> Result<Response, String> {
        self.send(raw).map_err(|e| e.to_string())?;
        self.recv_until(Instant::now() + timeout)?
            .ok_or_else(|| "timed out".to_string())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// `POST /v1/transpose` for one problem.
pub fn transpose_request(extents: &[usize], perm: &[usize], tenant: &str, batch: bool) -> Vec<u8> {
    let list = |v: &[usize]| {
        v.iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let body = format!(
        "{{\"extents\":[{}],\"perm\":[{}]}}",
        list(extents),
        list(perm)
    );
    format!(
        "POST /v1/transpose HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nx-ttlg-tenant: {tenant}\r\nx-ttlg-priority: {}\r\n\r\n{body}",
        body.len(),
        if batch { "batch" } else { "interactive" },
    )
    .into_bytes()
}

/// `GET /v1/explain` for one problem.
pub fn explain_request(extents: &[usize], perm: &[usize]) -> Vec<u8> {
    let list = |v: &[usize]| {
        v.iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "GET /v1/explain?extents={}&perm={} HTTP/1.1\r\nhost: bench\r\n\r\n",
        list(extents),
        list(perm)
    )
    .into_bytes()
}

/// `GET /metrics`.
pub fn metrics_request() -> Vec<u8> {
    b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n".to_vec()
}

// ---- JSON ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document.
pub fn parse_json(text: &[u8]) -> Result<Json, String> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let c = *self.s.get(self.i).ok_or("unexpected end")?;
        match c {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat(b"}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(b":") {
                        return Err(format!("expected ':' at {}", self.i));
                    }
                    fields.push((k, self.value()?));
                    self.ws();
                    if self.eat(b"}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b",") {
                        return Err(format!("expected ',' at {}", self.i));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat(b"]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat(b"]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b",") {
                        return Err(format!("expected ',' at {}", self.i));
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' if self.eat(b"true") => Ok(Json::Bool(true)),
            b'f' if self.eat(b"false") => Ok(Json::Bool(false)),
            b'n' if self.eat(b"null") => Ok(Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b"\"") {
            return Err(format!("expected string at {}", self.i));
        }
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u")?,
                                16,
                            )
                            .map_err(|_| "bad \\u")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy a run of plain bytes at once (keeps UTF-8 intact).
                    let start = self.i - 1;
                    while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|_| "non-UTF-8 string")?,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_gateway_response() {
        let body = br#"{"ok":true,"schema":"FVI-Match-Large","elements":4096,"kernel_us":7.25,
            "bandwidth_gbps":1.2e2,"coalesced":false,"phases":{"queue_us":3},"xs":[1,"a\"b"],"n":null}"#;
        let v = parse_json(body).unwrap();
        assert_eq!(v.str("schema"), Some("FVI-Match-Large"));
        assert_eq!(v.num("elements"), Some(4096.0));
        assert_eq!(v.num("kernel_us"), Some(7.25));
        assert_eq!(v.num("bandwidth_gbps"), Some(120.0));
        assert_eq!(v.bool("coalesced"), Some(false));
        assert_eq!(v.get("phases").and_then(|p| p.num("queue_us")), Some(3.0));
        assert_eq!(
            v.get("xs"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Str("a\"b".into())]))
        );
        assert!(parse_json(b"{\"a\":1} x").is_err());
    }

    #[test]
    fn shortest_float_text_round_trips() {
        let x = 123.456789012345_f64 / 7.0;
        assert_eq!(parse_json(format!("{x}").as_bytes()).unwrap(), Json::Num(x));
    }
}
