//! A minimal HTTP/1.1 keep-alive client and a `/v1/metrics` reader.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a request may take before it counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One persistent connection.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    /// The server answered `Connection: close` (it caps requests per
    /// connection): the next request opens a new connection.
    closed: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            reader: BufReader::new(stream),
            closed: false,
        })
    }

    /// Sends one request and reads the Content-Length-framed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if self.closed {
            *self = Conn::connect(self.addr)?;
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed inside headers".to_owned()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    self.closed = true;
                }
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Maps an I/O error to a message naming what failed.
pub fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// One `/v1/metrics` scrape: series (name plus labels) to value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn fetch(addr: SocketAddr) -> std::io::Result<Scrape> {
        let (status, body) = Conn::connect(addr)?.request("GET", "/v1/metrics", b"")?;
        if status != 200 {
            return Err(bad(format!("/v1/metrics answered {status}")));
        }
        Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before`, series by series: a phase's own counts.
    pub fn delta(&self, before: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Adds another delta, series by series.
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// Mean of a histogram family (`_sum` over `_count`), `0.0` if empty.
    pub fn hist_mean(&self, name: &str, labels: &str) -> f64 {
        let count = self.get(&format!("{name}_count{labels}"));
        if count == 0.0 {
            return 0.0;
        }
        self.get(&format!("{name}_sum{labels}")) / count
    }

    /// Median of a histogram family, read as the upper bound of the
    /// bucket holding the middle observation (the server keeps only
    /// bucket counts), or `0.0` if empty.
    pub fn hist_p50(&self, name: &str) -> f64 {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, *v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total == 0.0 {
            return 0.0;
        }
        buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= total / 2.0)
            .map_or(0.0, |b| b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE pigeon_queue_rejected_total counter\n\
        pigeon_queue_rejected_total 2\n\
        pigeon_queue_wait_micros_bucket{le=\"500\"} 10\n\
        pigeon_queue_wait_micros_bucket{le=\"2500\"} 10\n\
        pigeon_queue_wait_micros_bucket{le=\"+Inf\"} 10\n\
        pigeon_queue_wait_micros_sum 1000\n\
        pigeon_queue_wait_micros_count 10\n";
    const AFTER: &str = "pigeon_queue_rejected_total 2\n\
        pigeon_queue_wait_micros_bucket{le=\"500\"} 12\n\
        pigeon_queue_wait_micros_bucket{le=\"2500\"} 20\n\
        pigeon_queue_wait_micros_bucket{le=\"+Inf\"} 20\n\
        pigeon_queue_wait_micros_sum 21000\n\
        pigeon_queue_wait_micros_count 20\n";

    #[test]
    fn deltas_isolate_one_phase() {
        let d = Scrape::parse(AFTER).delta(&Scrape::parse(BEFORE));
        assert_eq!(d.get("pigeon_queue_rejected_total"), 0.0);
        assert_eq!(d.hist_mean("pigeon_queue_wait_micros", ""), 2000.0);
        // 2 of the phase's 10 waits were under 500 µs, 8 under 2.5 ms.
        assert_eq!(d.hist_p50("pigeon_queue_wait_micros"), 2500.0);
        assert_eq!(Scrape::default().hist_p50("pigeon_queue_wait_micros"), 0.0);
        let mut total = Scrape::default();
        total.add(&d);
        total.add(&d);
        assert_eq!(total.get("pigeon_queue_wait_micros_count"), 20.0);
        assert_eq!(total.hist_p50("pigeon_queue_wait_micros"), 2500.0);
    }
}
