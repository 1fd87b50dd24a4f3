//! A blocking NDJSON client for `m3d_serve`, and the server-side
//! counters the benchmark reads back through the `metrics` admin case.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use m3d_serve::{Request, Response};
use serde::Value;

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads its response line.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        Response::parse(reply.trim_end())
    }
}

/// The server counters and histograms one `metrics` scrape returns.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Vec<u64>, Vec<u64>)>,
}

impl ServerMetrics {
    /// Scrapes on a fresh connection, so the per-connection scrape rate
    /// limit never applies.
    pub fn scrape(addr: SocketAddr) -> Result<Self, String> {
        let resp = Client::connect(addr)?.call(&Request::new(0, "metrics", Value::Null))?;
        let Response::Ok { result, .. } = resp else {
            return Err(format!("metrics scrape refused: {}", resp.to_line()));
        };
        let counters = result
            .get("counters")
            .and_then(Value::as_object)
            .ok_or("metrics: no counters")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
            .collect();
        let u64s = |v: Option<&Value>| -> Vec<u64> {
            v.and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default()
        };
        let hists = result
            .get("histograms")
            .and_then(Value::as_object)
            .ok_or("metrics: no histograms")?
            .iter()
            .map(|(k, h)| (k.clone(), u64s(h.get("edges")), u64s(h.get("counts"))))
            .collect();
        Ok(Self { counters, hists })
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    fn hist(&self, name: &str) -> (Vec<u64>, Vec<u64>) {
        self.hists
            .iter()
            .find(|(k, _, _)| k == name)
            .map(|(_, e, c)| (e.clone(), c.clone()))
            .unwrap_or_default()
    }

    /// Bucket counts of `name` gained since `before`, with the edges.
    pub fn hist_delta(&self, before: &Self, name: &str) -> (Vec<u64>, Vec<u64>) {
        let (edges, after) = self.hist(name);
        let (_, prior) = before.hist(name);
        let counts = after
            .iter()
            .enumerate()
            .map(|(i, c)| c.saturating_sub(prior.get(i).copied().unwrap_or(0)))
            .collect();
        (edges, counts)
    }
}

/// Median of a bucketed histogram, interpolated linearly inside the
/// bucket that holds it (the server keeps buckets, not samples).
pub fn hist_median(edges: &[u64], counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= half {
            let lo = if i == 0 { 0.0 } else { edges[i - 1] as f64 };
            let hi = edges.get(i).map_or(lo * 2.0, |&e| e as f64);
            return lo + (hi - lo) * ((half - seen) / c);
        }
        seen += c;
    }
    edges.last().map_or(0.0, |&e| e as f64)
}

/// Upper edge of the highest non-empty bucket (the overflow bucket reads
/// as twice the last edge).
pub fn hist_max(edges: &[u64], counts: &[u64]) -> f64 {
    counts.iter().rposition(|&c| c > 0).map_or(0.0, |i| {
        edges.get(i).map_or_else(
            || 2.0 * edges.last().copied().unwrap_or(0) as f64,
            |&e| e as f64,
        )
    })
}
