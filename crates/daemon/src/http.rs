//! The metrics snapshot endpoint: plain HTTP/1.0 over
//! `std::net::TcpListener`, zero dependencies.
//!
//! The server thread is deliberately dumb: it never touches the daemon,
//! the metrics registry, or the telemetry handle (an `Obs` is not `Send`
//! precisely because a second thread would race the event sequence).
//! Instead, the daemon loop renders a JSON
//! snapshot after every epoch into a [`SnapshotCell`] — an
//! `Arc<Mutex<String>>` — and the server thread serves whatever string
//! is current. The hot path stays single-threaded and deterministic; the
//! endpoint is read-only by construction.
//!
//! Routes:
//!
//! * `GET /metrics` — the current snapshot (`application/json`).
//! * `GET /healthz` — `ok` once the daemon has rendered its first
//!   snapshot (it does so before opening the listener).
//! * anything else — `404`.
//!
//! Responses are `HTTP/1.0` with `Content-Length` and
//! `Connection: close`; any HTTP client (curl, a scraper) can poll it.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the endpoint is a second thread by design and read-only by construction: it sees one rendered String behind a lock and a stop flag, and nothing it touches feeds back into the schedule"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the request bytes read before answering (headers only).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// The shared snapshot string: the daemon writes, the server reads.
#[derive(Debug, Clone, Default)]
pub struct SnapshotCell {
    inner: Arc<Mutex<String>>,
}

impl SnapshotCell {
    /// An empty cell.
    pub fn new() -> SnapshotCell {
        SnapshotCell::default()
    }

    /// Replaces the snapshot.
    pub fn set(&self, snapshot: String) {
        *self.inner.lock().unwrap_or_else(|p| p.into_inner()) = snapshot;
    }

    /// The current snapshot (empty string before the first render).
    pub fn get(&self) -> String {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// A running metrics endpoint; shuts down when dropped.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn start(addr: &str, cell: SnapshotCell) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => serve_one(stream, &cell),
                    Err(_) => break,
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (reports the real port after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks; a self-connection wakes it so it can
        // observe the stop flag and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Handles one connection: read the request head, route, respond, close.
fn serve_one(mut stream: TcpStream, cell: &SnapshotCell) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut request = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                request.extend_from_slice(&chunk[..n]);
                if request.windows(4).any(|w| w == b"\r\n\r\n")
                    || request.len() >= MAX_REQUEST_BYTES
                {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&request);
    let path = head
        .lines()
        .next()
        .and_then(|line| {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(path)) => Some(path.to_string()),
                _ => None,
            }
        })
        .unwrap_or_default();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => ("200 OK", "application/json", cell.get()),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "" => ("400 Bad Request", "text/plain", "bad request\n".to_string()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        let mut line = String::new();
        // Skip the remaining headers.
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
        }
        reader.read_to_string(&mut body).unwrap();
        (status.trim().to_string(), body)
    }

    #[test]
    fn serves_snapshot_health_and_404() {
        let cell = SnapshotCell::new();
        cell.set("{\"counters\":{}}".to_string());
        let server = MetricsServer::start("127.0.0.1:0", cell.clone()).unwrap();
        let addr = server.addr();
        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"counters\":{}}");
        // The endpoint serves the *current* snapshot, not a copy at bind.
        cell.set("{\"counters\":{\"daemon.epochs\":1}}".to_string());
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("daemon.epochs"), "{body}");
        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");
        drop(server); // joins the accept thread
    }
}
