//! A concurrent socket front-end for the sharded serving tier.
//!
//! Speaks the same one-JSON-object-per-line protocol as `relgraph serve`'s
//! stdin mode, framed over TCP or a Unix domain socket. Each accepted
//! connection gets its own handler thread, and that thread scores its
//! own requests through [`ShardedEngine::predict_batch_keys`]: it locks
//! the cache slice a request routes to, scores inline, and writes the
//! response. Concurrent connections meet only at a slice lock, and a
//! request arriving after another connection computed the same
//! neighborhood hits the embeddings that computation cached.
//!
//! Responses on one connection are written in request order (the handler
//! is synchronous per line), so clients may pipeline without reordering
//! logic; the `id` echo still makes cross-checking trivial. A request
//! line longer than [`MAX_LINE_BYTES`] gets one error response and the
//! connection is closed, so a client that never sends a newline cannot
//! grow the handler's memory. A line that is not valid UTF-8 gets one
//! error response and the connection keeps serving.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use relgraph_obs as obs;

use crate::error::{ServeError, ServeResult};
use crate::protocol::{parse_request, recover_id, response_err, response_ok, NOT_UTF8};
use crate::sharded::ShardedEngine;

/// Longest request line a socket connection may send, newline excluded.
/// Real requests are under 100 bytes.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A bound listening socket, not yet serving.
pub enum ServerListener {
    /// A TCP listener (address contained a `:`).
    Tcp(TcpListener),
    /// A Unix domain socket; the path is unlinked when serving stops.
    Unix(UnixListener, PathBuf),
}

/// Bind `addr`: anything containing `:` is a TCP `host:port` (port `0`
/// picks a free one), anything else is a Unix socket path. A stale
/// socket at that path is replaced; any other file there is an error and
/// is left untouched.
pub fn bind(addr: &str) -> ServeResult<ServerListener> {
    if addr.contains(':') {
        let l = TcpListener::bind(addr)
            .map_err(|e| ServeError::Engine(format!("cannot bind tcp `{addr}`: {e}")))?;
        Ok(ServerListener::Tcp(l))
    } else {
        let path = PathBuf::from(addr);
        if let Ok(meta) = std::fs::symlink_metadata(&path) {
            if !meta.file_type().is_socket() {
                return Err(ServeError::Engine(format!(
                    "cannot bind unix `{addr}`: the path exists and is not a socket"
                )));
            }
            let _ = std::fs::remove_file(&path);
        }
        let l = UnixListener::bind(&path)
            .map_err(|e| ServeError::Engine(format!("cannot bind unix `{addr}`: {e}")))?;
        Ok(ServerListener::Unix(l, path))
    }
}

impl ServerListener {
    /// The bound address, printable (resolves TCP port `0`).
    pub fn local_addr(&self) -> String {
        match self {
            ServerListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
            ServerListener::Unix(_, p) => p.display().to_string(),
        }
    }

    /// Accept and serve connections until `stop` goes true, then drain:
    /// already-accepted connections run to EOF before this returns. Each
    /// connection is one scoped thread reading JSONL requests and writing
    /// one response line per request, in order.
    pub fn run(self, engine: &ShardedEngine, stop: &AtomicBool) -> ServeResult<()> {
        match &self {
            ServerListener::Tcp(l) => l.set_nonblocking(true),
            ServerListener::Unix(l, _) => l.set_nonblocking(true),
        }
        .map_err(|e| ServeError::Engine(format!("cannot set nonblocking: {e}")))?;
        std::thread::scope(|scope| {
            while !stop.load(Ordering::Relaxed) {
                let stream: Option<Box<dyn ReadWriteStream>> = match &self {
                    ServerListener::Tcp(l) => match l.accept() {
                        Ok((s, _)) => Some(Box::new(s)),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                        Err(_) => None,
                    },
                    ServerListener::Unix(l, _) => match l.accept() {
                        Ok((s, _)) => Some(Box::new(s)),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                        Err(_) => None,
                    },
                };
                match stream {
                    Some(s) => {
                        if obs::enabled() {
                            obs::add("serve.connections", 1);
                        }
                        scope.spawn(move || handle_connection(engine, s));
                    }
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        if let ServerListener::Unix(_, path) = &self {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Object-safe duplex stream so TCP and Unix connections share a handler.
trait ReadWriteStream: std::io::Read + std::io::Write + Send {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>>;
}

impl ReadWriteStream for std::net::TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl ReadWriteStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Box<dyn ReadWriteStream>> {
        Ok(Box::new(self.try_clone()?))
    }
}

fn handle_connection(engine: &ShardedEngine, stream: Box<dyn ReadWriteStream>) {
    let Ok(write_half) = stream.try_clone_stream() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the cap tells an over-long line from one that fits.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() != Some(&b'\n') && buf.len() > MAX_LINE_BYTES {
            let _ = write_line(&mut writer, &response_err(None, "request line too long"));
            break;
        }
        let response = match std::str::from_utf8(&buf) {
            Ok(line) => {
                let line = line.strip_suffix('\n').unwrap_or(line);
                let line = line.strip_suffix('\r').unwrap_or(line);
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(engine, line)
            }
            Err(_) => response_err(None, NOT_UTF8),
        };
        if write_line(&mut writer, &response).is_err() {
            break; // client hung up mid-response
        }
    }
}

fn write_line(writer: &mut impl Write, response: &str) -> std::io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// One protocol line → one response line (no trailing newline): parse,
/// score through the sharded tier, and on a parse failure still recover
/// the caller's id when it is legible. The socket handlers call this once
/// per line. The stdin front-end of `relgraph serve` does not: it runs its
/// own [`MicroBatcher`](crate::MicroBatcher) loop and scores each batch
/// with one [`ShardedEngine::predict_batch_keys`] call. What the two
/// share is the [`protocol`](crate::protocol) functions (parse,
/// response serialization, id recovery) and the engine's scoring, so the
/// wire format and the served values agree; batching and queueing differ.
pub fn handle_line(engine: &ShardedEngine, line: &str) -> String {
    match parse_request(line) {
        Ok(req) => {
            let mut results = engine.predict_batch_keys(std::slice::from_ref(&req.entity));
            match results.pop().expect("one result per key") {
                Ok(p) => response_ok(req.id, p),
                Err(e) => response_err(Some(req.id), &e.to_string()),
            }
        }
        Err(e) => response_err(recover_id(line), &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("relgraph-server-{}-{name}", std::process::id()))
    }

    #[test]
    fn binding_over_a_regular_file_fails_and_keeps_its_bytes() {
        let path = scratch_path("regular");
        std::fs::write(&path, b"precious bytes").unwrap();
        let err = bind(path.to_str().unwrap()).err().expect("must refuse");
        assert!(err.to_string().contains("not a socket"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"precious bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn binding_over_a_stale_socket_replaces_it() {
        let path = scratch_path("stale");
        let addr = path.to_str().unwrap();
        // Dropped without `run`, so the socket file stays behind.
        drop(bind(addr).unwrap());
        assert!(path.exists());
        drop(bind(addr).expect("a stale socket is replaced"));
        std::fs::remove_file(&path).unwrap();
    }
}
