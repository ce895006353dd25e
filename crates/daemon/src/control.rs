//! The Unix-domain control socket: line-delimited JSON requests in,
//! line-delimited JSON replies out (see [`crate::protocol`]).
//!
//! The accept loop runs nonblocking with a short poll so it can notice
//! the engine's shutdown flag; each accepted connection gets its own
//! thread. A connection thread reads with a timeout for the same reason
//! — after shutdown it lingers briefly (still answering, which is what
//! makes double-`shutdown` on one connection idempotent) and then hangs
//! up.

use crate::protocol;
use crate::service::ServiceEngine;
use metronome_telemetry::Json;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accept-loop poll period (shutdown latency bound).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-read timeout on connections (shutdown check cadence).
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How long an idle connection keeps being served after shutdown.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(1);

/// Longest request line accepted, newline excluded. Every valid request
/// is far shorter; the cap bounds what a client that never sends a
/// newline can make a connection buffer.
pub const MAX_LINE: usize = 64 * 1024;

/// The control-socket server: owns the listening socket and its accept
/// thread; removes the socket file when the accept loop exits.
pub struct ControlServer {
    path: PathBuf,
    accept: std::thread::JoinHandle<()>,
}

impl ControlServer {
    /// Bind `path` (replacing any stale socket file) and start serving
    /// `engine`. The accept loop exits once the engine reports shutdown.
    pub fn start(path: &Path, engine: Arc<ServiceEngine>) -> std::io::Result<ControlServer> {
        // A daemon that crashed leaves its socket file behind; binding
        // over it is the expected restart behavior.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let sock_path = path.to_path_buf();
        let accept = std::thread::Builder::new()
            .name("metronomed-accept".into())
            .spawn(move || {
                loop {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            let engine = Arc::clone(&engine);
                            let _ = std::thread::Builder::new()
                                .name("metronomed-conn".into())
                                .spawn(move || serve_connection(stream, &engine));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if engine.is_shutdown() {
                                break;
                            }
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
                }
                let _ = std::fs::remove_file(&sock_path);
            })
            .expect("spawn control accept thread");
        Ok(ControlServer {
            path: path.to_path_buf(),
            accept,
        })
    }

    /// The socket path being served.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Block until the accept loop exits (i.e. until shutdown).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Serve one connection until EOF, error, or post-shutdown linger
/// expiry. One request line → one reply line, always — malformed input
/// gets a typed error reply and the connection (and daemon) stay up.
/// That covers a line that is not UTF-8 and one longer than
/// [`MAX_LINE`]: the latter is answered as soon as it overflows, and the
/// rest of it, through the next newline, is discarded unbuffered.
fn serve_connection(stream: UnixStream, engine: &ServiceEngine) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // The request line so far. It survives read timeouts: bytes of a
    // line that arrive in pieces are consumed as they come.
    let mut line: Vec<u8> = Vec::new();
    // Inside an overlong line that was already answered.
    let mut discarding = false;
    let mut shutdown_seen: Option<Instant> = None;
    loop {
        let (reply, used, eof) = match reader.fill_buf() {
            Ok([]) if discarding => (None, 0, true),
            // A last line without a newline is still a request.
            Ok([]) => (request_reply(&line, engine), 0, true),
            Ok(buf) => {
                let newline = buf.iter().position(|&b| b == b'\n');
                let chunk = &buf[..newline.unwrap_or(buf.len())];
                let mut reply = None;
                if discarding {
                    discarding = newline.is_none();
                } else if line.len() + chunk.len() > MAX_LINE {
                    line.clear();
                    discarding = newline.is_none();
                    reply = Some(protocol::err(format!(
                        "request line longer than {MAX_LINE} bytes"
                    )));
                } else {
                    line.extend_from_slice(chunk);
                    if newline.is_some() {
                        reply = request_reply(&line, engine);
                        line.clear();
                    }
                }
                (reply, chunk.len() + newline.map_or(0, |_| 1), false)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if engine.is_shutdown() {
                    let seen = *shutdown_seen.get_or_insert_with(Instant::now);
                    if seen.elapsed() > SHUTDOWN_LINGER {
                        break;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        reader.consume(used);
        if let Some(reply) = reply {
            if writer.write_all(reply.render().as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
                || writer.flush().is_err()
            {
                break;
            }
        }
        if eof {
            break;
        }
    }
}

/// The reply to one complete request line (newline stripped); `None`
/// for a blank line.
fn request_reply(line: &[u8], engine: &ServiceEngine) -> Option<Json> {
    let Ok(text) = std::str::from_utf8(line) else {
        return Some(protocol::err("request line is not valid UTF-8"));
    };
    let text = text.trim();
    (!text.is_empty()).then(|| engine.dispatch(text))
}
