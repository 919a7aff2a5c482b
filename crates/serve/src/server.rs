//! The long-lived multi-threaded join server.
//!
//! The server loads (or is handed) one [`ServingState`] and answers
//! newline-delimited JSON requests over TCP.  Concurrency model:
//!
//! * **Accept loops, thread per core.**  [`Server::run`] spawns `n` acceptor
//!   threads under [`std::thread::scope`], each blocking on its own clone of
//!   the listener; a connection is served to completion on the thread that
//!   accepted it, so `n` connections are served concurrently with zero
//!   cross-thread handoff.
//! * **Epoch-swapped read views.**  The state lives behind
//!   `RwLock<Arc<ServingState>>`.  Queries clone the `Arc` under the read
//!   lock (nanoseconds) and then run lock-free against an immutable view.
//!   Appends build the successor state *outside* the write lock (clone +
//!   [`ServingState::append_right`], which re-derives only the IDF-weighted
//!   ball rows; a separate writer mutex serializes concurrent appends), then
//!   swap it in under a brief write lock and bump the epoch.  In-flight
//!   queries keep their old view; new requests see the new one.
//! * **Retirement off the read path.**  A replaced state is not dropped by
//!   the swap: the writer keeps it in its mutex-guarded retired list and
//!   frees it at a later `Append` once no reader holds it any more
//!   (`Arc::strong_count == 1`; a retired state is unreachable from the
//!   lock, so the count only falls).  Neither the state write lock nor a
//!   reader dropping the last view of an old epoch ever pays for freeing a
//!   whole state.
//! * **Bounded request lines.**  A connection reads at most
//!   [`MAX_REQUEST_LINE`] bytes per line; a longer line gets an `Error` and
//!   the connection is closed.
//! * **Shutdown.**  A `Shutdown` request flips an atomic flag and pokes
//!   every acceptor with a throwaway connection so blocked `accept()` calls
//!   return and the scope joins.

use crate::protocol::{Request, Response, ServerStats};
use autofj_store::{QueryScratch, ServingState};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Shared server state: the swappable view plus counters.
struct Shared {
    state: RwLock<Arc<ServingState>>,
    /// Serializes append state-building and holds the replaced states until
    /// their last reader has left; taken before the `RwLock` write guard,
    /// which is only held for the swap itself.
    writer: Mutex<Vec<Arc<ServingState>>>,
    epoch: AtomicU64,
    queries: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(state: ServingState) -> Self {
        Self {
            state: RwLock::new(Arc::new(state)),
            writer: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(1),
            queries: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    fn view(&self) -> Arc<ServingState> {
        self.state.read().expect("state lock poisoned").clone()
    }

    fn stats(&self) -> ServerStats {
        let view = self.view();
        ServerStats {
            epoch: self.epoch.load(Ordering::SeqCst),
            num_left: view.num_left(),
            num_right: view.num_right(),
            num_configs: view.configs().len(),
            queries_served: self.queries.load(Ordering::SeqCst),
        }
    }
}

/// A bound join server, ready to [`run`](Self::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) serving
    /// `state`.
    pub fn bind<A: ToSocketAddrs>(addr: A, state: ServingState) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared::new(state)),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Current server statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Serve until a `Shutdown` request arrives, with `accept_threads`
    /// concurrent accept-and-serve loops.
    ///
    /// # Panics
    /// Panics if `accept_threads` is zero.
    pub fn run(&self, accept_threads: usize) {
        assert!(accept_threads > 0, "need at least one accept thread");
        let addr = self.local_addr().expect("listener has a local address");
        std::thread::scope(|scope| {
            for _ in 0..accept_threads {
                let listener = self.listener.try_clone().expect("listener clone");
                let shared = Arc::clone(&self.shared);
                scope.spawn(move || accept_loop(&listener, &shared));
            }
            // The scope joins the acceptors; each exits once the shutdown
            // flag is up and its accept() returned (woken below).
            scope.spawn(move || {
                let shared = Arc::clone(&self.shared);
                wait_for_shutdown(&shared, addr, accept_threads);
            });
        });
    }
}

/// Park until the shutdown flag flips, then wake every acceptor with a
/// throwaway connection.
fn wait_for_shutdown(shared: &Shared, addr: SocketAddr, acceptors: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::park_timeout(std::time::Duration::from_millis(25));
    }
    for _ in 0..acceptors {
        // An accepted-then-dropped connection unblocks one accept() call.
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Served to completion on this thread; errors only end this
                // connection.
                let _ = serve_connection(stream, shared);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// The longest request line the server reads, in bytes, newline excluded.
/// A `JoinBatch` of the whole 10 500-record medium smoke right table
/// (`TeamSeasonMedium`) is 411 847 bytes, so the cap leaves a 40× margin.
/// A longer line is answered with [`Response::Error`] and its connection
/// closed, so a client that never sends a newline cannot grow the server's
/// read buffer without bound.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// Serve one connection: read request lines, answer each in order.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // The scratch shape (reference count, function slots) is frozen at learn
    // time, so one scratch serves every epoch this connection sees.
    let mut scratch = QueryScratch::for_state(&shared.view());
    let mut line = Vec::new();
    loop {
        line.clear();
        // Reading one byte past the cap tells an over-long line from one
        // that fits exactly.
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        let over_cap = line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n');
        let response = if over_cap {
            Response::Error {
                message: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            }
        } else {
            let text = std::str::from_utf8(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if text.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Request>(text) {
                Ok(request) => handle_request(request, shared, &mut scratch),
                Err(e) => Response::Error {
                    message: format!("unparseable request: {e}"),
                },
            }
        };
        let mut out = serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"Error\":{{\"message\":\"encode: {e}\"}}}}"));
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        if over_cap {
            return Ok(());
        }
        if matches!(response, Response::Shutdown { .. }) {
            shared.shutdown.store(true, Ordering::SeqCst);
            return Ok(());
        }
    }
}

fn handle_request(request: Request, shared: &Shared, scratch: &mut QueryScratch) -> Response {
    match request {
        Request::Join { record } => {
            let view = shared.view();
            let matched = view.query(&record, scratch);
            shared.queries.fetch_add(1, Ordering::SeqCst);
            Response::Join { matched }
        }
        Request::JoinBatch { records } => {
            let view = shared.view();
            let matches = view.query_batch(&records);
            shared
                .queries
                .fetch_add(records.len() as u64, Ordering::SeqCst);
            Response::JoinBatch { matches }
        }
        Request::Append { records } => {
            // Build the successor state outside the RwLock: readers keep
            // serving the old view for the whole build.
            let mut retired = shared.writer.lock().expect("writer lock poisoned");
            // Free the replaced states no reader holds any more, here on the
            // writer rather than on a reader or under the state lock.
            retired.retain(|old| Arc::strong_count(old) > 1);
            let mut next = (*shared.view()).clone();
            next.append_right(&records);
            let num_right = next.num_right();
            let old = std::mem::replace(
                &mut *shared.state.write().expect("state lock poisoned"),
                Arc::new(next),
            );
            retired.push(old);
            let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            Response::Append { num_right, epoch }
        }
        Request::Stats => Response::Stats {
            stats: shared.stats(),
        },
        Request::Shutdown => Response::Shutdown { ok: true },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofj_core::AutoFjOptions;
    use autofj_text::JoinFunctionSpace;

    fn append(shared: &Shared, scratch: &mut QueryScratch, record: &str) {
        let request = Request::Append {
            records: vec![record.to_string()],
        };
        assert!(matches!(
            handle_request(request, shared, scratch),
            Response::Append { .. }
        ));
    }

    #[test]
    fn replaced_state_is_freed_by_the_writer_not_the_reader() {
        let left: Vec<String> = ["2005 LSU Tigers football team", "2006 Oregon Ducks team"]
            .map(String::from)
            .to_vec();
        let right = vec!["2005 LSU Tigers football".to_string()];
        let (state, _) = ServingState::learn(
            &left,
            &right,
            &JoinFunctionSpace::reduced24(),
            &AutoFjOptions::default(),
        );
        let shared = Shared::new(state);
        let mut scratch = QueryScratch::for_state(&shared.view());

        // A reader holds the first epoch's view across two appends.
        let held = shared.view();
        let first = Arc::downgrade(&held);
        append(&shared, &mut scratch, "2006 Oregon Ducks");
        append(&shared, &mut scratch, "2005 LSU Tigers");
        assert_eq!(held.num_right(), 1, "the held view is the old epoch");
        assert!(first.upgrade().is_some());

        // The reader's drop is not the last reference: the writer still
        // holds the replaced state, so freeing it never lands on a reader.
        drop(held);
        assert!(
            first.upgrade().is_some(),
            "the reader freed the replaced state"
        );

        // The next append finds it unheld and releases it on the writer.
        append(&shared, &mut scratch, "2006 Oregon Ducks football");
        assert!(first.upgrade().is_none(), "the writer kept an unheld state");
        assert_eq!(shared.view().num_right(), 4);
    }
}
