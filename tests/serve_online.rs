//! End-to-end tests of the online serving stack: snapshot → TCP server →
//! concurrent clients, including incremental right-table appends.
//!
//! The two contracts pinned here:
//!
//! 1. **Append equivalence** — after any sequence of `Append` requests, the
//!    server's answers equal a from-scratch [`ServingState::from_program`]
//!    rebuild on the concatenated right table, at every thread count.  IDF
//!    token weights span both tables, so this catches any state the append
//!    path forgets to refresh.
//! 2. **Concurrent serving** — many client connections issuing interleaved
//!    single/batch joins against a multi-acceptor server all receive
//!    byte-identical answers, and the epoch/stats counters behave.

use autofj::core::AutoFjOptions;
use autofj::datagen::{benchmark_specs, BenchmarkScale};
use autofj::serve::{Client, Server, MAX_REQUEST_LINE};
use autofj::store::{ServeMatch, ServingState};
use autofj::text::JoinFunctionSpace;
use std::net::SocketAddr;
use std::sync::Mutex;

/// `build_global` mutates process-wide state and libtest runs the tests of
/// this binary concurrently; thread-count sweeps serialize on this lock.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn reset_pool() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("reset shim pool");
}

/// Run `f` against a live server for `state` and return its result.
///
/// The server is shut down even when `f` panics: acceptors block in
/// `accept()` until a `Shutdown` request arrives, and `std::thread::scope`
/// joins them during unwind — without this guard a failing assertion inside
/// `f` would deadlock the test instead of failing it.  `f` must therefore
/// NOT send `Shutdown` itself (the helper owns that), and must drop any
/// clients it opens before returning so the acceptors come back to
/// `accept()`.
fn with_server<R>(
    state: ServingState,
    accept_threads: usize,
    f: impl FnOnce(SocketAddr) -> R,
) -> R {
    let server = Server::bind("127.0.0.1:0", state).expect("bind");
    let addr = server.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(accept_threads));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        let shutdown = Client::connect(addr).and_then(|mut c| c.shutdown());
        run.join().expect("server scope");
        match result {
            Ok(r) => {
                shutdown.expect("shutdown");
                r
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// The small smoke task (ShoppingMall, ~143×80), shared with the `small`
/// and `serve` sections of `bench_smoke`.
fn small_task() -> (Vec<String>, Vec<String>, String) {
    let task = benchmark_specs(BenchmarkScale::Small)[36].generate();
    (task.left, task.right, task.name)
}

fn match_tuples(matches: &[Option<ServeMatch>]) -> Vec<(usize, usize, u64, u64, usize)> {
    matches
        .iter()
        .enumerate()
        .filter_map(|(r, m)| {
            m.map(|m| {
                (
                    r,
                    m.left,
                    m.distance.to_bits(),
                    m.precision.to_bits(),
                    m.config_index,
                )
            })
        })
        .collect()
}

/// Satellite contract: N appends over the wire, then the server must answer
/// exactly like a from-scratch rebuild on the concatenated right table —
/// checked at 1, 2 and 4 worker threads.
#[test]
fn appended_server_equals_from_scratch_rebuild_across_thread_counts() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (left, right, _) = small_task();
    let space = JoinFunctionSpace::reduced24();
    let options = AutoFjOptions::default();

    // Learn on a prefix; the remainder arrives online in three appends.
    let initial = &right[..right.len() / 2];
    let appends: Vec<&[String]> = vec![
        &right[right.len() / 2..right.len() / 2 + 10],
        &right[right.len() / 2 + 10..right.len() - 5],
        &right[right.len() - 5..],
    ];
    let (state, result) = ServingState::learn(&left, initial.to_vec().as_slice(), &space, &options);

    let served = with_server(state, 2, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut epochs = Vec::new();
        for chunk in &appends {
            let (_, epoch) = client.append(chunk).expect("append");
            epochs.push(epoch);
        }
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "epochs must advance: {epochs:?}"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.num_right, right.len());
        client.join_batch(&right).expect("join batch")
    });

    // Reference: rebuild from scratch on the concatenated table with the
    // same learned program.
    let rebuilt = ServingState::from_program(
        &left,
        &right,
        &result.program,
        &options,
        result.estimated_precision,
        result.estimated_recall,
    );
    for threads in [1usize, 2, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let expected = rebuilt.query_batch(&right);
        assert_eq!(
            match_tuples(&served),
            match_tuples(&expected),
            "served answers diverge from rebuild at {threads} threads"
        );
    }
    reset_pool();
}

/// Concurrent clients on a multi-acceptor server: every connection gets the
/// same byte-identical answers whether it asks record-by-record or in one
/// batch, and the query counter accounts for all of them.
#[test]
fn concurrent_clients_get_identical_answers() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (left, right, _) = small_task();
    let (state, _) = ServingState::learn(
        &left,
        &right,
        &JoinFunctionSpace::reduced24(),
        &AutoFjOptions::default(),
    );
    let expected = state.query_batch(&right);

    const CLIENTS: usize = 6;
    with_server(state, 4, |addr| {
        // Worker threads return their observations instead of asserting so a
        // mismatch is reported from the test thread, after every client has
        // disconnected.
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let expected = &expected;
                    let right = &right;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut bad = Vec::new();
                        if c % 2 == 0 {
                            // Record-by-record.
                            for (r, record) in right.iter().enumerate() {
                                let got = client.join(record).expect("join");
                                if got != expected[r] {
                                    bad.push(format!("client {c}, record {r}: {got:?}"));
                                }
                            }
                        } else {
                            let got = client.join_batch(right).expect("join batch");
                            if match_tuples(&got) != match_tuples(expected) {
                                bad.push(format!("client {c}: batch diverges"));
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        });
        assert!(mismatches.is_empty(), "divergent answers: {mismatches:?}");
        let mut client = Client::connect(addr).expect("connect");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.queries_served, (CLIENTS * right.len()) as u64);
        assert_eq!(stats.epoch, 1, "no appends happened");
    });
}

/// A garbage request line yields an `Error` response and the connection
/// stays usable; an appended-then-queried record answers exactly like the
/// in-memory append path.
#[test]
fn protocol_errors_do_not_poison_the_connection() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let left: Vec<String> = vec![
        "2007 LSU Tigers football team".into(),
        "2008 Wisconsin Badgers football team".into(),
    ];
    let right: Vec<String> = vec!["2007 LSU Tigers football".into()];
    let (state, _) = ServingState::learn(
        &left,
        &right,
        &JoinFunctionSpace::reduced24(),
        &AutoFjOptions::default(),
    );
    let appended = "2008 Wisconsin Badgers futball".to_string();
    // Reference for the post-append query: the same append applied in
    // memory.  Whether the record joins is the learned program's business;
    // the server must simply agree with it.
    let expected = {
        let mut reference = state.clone();
        reference.append_right(std::slice::from_ref(&appended));
        reference.query_batch(std::slice::from_ref(&appended))[0]
    };

    with_server(state, 1, |addr| {
        {
            use std::io::{BufRead, BufReader, Write};
            let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
            stream.write_all(b"this is not json\n").expect("write");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(line.contains("Error"), "got: {line}");
            // Same connection still serves real requests.
            stream
                .write_all(b"{\"Join\":{\"record\":\"2007 LSU Tigers football\"}}\n")
                .expect("write join");
            line.clear();
            reader.read_line(&mut line).expect("read join");
            assert!(line.contains("Join"), "got: {line}");
        }
        let mut client = Client::connect(addr).expect("connect");
        let (num_right, epoch) = client
            .append(std::slice::from_ref(&appended))
            .expect("append");
        assert_eq!((num_right, epoch), (2, 2));
        let matched = client.join(&appended).expect("join appended");
        assert_eq!(matched, expected);
    });
}

#[test]
fn deeply_nested_request_gets_an_error_not_a_crash() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let left: Vec<String> = vec![
        "2007 LSU Tigers football team".into(),
        "2008 Wisconsin Badgers football team".into(),
    ];
    let right: Vec<String> = vec!["2007 LSU Tigers football".into()];
    let (state, _) = ServingState::learn(
        &left,
        &right,
        &JoinFunctionSpace::reduced24(),
        &AutoFjOptions::default(),
    );
    let expected = state.query_batch(&right)[0];

    with_server(state, 1, |addr| {
        {
            use std::io::{BufRead, BufReader, Write};
            let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
            // Unbounded recursive parsing would overflow the acceptor's stack on
            // this line and abort the whole server.
            let mut hostile = "[".repeat(100_000);
            hostile.push('\n');
            stream.write_all(hostile.as_bytes()).expect("write");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert!(line.contains("Error"), "got: {line}");
            assert!(line.contains("recursion limit"), "got: {line}");
            // The same connection still answers a well-formed Join.
            stream
                .write_all(b"{\"Join\":{\"record\":\"2007 LSU Tigers football\"}}\n")
                .expect("write join");
            line.clear();
            reader.read_line(&mut line).expect("read join");
            assert!(line.contains("Join"), "got: {line}");
        }
        // One acceptor: the raw connection above is closed, so this one is served.
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.join(&right[0]).expect("join"), expected);
    });
}

/// A client that sends an over-long line without a newline gets an `Error`
/// and loses its connection once the line passes the cap; a concurrent
/// client is served correctly before, during and after.
#[test]
fn over_long_request_line_is_refused_while_another_client_is_served() {
    use std::io::{BufRead, BufReader, Write};
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let left: Vec<String> = vec![
        "2007 LSU Tigers football team".into(),
        "2008 Wisconsin Badgers football team".into(),
    ];
    let right: Vec<String> = vec!["2007 LSU Tigers football".into()];
    let (state, _) = ServingState::learn(
        &left,
        &right,
        &JoinFunctionSpace::reduced24(),
        &AutoFjOptions::default(),
    );
    let expected = state.query_batch(&right)[0];

    with_server(state, 2, |addr| {
        let mut hostile = std::net::TcpStream::connect(addr).expect("connect raw");
        // A server without the cap never answers: fail instead of hanging.
        hostile
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("read timeout");
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.join(&right[0]).expect("join"), expected);
        // Half the line, unterminated: the server is still reading it.
        let half = vec![b'x'; MAX_REQUEST_LINE / 2];
        hostile.write_all(&half).expect("write first half");
        assert_eq!(client.join(&right[0]).expect("join"), expected);
        // One byte past the cap: refused, then the connection is closed.
        hostile.write_all(&half).expect("write second half");
        hostile.write_all(b"x").expect("write past the cap");
        let mut reader = BufReader::new(hostile);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read refusal");
        assert!(line.contains("Error"), "got: {line}");
        assert!(line.contains("exceeds"), "got: {line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("read close"), 0);
        assert_eq!(client.join(&right[0]).expect("join"), expected);
    });
}
