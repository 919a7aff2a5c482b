//! The `serve` section: snapshot persistence and the online query server.
//!
//! Learns a join program on the small smoke task (ShoppingMall, ~143×80),
//! freezes it into an [`autofj_store::ServingState`], then measures:
//!
//! 1. **Snapshot round trip** — `save` and `load` wall-clock plus the file
//!    size; the loaded state must answer every stored right record
//!    byte-identically to the batch pipeline's `JoinResult` (the
//!    `identical_results` quality flag, gated against the baseline).
//! 2. **Online serving** — an in-process TCP [`autofj_serve::Server`] over
//!    the loaded snapshot, driven by 1 and [`MULTI_THREADS`] concurrent
//!    client connections issuing single-record `Join` requests.  Each leg
//!    records throughput and p50/p99 latency (informational; only the
//!    answers are gated).  A `JoinBatch` request must return exactly the
//!    per-record answers.

use autofj_bench::runner::autofj_options;
use autofj_bench::smoke::{ServeBench, ServeRun, MULTI_THREADS};
use autofj_bench::Reporter;
use autofj_core::JoinResult;
use autofj_datagen::{benchmark_specs, BenchmarkScale};
use autofj_serve::{Client, Server};
use autofj_store::{ServeMatch, ServingState};
use autofj_text::JoinFunctionSpace;
use std::time::Instant;

/// Joined pairs as `(right, left, distance bits, precision bits, ordinal)`
/// tuples — the exact-comparison form shared with the store crate's tests.
fn result_tuples(result: &JoinResult) -> Vec<(usize, usize, u64, u64, usize)> {
    result
        .pairs
        .iter()
        .map(|p| {
            (
                p.right,
                p.left,
                p.distance.to_bits(),
                p.estimated_precision.to_bits(),
                p.config_index,
            )
        })
        .collect()
}

fn matches_tuples(matches: &[Option<ServeMatch>]) -> Vec<(usize, usize, u64, u64, usize)> {
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

/// Run `work` while `server` serves on `accept_threads` acceptors, then shut
/// the server down — even if `work` panics.  Acceptors block in `accept()`
/// until a `Shutdown` request arrives and the scope joins them on unwind, so
/// without this guard a failed `expect` inside `work` would hang the bench
/// instead of failing it.
fn with_running_server<R>(
    server: &Server,
    addr: std::net::SocketAddr,
    accept_threads: usize,
    work: impl FnOnce() -> R,
) -> R {
    std::thread::scope(|scope| {
        let run = scope.spawn(|| server.run(accept_threads));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
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

/// Drive `clients` concurrent connections, each issuing `per_client` single
/// `Join` requests round-robin over `records`, against a server running
/// `clients` accept threads.  Returns the leg measurement.
fn client_leg(state: &ServingState, records: &[String], clients: usize) -> ServeRun {
    let server = Server::bind("127.0.0.1:0", state.clone()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let per_client = (2000usize).div_ceil(clients);
    let start = Instant::now();
    let mut latencies: Vec<f64> = with_running_server(&server, addr, clients, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut lat = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let record = &records[(c + i * clients) % records.len()];
                            let t = Instant::now();
                            let _ = client.join(record).expect("join request");
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                        lat
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect()
        })
    });
    let seconds = start.elapsed().as_secs_f64();
    latencies.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).max(1) - 1;
        latencies[idx.min(latencies.len() - 1)]
    };
    let requests = latencies.len();
    ServeRun {
        client_threads: clients,
        requests,
        seconds,
        throughput_rps: if seconds > 0.0 {
            requests as f64 / seconds
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// Measure the `serve` section and print its table.
pub fn measure() -> ServeBench {
    let space = JoinFunctionSpace::reduced24();
    let options = autofj_options();

    // Index 36 is ShoppingMall — the same task as the `small` section.
    let task = benchmark_specs(BenchmarkScale::Small)[36].generate();
    eprintln!(
        "bench-smoke: serve: learning {} ({}x{})...",
        task.name,
        task.left.len(),
        task.right.len()
    );
    let (state, result) = ServingState::learn(&task.left, &task.right, &space, &options);

    let snap_path =
        std::env::temp_dir().join(format!("bench_smoke_serve_{}.afj", std::process::id()));
    let t = Instant::now();
    state.save(&snap_path).expect("save snapshot");
    let save_seconds = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);

    let t = Instant::now();
    let loaded = ServingState::load(&snap_path).expect("load snapshot");
    let load_seconds = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snap_path);

    // Quality: the loaded snapshot must replay the batch result exactly,
    // and a batch request must equal the per-record answers.
    let replayed = loaded.join_all();
    let batch_equals_result = matches_tuples(&replayed) == result_tuples(&result);
    let server_batch = {
        let server = Server::bind("127.0.0.1:0", loaded.clone()).expect("bind");
        let addr = server.local_addr().expect("local addr");
        with_running_server(&server, addr, 1, || {
            let mut client = Client::connect(addr).expect("connect");
            client.join_batch(&task.right).expect("join batch")
        })
    };
    let batch_request_identical = matches_tuples(&server_batch) == matches_tuples(&replayed);
    let identical_results = batch_equals_result && batch_request_identical;

    let mut runs = Vec::new();
    for clients in [1, MULTI_THREADS] {
        eprintln!("bench-smoke: serve: {clients} client connection(s)...");
        runs.push(client_leg(&loaded, &task.right, clients));
    }

    let serve = ServeBench {
        task: task.name.clone(),
        size: (task.left.len(), task.right.len()),
        snapshot_bytes,
        save_seconds,
        load_seconds,
        joined: result.num_joined(),
        identical_results,
        runs,
    };

    let mut table = Reporter::new(
        "bench-smoke: serve: online joins over a loaded snapshot",
        &[
            "Clients", "Requests", "Seconds", "Req/s", "p50 ms", "p99 ms",
        ],
    );
    for r in &serve.runs {
        table.add_row(vec![
            r.client_threads.to_string(),
            r.requests.to_string(),
            format!("{:.3}", r.seconds),
            format!("{:.0}", r.throughput_rps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
        ]);
    }
    table.print();
    println!(
        "snapshot: {} bytes, save {:.3}s, load {:.3}s; joined {}, identical to batch: {}",
        serve.snapshot_bytes,
        serve.save_seconds,
        serve.load_seconds,
        serve.joined,
        serve.identical_results
    );

    serve
}
