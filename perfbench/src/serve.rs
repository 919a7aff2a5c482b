//! The serve path: learn → freeze → save → load → bind, then a closed loop
//! of client connections against the in-process TCP server.

use crate::layers::Layers;
use crate::learn::{
    generate, guarded, meets_target, options, quality, record_layers, result_key, traced_learn,
    traced_matches, Inputs, PairKey, Shape,
};
use crate::stats::{median, percentile, Clocks, Metric};
use crate::trace::Tracer;
use crate::{Outcome, CLIENTS};
use autofj_core::{
    join_single_column, join_single_column_with_artifacts, AutoFjOptions, JoinResult,
};
use autofj_serve::{Client, Server, ServerStats};
use autofj_store::{QueryScratch, ServeMatch, ServingState};
use autofj_text::JoinFunctionSpace;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Held-out records carried by each `Append` request.
const APPEND_BATCH: usize = 8;
/// Full set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A request slower than this counts as failed (timed out).
const REQUEST_TIMEOUT_MS: f64 = 10_000.0;

fn match_key(r: usize, m: &Option<ServeMatch>) -> Option<PairKey> {
    m.map(|m| {
        (
            r,
            m.left,
            m.distance.to_bits(),
            m.precision.to_bits(),
            m.config_index,
        )
    })
}

fn matches_key(matches: &[Option<ServeMatch>]) -> Vec<PairKey> {
    matches
        .iter()
        .enumerate()
        .filter_map(|(r, m)| match_key(r, m))
        .collect()
}

/// Where a set-up writes its snapshot: a scratch directory inside the
/// benchmark's own directory, removed again after loading.
fn snapshot_path(tag: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("snapshot-{}-{tag}.afj", std::process::id()))
}

/// A learned, frozen, saved and re-loaded state.
struct Ready {
    result: JoinResult,
    loaded: ServingState,
    snapshot_bytes: u64,
    learn_s: f64,
}

fn save_and_load(
    state: &ServingState,
    tag: usize,
) -> Result<(u64, ServingState, f64, f64), String> {
    let path = snapshot_path(tag);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("snapshot dir: {e}"))?;
    }
    let clocks = Clocks::start();
    state.save(&path).map_err(|e| format!("save: {e}"))?;
    let save_s = clocks.core_s();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let clocks = Clocks::start();
    let loaded = ServingState::load(&path);
    let load_s = clocks.core_s();
    let _ = std::fs::remove_file(&path);
    Ok((
        bytes,
        loaded.map_err(|e| format!("load: {e}"))?,
        save_s,
        load_s,
    ))
}

fn set_up(
    inputs: &Inputs,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    tag: usize,
) -> Result<Ready, String> {
    let clocks = Clocks::start();
    let (result, artifacts) =
        join_single_column_with_artifacts(&inputs.left, &inputs.right, space, options);
    let learn_s = clocks.core_s();
    let artifacts = artifacts.ok_or("the learn produced no pipeline artifacts")?;
    let state = ServingState::from_artifacts(space, options, &result, artifacts);
    let (snapshot_bytes, loaded, _, _) = save_and_load(&state, tag)?;
    Ok(Ready {
        result,
        loaded,
        snapshot_bytes,
        learn_s,
    })
}

/// What one client loop saw.
#[derive(Default)]
struct LoopResult {
    latencies_ms: Vec<f64>,
    answered: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    elapsed_s: f64,
    /// Records the server acknowledged appending, in order.
    appended: Vec<String>,
}

/// Closed loop of single-record `Join` requests over the stored right
/// records in a seeded shuffled order, until `stop`.  When `expected` is
/// given, every answer must be bit-equal to it.
fn join_loop(
    addr: SocketAddr,
    right: &[String],
    expected: Option<&[Option<ServeMatch>]>,
    seed: u64,
    stop: Instant,
) -> LoopResult {
    let mut order: Vec<usize> = (0..right.len()).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut client: Option<Client> = None;
    let mut next = 0usize;
    while Instant::now() < stop {
        out.attempted += 1;
        if client.is_none() {
            match Client::connect(addr) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    out.failed += 1;
                    out.latencies_ms.push(REQUEST_TIMEOUT_MS);
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let r = order[next % order.len()];
        next += 1;
        let t = Instant::now();
        let reply = client.as_mut().map(|c| c.join(&right[r]));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Some(Ok(m)) => {
                out.answered += 1;
                out.latencies_ms.push(ms);
                let wrong = expected.is_some_and(|exp| match_key(r, &m) != match_key(r, &exp[r]));
                if wrong {
                    out.mismatches += 1;
                }
                if wrong || ms > REQUEST_TIMEOUT_MS {
                    out.failed += 1;
                }
            }
            _ => {
                out.failed += 1;
                out.latencies_ms.push(REQUEST_TIMEOUT_MS.max(ms));
                client = None;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Closed loop of `Append` requests, each carrying the next
/// `APPEND_BATCH` held-out records (wrapping around), until `stop`.
fn append_loop(addr: SocketAddr, held_out: &[String], stop: Instant) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut client = Client::connect(addr).ok();
    let mut next = 0usize;
    while Instant::now() < stop {
        out.attempted += 1;
        let batch: Vec<String> = (0..APPEND_BATCH)
            .map(|i| held_out[(next + i) % held_out.len()].clone())
            .collect();
        next += APPEND_BATCH;
        let t = Instant::now();
        let reply = match client.as_mut() {
            Some(c) => c.append(&batch),
            None => Err(std::io::Error::other("not connected")),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(_) => {
                out.answered += 1;
                out.latencies_ms.push(ms);
                out.appended.extend(batch);
                if ms > REQUEST_TIMEOUT_MS {
                    out.failed += 1;
                }
            }
            Err(_) => {
                out.failed += 1;
                out.latencies_ms.push(REQUEST_TIMEOUT_MS.max(ms));
                client = Client::connect(addr).ok();
                if client.is_none() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Everything the serving window measured.
struct Traffic {
    joins: LoopResult,
    appends: LoopResult,
    stats: Option<ServerStats>,
    /// `JoinBatch` answers over every stored right record after the window
    /// (append workload only).
    final_answers: Option<Vec<Option<ServeMatch>>>,
    server_failed: bool,
}

impl Traffic {
    fn attempted(&self) -> u64 {
        self.joins.attempted + self.appends.attempted
    }

    fn failed(&self) -> u64 {
        self.joins.failed + self.appends.failed + u64::from(self.server_failed)
    }

    fn join_rps(&self) -> f64 {
        if self.joins.elapsed_s > 0.0 {
            self.joins.answered as f64 / self.joins.elapsed_s
        } else {
            0.0
        }
    }
}

fn merge(into: &mut LoopResult, from: LoopResult) {
    into.latencies_ms.extend(from.latencies_ms);
    into.answered += from.answered;
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.mismatches += from.mismatches;
    into.elapsed_s = into.elapsed_s.max(from.elapsed_s);
    into.appended.extend(from.appended);
}

/// Serve `state` for `seconds` with `CLIENTS` closed-loop connections: all
/// of them `Join` loops, or one `Join` loop beside one `Append` loop.  Then
/// read `Stats`, fetch the final answers when appending, and shut down.
fn drive(
    state: ServingState,
    inputs: &Inputs,
    expected: Option<&[Option<ServeMatch>]>,
    appends: bool,
    seed: u64,
    seconds: f64,
) -> Result<(Traffic, f64), String> {
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", state).map_err(|e| format!("bind: {e}"))?;
    let bind_s = t.elapsed().as_secs_f64();
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let traffic = std::thread::scope(|scope| {
        let run = scope.spawn(|| guarded(|| server.run(CLIENTS)).is_none());
        let readers = if appends { CLIENTS - 1 } else { CLIENTS };
        let join_threads: Vec<_> = (0..readers)
            .map(|c| {
                let conn_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c as u64;
                scope.spawn(move || join_loop(addr, &inputs.right, expected, conn_seed, stop))
            })
            .collect();
        let append_thread =
            appends.then(|| scope.spawn(|| append_loop(addr, &inputs.held_out, stop)));

        let lost = || LoopResult {
            attempted: 1,
            failed: 1,
            ..LoopResult::default()
        };
        let mut joins = LoopResult::default();
        for h in join_threads {
            merge(&mut joins, h.join().unwrap_or_else(|_| lost()));
        }
        let appends_seen = match append_thread {
            Some(h) => h.join().unwrap_or_else(|_| lost()),
            None => LoopResult::default(),
        };

        let mut control = Client::connect(addr).ok();
        let stats = control.as_mut().and_then(|c| c.stats().ok());
        let final_answers = if appends {
            let mut stored = inputs.right.clone();
            stored.extend(appends_seen.appended.iter().cloned());
            control.as_mut().and_then(|c| c.join_batch(&stored).ok())
        } else {
            None
        };
        let shut = control.as_mut().is_some_and(|c| c.shutdown().is_ok())
            || Client::connect(addr).is_ok_and(|mut c| c.shutdown().is_ok());
        let server_failed = run.join().unwrap_or(true) || !shut;
        Traffic {
            joins,
            appends: appends_seen,
            stats,
            final_answers,
            server_failed,
        }
    });
    Ok((traffic, bind_s))
}

/// Checks on the serving window; returns the problems found.
fn check_traffic(
    traffic: &Traffic,
    inputs: &Inputs,
    result: &JoinResult,
    options: &AutoFjOptions,
    appends: bool,
) -> Vec<String> {
    let mut errors = Vec::new();
    if traffic.joins.mismatches > 0 {
        errors.push(format!(
            "{} TCP answers differ from join_all",
            traffic.joins.mismatches
        ));
    }
    match &traffic.stats {
        None => errors.push("Stats request failed".into()),
        Some(s) => {
            if traffic.failed() == 0 && s.queries_served != traffic.joins.answered {
                errors.push(format!(
                    "server counted {} queries, clients got {} answers",
                    s.queries_served, traffic.joins.answered
                ));
            }
            if s.epoch != 1 + traffic.appends.answered {
                errors.push(format!(
                    "epoch {} after {} appends",
                    s.epoch, traffic.appends.answered
                ));
            }
        }
    }
    if appends {
        let mut stored = inputs.right.clone();
        stored.extend(traffic.appends.appended.iter().cloned());
        let rebuilt = ServingState::from_program(
            &inputs.left,
            &stored,
            &result.program,
            options,
            result.estimated_precision,
            result.estimated_recall,
        );
        match &traffic.final_answers {
            None => errors.push("final JoinBatch failed".into()),
            Some(answers) if matches_key(answers) != matches_key(&rebuilt.join_all()) => {
                errors.push("state after appends differs from a from_program rebuild".into())
            }
            Some(_) => {}
        }
    }
    errors
}

/// A serve workload.  Untraced: `SETUPS` full set-ups (the last one is
/// served), then the timed window.  Traced: one set-up, layer by layer,
/// then the in-process store path and the same window.
pub fn run(
    name: &'static str,
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    appends: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, _) = generate(name, shape, seed, 1);
    out.lines.push(inputs.describe(name));
    let space = JoinFunctionSpace::reduced24();
    let options = options(shape);
    if trace {
        return run_traced(out, &inputs, &space, &options, seed, seconds, appends);
    }

    let mut setups = Vec::new();
    let mut setup_walls = Vec::new();
    let mut learns = Vec::new();
    let mut ready = None;
    for tag in 0..SETUPS {
        out.attempted += 1;
        let clocks = Clocks::start();
        let done = guarded(|| set_up(&inputs, &space, &options, tag));
        let (set_up_s, set_up_wall_s) = (clocks.core_s(), clocks.wall_s());
        match done {
            Some(Ok(r)) => {
                learns.push(r.learn_s);
                // Binding is timed inside `drive` and added below.
                setups.push(set_up_s);
                setup_walls.push(set_up_wall_s);
                ready = Some(r);
            }
            Some(Err(e)) => {
                out.failed += 1;
                out.error(&e);
            }
            None => {
                out.failed += 1;
                out.error("set-up panicked");
            }
        }
    }
    let Some(ready) = ready else {
        return out;
    };
    let Ready {
        result,
        loaded,
        snapshot_bytes,
        ..
    } = ready;
    if !meets_target(&result, &options) {
        out.error("estimated precision below the target with pairs joined");
    }
    let expected = loaded.join_all();
    if matches_key(&expected) != result_key(&result) {
        out.error("the loaded snapshot does not replay the learned join");
    }
    // Reads beside appends see a changing state; only a read-only window
    // can hold every answer to the learned replay.
    let check = (!appends).then_some(expected.as_slice());
    let (traffic, bind_s) = match drive(loaded, &inputs, check, appends, seed, seconds) {
        Ok(t) => t,
        Err(e) => {
            out.failed += 1;
            out.error(&e);
            return out;
        }
    };
    for e in check_traffic(&traffic, &inputs, &result, &options, appends) {
        out.error(&e);
    }
    out.attempted += traffic.attempted();
    out.failed += traffic.failed();

    let (precision, recall) = quality(&result, &inputs.ground_truth);
    let joins = &traffic.joins.latencies_ms;
    out.metrics = vec![
        Metric::new("setup_s", median(&setups) + bind_s, "s"),
        Metric::new("learn_s", median(&learns), "s"),
        Metric::new("recall", recall, "share"),
        Metric::new("precision", precision, "share"),
        Metric::new("join_rps", traffic.join_rps(), "1/s"),
        Metric::new("join_p50_ms", median(joins), "ms"),
    ];
    out.report
        .push(Metric::new("join_p99_ms", percentile(joins, 99.0), "ms"));
    out.report.push(Metric::new(
        "setup_wall_s",
        median(&setup_walls) + bind_s,
        "s",
    ));
    out.report.push(Metric::new(
        "snapshot_mib",
        snapshot_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    if appends {
        out.report.push(Metric::new(
            "append_p50_ms",
            median(&traffic.appends.latencies_ms),
            "ms",
        ));
    }
    out.note(format!(
        "{name}: {} joins, {} appends over {:.1} s; {}x{} snapshot",
        joins.len(),
        traffic.appends.latencies_ms.len(),
        traffic.joins.elapsed_s,
        inputs.left.len(),
        inputs.right.len()
    ));
    out
}

fn run_traced(
    mut out: Outcome,
    inputs: &Inputs,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    seed: u64,
    seconds: f64,
    appends: bool,
) -> Outcome {
    // Two untraced learns: the first warms up, the second is the time the
    // traced learn is compared against; all three must agree.
    let mut learned = Vec::new();
    for _ in 0..2 {
        out.attempted += 1;
        let clocks = Clocks::start();
        match guarded(|| join_single_column(&inputs.left, &inputs.right, space, options)) {
            Some(result) => learned.push((result, clocks.core_s())),
            None => {
                out.failed += 1;
                out.error("join_single_column panicked");
                return out;
            }
        }
    }
    let (result, _) = learned.remove(0);
    let learn_s = learned[0].1;
    if result_key(&result) != result_key(&learned[0].0) {
        out.failed += 1;
        out.error("repeated learns returned different joins");
    }

    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    out.attempted += 1;
    let staged = guarded(|| {
        let (artifacts, work) =
            traced_learn(&mut tracer, &inputs.left, &inputs.right, space, options);
        let same = traced_matches(&artifacts.outcome, &result);
        let state = tracer.span("freeze", |_| {
            ServingState::from_artifacts(space, options, &result, artifacts)
        });
        let saved = tracer.span("save_load", |_| save_and_load(&state, 0));
        (work, same, saved)
    });
    let Some((work, same, saved)) = staged else {
        out.failed += 1;
        out.error("traced set-up panicked");
        return out;
    };
    if !same {
        out.error("traced learn differs from join_single_column");
    }
    let (bytes, loaded, save_s, load_s) = match saved {
        Ok(s) => s,
        Err(e) => {
            out.failed += 1;
            out.error(&e);
            return out;
        }
    };
    record_layers(&mut layers, &tracer, &work);
    layers.overhead_s = layers.learn_traced_s - learn_s;
    layers.store_freeze_s = tracer.self_s("freeze");
    layers.store_save_s = save_s;
    layers.store_load_s = load_s;
    layers.store_snapshot_bytes = bytes as f64;

    // The store's own query path, in process, over the stored records.
    let mut scratch = QueryScratch::for_state(&loaded);
    let query_ms: Vec<f64> = inputs
        .right
        .iter()
        .map(|raw| {
            let t = Instant::now();
            let _ = loaded.query(raw, &mut scratch);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.store_query_p50_ms = median(&query_ms);
    let mut grown = loaded.clone();
    let batch: Vec<&String> = inputs.held_out.iter().take(APPEND_BATCH).collect();
    let clocks = Clocks::start();
    grown.append_right(&batch);
    layers.store_append_s = clocks.core_s();
    drop(grown);

    let expected = loaded.join_all();
    let check = (!appends).then_some(expected.as_slice());
    match drive(loaded, inputs, check, appends, seed, seconds) {
        Ok((traffic, _)) => {
            for e in check_traffic(&traffic, inputs, &result, options, appends) {
                out.error(&e);
            }
            out.attempted += traffic.attempted();
            out.failed += traffic.failed();
            layers.serve_join_overhead_ms =
                median(&traffic.joins.latencies_ms) - layers.store_query_p50_ms;
            layers.serve_requests = (traffic.joins.attempted + traffic.appends.attempted) as f64;
            layers.serve_failed = traffic.failed() as f64;
            layers.serve_epochs = traffic.stats.map_or(0.0, |s| s.epoch as f64);
        }
        Err(e) => {
            out.failed += 1;
            out.error(&e);
        }
    }
    out.lines.push(tracer.to_json());
    out.metrics = layers.metrics();
    out
}
