//! Command-line front end for the join service.
//!
//! ```text
//! autofj_serve build --left left.txt --right right.txt --out join.afj [--space reduced24] [--tau 0.9]
//! autofj_serve serve --snapshot join.afj [--addr 127.0.0.1:7878] [--threads 4]
//! autofj_serve query --addr 127.0.0.1:7878 record...
//! ```
//!
//! Input files hold one record per line.  `build` learns a join program and
//! writes a snapshot; `serve` loads a snapshot and serves it until a
//! `Shutdown` request; `query` joins each argument against a running server.

use autofj_core::AutoFjOptions;
use autofj_serve::{Client, Server};
use autofj_store::ServingState;
use autofj_text::JoinFunctionSpace;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect())
}

fn space_by_name(name: &str) -> Result<JoinFunctionSpace, String> {
    match name {
        "full" => Ok(JoinFunctionSpace::full()),
        "reduced24" => Ok(JoinFunctionSpace::reduced24()),
        "reduced38" => Ok(JoinFunctionSpace::reduced38()),
        "reduced70" => Ok(JoinFunctionSpace::reduced70()),
        other => Err(format!(
            "unknown space {other:?} (expected full, reduced24, reduced38 or reduced70)"
        )),
    }
}

/// Split `args` into `--flag value` options and positional arguments,
/// refusing any flag not in `known`.
fn parse_flags(
    args: &[String],
    known: &[&str],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.contains(&name) {
                let expected: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
                return Err(format!(
                    "unknown flag --{name} (expected {})",
                    expected.join(", ")
                ));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["left", "right", "out", "space", "tau"])?;
    let left_path = flags.get("left").ok_or("build needs --left <file>")?;
    let right_path = flags.get("right").ok_or("build needs --right <file>")?;
    let out = flags.get("out").ok_or("build needs --out <snapshot>")?;
    let space = space_by_name(flags.get("space").map(String::as_str).unwrap_or("full"))?;
    let mut options = AutoFjOptions::default();
    if let Some(tau) = flags.get("tau") {
        options.precision_target = tau.parse().map_err(|e| format!("bad --tau {tau:?}: {e}"))?;
    }
    options
        .validate()
        .map_err(|e| format!("bad options: {e}"))?;
    let left = read_lines(left_path)?;
    let right = read_lines(right_path)?;
    let (state, result) = ServingState::learn(&left, &right, &space, &options);
    state
        .save(Path::new(out))
        .map_err(|e| format!("cannot write snapshot: {e}"))?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "learned {} configs over {}×{} records; {} joined (est. precision {:.4}); snapshot {out} ({bytes} bytes)",
        result.program.configs.len(),
        left.len(),
        right.len(),
        result.num_joined(),
        result.estimated_precision,
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["snapshot", "addr", "threads"])?;
    let snapshot = flags
        .get("snapshot")
        .ok_or("serve needs --snapshot <file>")?;
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let threads: usize = flags
        .get("threads")
        .map(|t| t.parse().map_err(|e| format!("bad --threads {t:?}: {e}")))
        .transpose()?
        .unwrap_or(4);
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let state = ServingState::load(Path::new(snapshot))
        .map_err(|e| format!("cannot load snapshot: {e}"))?;
    let server = Server::bind(&addr, state).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!("serving {snapshot} on {local} with {threads} accept threads");
    server.run(threads);
    println!("shut down after {} queries", server.stats().queries_served);
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (flags, records) = parse_flags(args, &["addr"])?;
    let addr = flags.get("addr").ok_or("query needs --addr <host:port>")?;
    if records.is_empty() {
        return Err("query needs at least one record argument".to_string());
    }
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    for record in &records {
        match client.join(record).map_err(|e| e.to_string())? {
            Some(m) => println!(
                "{record:?} -> left {} (distance {:.4}, precision {:.4}, config {})",
                m.left, m.distance, m.precision, m.config_index
            ),
            None => println!("{record:?} -> no join"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        _ => Err("usage: autofj_serve <build|serve|query> [flags]".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("autofj_serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
