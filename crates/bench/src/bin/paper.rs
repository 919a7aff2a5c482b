//! The paper's tables and figures, from one registry.
//!
//! `paper <entry>…` runs the named entries of
//! [`autofj_bench::registry::ENTRIES`] in order: each prints its table and
//! writes `target/experiments/<entry>.json`.  With no argument it lists the
//! entries; an unknown entry name exits 2 before anything runs.  No entry
//! is gated here: the bench gate over the `fig6d` sweep is `bench_smoke
//! fig6d`.
//!
//! ```bash
//! AUTOFJ_SCALE=tiny AUTOFJ_SPACE=24 cargo run --release -p autofj-bench --bin paper -- table2 fig7a
//! ```
//!
//! Environment: `AUTOFJ_SCALE` (`tiny` | `small` | `full`), `AUTOFJ_TASKS`,
//! `AUTOFJ_SPACE` (`24` | `38` | `70` | `140`) and `AUTOFJ_MC_SCALE`, see
//! [`autofj_bench::registry::Settings`].

use autofj_bench::registry::{entry, Settings, ENTRIES};
use autofj_bench::runner::or_exit;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        for e in ENTRIES {
            println!("{:<8} {}", e.name, e.title);
        }
        return;
    }
    let entries: Vec<_> = names.iter().map(|n| or_exit(entry(n))).collect();
    let settings = or_exit(Settings::from_env());
    for e in entries {
        e.run(&settings);
    }
}
