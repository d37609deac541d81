//! `xp` — regenerate the RobuSTore paper's tables and figures.
//!
//! ```text
//! xp list                 # show every experiment and what it covers
//! xp fig6-6               # run one experiment
//! xp all                  # run everything (writes results/<id>.txt each)
//! xp fig6-15 --trials 100 # override the trial count (default 40)
//! xp bench-coding --quick # smoke-test sizes (same as --trials 1);
//!                         # output goes under target/xp-quick/
//! ```

use robustore_bench::{find, registry, write_output, DEFAULT_TRIALS};

fn usage() -> ! {
    eprintln!("usage: xp <experiment-id|all|list> [--trials N] [--quick]");
    eprintln!("run `xp list` to see the available experiments");
    std::process::exit(2);
}

/// Write the report (a quick run's under `target/xp-quick/`, like its
/// rows); a report that cannot be written fails the run.
fn write_results(id: &str, trials: u64, content: &str) {
    match write_output(&format!("results/{id}.txt"), trials <= 1, content) {
        Ok(path) => eprintln!("[written {}]", path.display()),
        Err(e) => {
            eprintln!("could not write results/{id}.txt: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut trials = DEFAULT_TRIALS;
    let mut target: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                trials = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            // One trial everywhere; experiments with a quick mode (e.g.
            // bench-coding) also shrink their data sizes for CI smoke runs.
            "--quick" => trials = 1,
            flag if flag.starts_with("--") => usage(),
            id => {
                if target.is_some() {
                    usage();
                }
                target = Some(id.to_string());
            }
        }
        i += 1;
    }
    let target = target.unwrap_or_else(|| usage());

    match target.as_str() {
        "list" => {
            println!("{:10} covers", "id");
            println!("{}", "-".repeat(90));
            for e in registry() {
                println!("{:10} {}", e.id, e.covers);
            }
        }
        "all" => {
            for e in registry() {
                eprintln!("== {} ({} trials) ==", e.id, trials);
                let start = std::time::Instant::now();
                let out = (e.run)(trials);
                eprintln!("[{} finished in {:.1?}]", e.id, start.elapsed());
                println!("{out}");
                write_results(e.id, trials, &out);
            }
        }
        id => match find(id) {
            Some(e) => {
                let out = (e.run)(trials);
                println!("{out}");
                write_results(e.id, trials, &out);
            }
            None => {
                eprintln!("unknown experiment {id:?}");
                usage();
            }
        },
    }
}
