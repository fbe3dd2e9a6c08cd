//! The `parflow` CLI: simulate, compare, generate, analyze, exec, serve,
//! sweep, dot. All logic lives in `parflow::cli` (unit-tested); this
//! wrapper only forwards arguments and sets the exit code.

use parflow::cli::{run_cli, CliError, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            // `Io` is a file problem or a delegated command's own message
            // (serve and sweep append their usage); the root usage would
            // only bury it.
            if !matches!(e, CliError::Io(_)) {
                eprintln!("\n{USAGE}");
            }
            std::process::exit(2);
        }
    }
}
