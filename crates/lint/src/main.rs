//! The `flexilint` CLI: scans the workspace, prints diagnostics, and
//! exits nonzero on any unsuppressed finding — the CI gate.
//!
//! ```text
//! flexilint --workspace             # lint the enclosing workspace
//! flexilint --workspace --json     # machine output (CI artifact)
//! flexilint --format github        # GitHub Actions annotations
//! flexilint --root some/dir        # lint an arbitrary tree (fixtures)
//! flexilint --rules                # print the rule catalog
//! flexilint --rules L01,R01 ...    # restrict the run to those rules
//! ```

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI reports on its own streams"
)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut only: Option<BTreeSet<String>> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "flexilint: --format needs one of human|json|github, got {}",
                        other.map_or_else(|| "nothing".to_string(), |o| format!("`{o}`"))
                    );
                    return ExitCode::from(2);
                }
            },
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("flexilint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                // Bare `--rules` prints the catalog; with a comma-separated
                // id list it restricts the run. Unknown ids are a usage
                // error, never silently ignored: a typo'd gate that lints
                // nothing is worse than no gate.
                let ids = match args.peek() {
                    Some(v) if !v.starts_with('-') => args.next(),
                    _ => None,
                };
                let Some(ids) = ids else {
                    for (id, summary) in flexilint::RULES {
                        println!("{id}  {summary}");
                    }
                    return ExitCode::SUCCESS;
                };
                let mut set = only.unwrap_or_default();
                for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    if !flexilint::known_rule(id) {
                        eprintln!("flexilint: unknown rule id `{id}`; valid rules are:");
                        for (known, summary) in flexilint::RULES {
                            eprintln!("  {known}  {summary}");
                        }
                        return ExitCode::from(2);
                    }
                    set.insert(id.to_string());
                }
                if set.is_empty() {
                    eprintln!("flexilint: --rules got an empty id list");
                    return ExitCode::from(2);
                }
                only = Some(set);
            }
            "--help" | "-h" => {
                println!(
                    "flexilint: the checks rustc, clippy and the tests cannot make — \
                     lock order, discarded try_send results, panic reachability from \
                     worker threads and wire decoders, decode-path narrowing casts, \
                     determinism taint into messages, Vec::from payload copies\n\
                     usage: flexilint [--workspace] [--root DIR] [--json] \
                     [--format human|json|github] [--rules [IDS]]\n\
                     exit status: 0 clean, 1 findings, 2 usage or I/O error"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("flexilint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            if !workspace {
                eprintln!("flexilint: pass --workspace or --root DIR (try --help)");
                return ExitCode::from(2);
            }
            match workspace_root() {
                Some(r) => r,
                None => {
                    eprintln!("flexilint: no workspace Cargo.toml above the current directory");
                    return ExitCode::from(2);
                }
            }
        }
    };

    match flexilint::Workspace::read(&root) {
        Ok(ws) => {
            let report = ws.analyse(only.as_ref());
            match format {
                Format::Human => print!("{}", report.human()),
                Format::Json => print!("{}", report.json()),
                Format::Github => print!("{}", report.github()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("flexilint: {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the first `Cargo.toml` holding a
/// `[workspace]` table.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(body) = std::fs::read_to_string(&manifest) {
            if body.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
