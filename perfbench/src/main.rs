//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint and every metric by name with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics of a traced run (and writes its
//! spans to `perfbench/out/`). Exits non-zero, printing no result, when
//! set-up fails.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{fingerprint, pin_to_one_cpu, run, Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space inside the checkout: the native tier's compile cache and
/// the C compiler's temporaries go here, and it is removed on exit.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <suite-certify|large-compile|\
                 paper-execute|service-mixed> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = fingerprint(args.workload, args.seed);
    let pin = pin_to_one_cpu();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out_dir.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    // set before any thread starts
    std::env::set_var("TMPDIR", &scratch.0);

    println!("{host}; {pin}");
    let report = match run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(json) = &report.trace_json {
        let path = out_dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, json) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
