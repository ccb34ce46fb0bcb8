//! The repository's benchmark: four workloads, each loading different
//! layers of the range-check pipeline, measured end to end through the
//! public entry points and, in a separate traced run, layer by layer.
//! `README.md` gives the rationale of each workload and which end-to-end
//! metric each per-layer metric should move.

pub mod calib;
pub mod corpus;
pub mod exec;
pub mod stats;
pub mod trace;

use std::process::Command;

use exec::{Instance, Tally};
use stats::{median, pct, peak_rss_mb, percentile, tail_percentile};

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small suite × 42 configurations, certify mode, uncached `compute`.
    SuiteCertify,
    /// Generated programs of 200–2000 lines, certify mode, LLS.
    LargeCompile,
    /// Paper-scale suite, optimize mode, NI/LLS on the VM and natively.
    PaperExecute,
    /// An in-process `nascentd` under one closed-loop client.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteCertify,
        Workload::LargeCompile,
        Workload::PaperExecute,
        Workload::ServiceMixed,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCertify => "suite-certify",
            Workload::LargeCompile => "large-compile",
            Workload::PaperExecute => "paper-execute",
            Workload::ServiceMixed => "service-mixed",
        }
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// An unknown name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    /// Threads busy while a request is served.
    pub fn busy_threads(self) -> usize {
        match self {
            Workload::ServiceMixed => 2,
            _ => 1,
        }
    }
}

/// How much input a workload gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few requests, for the benchmark's own tests.
    Smoke,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value is reported as 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The result of one benchmark run.
pub struct Report {
    /// Human-readable lines, printed before the JSON line.
    pub lines: Vec<String>,
    /// True when no request failed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Chrome-trace JSON of the traced run.
    pub trace_json: Option<String>,
}

impl Report {
    /// The final line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The metric names `--trace 0` prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("checks_eliminated_pct", "%"),
];

/// Runs one workload: set-up, then the untraced timed phase; with
/// `trace`, untraced and traced passes alternate for `seconds`.
///
/// # Errors
///
/// Set-up failures (see [`exec::setup`]).
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let inst = exec::setup(workload, size, seed)?;
    if !trace {
        let tally = exec::run_passes(&inst, seconds);
        return Ok(end_to_end(&inst, &tally));
    }
    let (untraced, traced) = trace::run_traced(&inst, seconds);
    let metrics = trace::per_layer(&inst, &untraced, &traced);
    let mut lines = problems(&untraced);
    lines.extend(problems(&traced.tally));
    if let Some(top) = metrics
        .iter()
        .filter(|m| m.name.ends_with(".self_pct"))
        .max_by(|a, b| a.value.total_cmp(&b.value))
    {
        lines.push(format!(
            "largest self-time layer: {} ({:.1}% of request wall time)",
            top.name.trim_end_matches(".self_pct"),
            top.value
        ));
    }
    lines.push(format!(
        "traced: {} passes, {} spans; untraced: {} passes",
        traced.tally.passes,
        traced.tracer.spans().len(),
        untraced.passes
    ));
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    let failed = untraced.failed + traced.tally.failed;
    Ok(Report {
        lines,
        correct: failed == 0,
        attempted: untraced.attempted + traced.tally.attempted,
        failed,
        metrics,
        trace_json: Some(traced.tracer.chrome_json()),
    })
}

fn problems(t: &Tally) -> Vec<String> {
    t.problems.iter().map(|p| format!("FAILED: {p}")).collect()
}

/// `100 × (1 − Σ optimized dynamic checks / Σ naive dynamic checks)` over
/// the distinct requests answered.
pub fn checks_eliminated_pct(t: &Tally) -> f64 {
    let (naive, opt) = t.seen.iter().flatten().fold((0u64, 0u64), |(n, o), s| {
        (n + s.naive_checks, o + s.dynamic_checks)
    });
    100.0 - pct(opt as f64, naive as f64)
}

/// Certify-mode requests whose certificate is `ok()`, in percent; `None`
/// when the workload sends none.
pub fn cert_accepted_pct(t: &Tally) -> Option<f64> {
    (t.certify > 0).then(|| pct(t.certified as f64, t.certify as f64))
}

/// Each untraced request's latency, ns, scaled by its block's
/// calibration factor (see [`calib`]).
pub fn normalized_ns(t: &Tally) -> Vec<f64> {
    t.blocks
        .iter()
        .flat_map(|b| {
            t.latencies_ns[b.first..b.end]
                .iter()
                .map(move |&ns| ns as f64 * b.factor)
        })
        .collect()
}

/// Completed requests per second of the untraced passes' wall time,
/// each block's time normalized.
pub fn normalized_req_per_s(t: &Tally) -> f64 {
    let ns: f64 = t.blocks.iter().map(|b| b.wall_ns as f64 * b.factor).sum();
    t.attempted as f64 / (ns / 1e9).max(1e-9)
}

/// The latency of each step of a pass, in ms: its median over the passes,
/// so that a burst of interference in one pass does not move the
/// percentiles taken over the steps.
pub fn step_latencies_ms(latencies_ns: &[f64], pass_len: usize) -> Vec<f64> {
    let passes: Vec<&[f64]> = latencies_ns.chunks_exact(pass_len).collect();
    (0..pass_len)
        .map(|s| {
            let v: Vec<f64> = passes.iter().map(|p| p[s] / 1e6).collect();
            median(&v)
        })
        .collect()
}

fn end_to_end(inst: &Instance, t: &Tally) -> Report {
    let pass_len = inst.corpus.sequence.len();
    let steps = step_latencies_ms(&normalized_ns(t), pass_len);
    let raw: Vec<f64> = t.latencies_ns.iter().map(|&ns| ns as f64).collect();
    let raw_steps = step_latencies_ms(&raw, pass_len);
    let q = tail_percentile(steps.len());
    let values = [
        median(&inst.setup_norm_s),
        normalized_req_per_s(t),
        median(&steps),
        percentile(&steps, q),
        peak_rss_mb(),
        checks_eliminated_pct(t),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect();
    let mut lines = problems(t);
    for m in &metrics {
        lines.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    let beyond = steps.len() as f64 * (1.0 - q / 100.0);
    lines.push(format!(
        "req_p50_ms and req_tail_ms (p{q}, {beyond:.0} beyond it) are taken over the {} steps \
         of a pass, each step's latency the median of its {} passes",
        steps.len(),
        t.passes
    ));
    let factors: Vec<f64> = t.blocks.iter().map(|b| b.factor).collect();
    lines.push(format!(
        "times are normalized to a host on which the calibration kernel takes {} ms; \
         host speed factor over {} blocks: min {:.3}, median {:.3}, max {:.3}",
        calib::REFERENCE_NS / 1e6,
        factors.len(),
        percentile(&factors, 0.0),
        median(&factors),
        percentile(&factors, 100.0)
    ));
    lines.push(format!(
        "raw: setup_s = {} s, req_per_s = {} 1/s, req_p50_ms = {} ms, req_tail_ms = {} ms",
        median(&inst.setup_s),
        t.attempted as f64 / (t.wall_ns as f64 / 1e9).max(1e-9),
        median(&raw_steps),
        percentile(&raw_steps, q)
    ));
    lines.push(format!(
        "failed_pct = {} %",
        pct(t.failed as f64, t.attempted as f64)
    ));
    lines.push(match cert_accepted_pct(t) {
        Some(v) => format!(
            "cert_accepted_pct = {v} % ({} of {} certify-mode requests)",
            t.certified, t.certify
        ),
        None => "cert_accepted_pct = n/a (no certify-mode requests)".to_string(),
    });
    if inst.workload == Workload::ServiceMixed {
        lines.push(format!(
            "cache hits = {} of {} pipeline responses ({:.2} %); 400s = {}, 503s = {}, other 5xx = {}",
            t.hits,
            t.hits + t.misses,
            pct(t.hits as f64, (t.hits + t.misses) as f64),
            t.status_400,
            t.status_503,
            t.status_5xx
        ));
    }
    lines.push(format!(
        "{} passes of {} requests; set-up repetitions {:?} s (normalized {:?} s)",
        t.passes,
        inst.corpus.sequence.len(),
        inst.setup_s,
        inst.setup_norm_s
    ));
    Report {
        lines,
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        trace_json: None,
    }
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

/// Pins this process, and every thread it starts later, to the first
/// CPU it may run on, with `taskset`; call it before any thread starts.
/// The busy threads take turns (a closed-loop client and one server
/// worker, or the benchmark and a native program it waits for), so one
/// CPU serves them, and a hand-over between them is a switch on that CPU
/// instead of a wake-up of another vCPU, whose cost on a shared host
/// varies by more than the work itself. Returns what it did.
pub fn pin_to_one_cpu() -> String {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        });
    let Some(cpu) = allowed.as_deref().and_then(|l| {
        let first = l.split(',').next()?.split('-').next()?.trim();
        (!first.is_empty()).then(|| first.to_string())
    }) else {
        return "not pinned (no Cpus_allowed_list)".into();
    };
    let pid = std::process::id().to_string();
    match Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu, &pid])
        .output()
    {
        Ok(o) if o.status.success() => format!("pinned to cpu {cpu}"),
        Ok(o) => format!(
            "not pinned (taskset: {})",
            String::from_utf8_lossy(&o.stderr).trim()
        ),
        Err(e) => format!("not pinned (taskset: {e})"),
    }
}

/// The host and build every result was taken on (take it before
/// [`pin_to_one_cpu`], which `nproc` would then read as 1).
pub fn fingerprint(workload: Workload, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cc = std::env::var("CC")
        .ok()
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "cc".into());
    let cc_version = first_line(&cc, &["--version"]).unwrap_or_else(|| "none".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = first_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "host: nproc={nproc} cc=`{cc}` ({cc_version}) rustc=({rustc_version}) seed={seed} \
         busy_threads={} commit={commit} workload={}",
        workload.busy_threads(),
        workload.name()
    )
}
