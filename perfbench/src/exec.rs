//! Set-up and the untraced timed phase: every request goes through the
//! workload's public entry point (`nascent_driver::compute`, or
//! `nascent_driver::http::request` against an in-process `nascentd`) and
//! every result is checked.

use std::time::Instant;

use nascent_cback::native::{self, NativeRunner};
use nascent_driver::harness::harness_limits;
use nascent_driver::http::request;
use nascent_driver::json::{parse, Json};
use nascent_driver::service::{start, ServerHandle, ServiceConfig};
use nascent_driver::{compute, CacheStats, Mode, Outcome};
use nascent_interp::Engine;
use nascent_rangecheck::optimize_program_logged_timed;

use crate::calib::{Calibrator, Meter};
use crate::corpus::{self, Corpus, Reference, Step, MALFORMED};
use crate::stats::ms;
use crate::trace::Tracer;
use crate::{Size, Workload};

/// What one response says, reduced to what the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seen {
    /// Printed values of the optimized run.
    pub output: Vec<String>,
    /// Whether the optimized run trapped.
    pub trap: bool,
    /// Dynamic checks of the naive run.
    pub naive_checks: u64,
    /// Dynamic checks of the optimized run.
    pub dynamic_checks: u64,
    /// Whether the certificate is `ok()`, in certify mode.
    pub cert_ok: Option<bool>,
}

impl Seen {
    /// The parts of an [`Outcome`] the benchmark checks.
    pub fn of(o: &Outcome) -> Seen {
        Seen {
            output: o.counters.output.clone(),
            trap: o.counters.trap.is_some(),
            naive_checks: o.counters.naive_checks,
            dynamic_checks: o.counters.dynamic_checks,
            cert_ok: o.certificate.as_ref().map(|c| c.ok()),
        }
    }
}

/// A distinct request's set-up outcome: what every later response to it
/// must equal.
#[derive(Debug, Clone)]
pub struct Expect {
    /// The checked parts.
    pub seen: Seen,
    /// `Outcome::deterministic_json`, rendered.
    pub json: String,
}

/// A workload ready to run.
pub struct Instance {
    /// Which workload.
    pub workload: Workload,
    /// Smoke or full size.
    pub size: Size,
    /// Its inputs.
    pub corpus: Corpus,
    /// Tree-walker reference per program.
    pub references: Vec<Reference>,
    /// Set-up outcome per distinct request (`None` if it failed).
    pub expect: Vec<Option<Expect>>,
    /// Wall seconds of each set-up repetition, raw.
    pub setup_s: Vec<f64>,
    /// The same, normalized to reference host speed (see [`crate::calib`]).
    pub setup_norm_s: Vec<f64>,
    /// The host-speed calibration kernel of the timed passes.
    pub calib: Calibrator,
    /// First native run of each distinct program, ms (`paper-execute`).
    pub native_compile_ms: Vec<f64>,
}

/// Set-up repetitions (their median is `setup_s`).
pub fn setup_reps(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Smoke => 1,
    }
}

/// Least number of passes of each timed phase.
pub fn min_passes(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Smoke => 1,
    }
}

/// Sets the workload up [`setup_reps`] times from scratch, each timed by
/// a calibrated [`Meter`], and keeps the last.
///
/// # Errors
///
/// A reference run that fails, a missing C compiler on `paper-execute`,
/// or a server that cannot start.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Result<Instance, String> {
    let calib = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut setup_norm_s = Vec::new();
    let mut native_compile_ms = Vec::new();
    let mut last = None;
    for rep in 0..setup_reps(size) {
        let mut meter = Meter::start(&calib);
        let mut inst = setup_once(workload, size, seed, rep, &mut meter)?;
        let blocks = meter.finish();
        setup_s.push(blocks.iter().map(|b| b.0 as f64).sum::<f64>() / 1e9);
        setup_norm_s.push(blocks.iter().map(|b| b.0 as f64 * b.1).sum::<f64>() / 1e9);
        native_compile_ms.append(&mut inst.native_compile_ms);
        last = Some(inst);
    }
    let mut inst = last.expect("at least one set-up repetition");
    inst.setup_s = setup_s;
    inst.setup_norm_s = setup_norm_s;
    inst.native_compile_ms = native_compile_ms;
    Ok(inst)
}

fn setup_once(
    workload: Workload,
    size: Size,
    seed: u64,
    rep: usize,
    meter: &mut Meter,
) -> Result<Instance, String> {
    let corpus = corpus::build(workload, size, seed);
    meter.tick();
    let references = corpus
        .programs
        .iter()
        .map(|p| {
            let r = corpus::reference(p);
            meter.tick();
            r
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut native_compile_ms = Vec::new();
    if workload == Workload::PaperExecute {
        if !nascent_cback::cc_available() {
            return Err("paper-execute: no C compiler (`$CC` or `cc`) for the native share".into());
        }
        // The first repetition fills the process-wide cache the native
        // engine uses; the others fill a private one, so that every
        // repetition pays the same compiles.
        native_compile_ms = if rep == 0 {
            fill_native(&corpus, native::global(), meter)?
        } else {
            fill_native(&corpus, &NativeRunner::new(), meter)?
        };
    }
    // warm-up: every distinct request once, in process; its outcome is
    // what every later response must equal
    let limits = harness_limits();
    let expect = corpus
        .distinct
        .iter()
        .map(|d| {
            let e = compute(&d.req, &limits).ok().map(|o| Expect {
                seen: Seen::of(&o),
                json: o.deterministic_json().render(),
            });
            meter.tick();
            e
        })
        .collect();
    let inst = Instance {
        workload,
        size,
        corpus,
        references,
        expect,
        setup_s: Vec::new(),
        setup_norm_s: Vec::new(),
        calib: Calibrator::new(),
        native_compile_ms,
    };
    if workload == Workload::ServiceMixed {
        let server = start_server()?;
        let addr = server.addr.to_string();
        for step in inst.corpus.sequence.iter().take(40) {
            let (path, body) = inst.wire(*step);
            let _ = request(&addr, "POST", path, body);
            meter.tick();
        }
        server.stop();
    }
    Ok(inst)
}

/// Emits and compiles every program the native requests run, timing each
/// first run.
fn fill_native(
    corpus: &Corpus,
    runner: &NativeRunner,
    meter: &mut Meter,
) -> Result<Vec<f64>, String> {
    let limits = harness_limits();
    let mut first_runs = Vec::new();
    for d in &corpus.distinct {
        if d.req.config.engine != Engine::Native {
            continue;
        }
        let naive = nascent_frontend::compile(&d.req.program).map_err(|e| e.to_string())?;
        let mut opt = naive.clone();
        optimize_program_logged_timed(&mut opt, &d.req.config.opts());
        for prog in [&naive, &opt] {
            let before = runner.stats().compiles;
            let t0 = Instant::now();
            runner
                .run(prog, limits.max_steps, limits.max_call_depth as u64)
                .map_err(|e| format!("native fill: {e}"))?;
            if runner.stats().compiles > before {
                first_runs.push(ms(t0.elapsed()));
            }
            meter.tick();
        }
    }
    Ok(first_runs)
}

/// The in-process `nascentd` every service pass uses: one worker, so the
/// client and the worker are the only busy threads.
pub fn start_server() -> Result<ServerHandle, String> {
    start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
}

impl Instance {
    /// Endpoint and body of a service step.
    pub fn wire(&self, step: Step) -> (&'static str, &[u8]) {
        match step {
            Step::Run(k) => {
                let d = &self.corpus.distinct[k];
                let path = match d.req.mode {
                    Mode::Optimize => "/optimize",
                    Mode::Certify => "/certify",
                };
                (path, &d.body)
            }
            Step::Malformed(m) => ("/optimize", MALFORMED[m].as_bytes()),
        }
    }
}

/// Checks one HTTP response: the checked content and `cached` flag of a
/// 200 to a distinct request, or `None` for the planned 400 to a
/// malformed body.
///
/// # Errors
///
/// Any status but the expected one, or a body that differs from the
/// in-process outcome of the same request.
fn check_reply(
    inst: &Instance,
    step: Step,
    status: u16,
    body: &[u8],
) -> Result<Option<(Seen, bool)>, String> {
    let k = match step {
        Step::Malformed(_) if status == 400 => return Ok(None),
        Step::Malformed(m) => return Err(format!("malformed body {m}: status {status}")),
        Step::Run(k) => k,
    };
    if status != 200 {
        return Err(format!("request {k}: status {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let expect = inst.expect[k]
        .as_ref()
        .ok_or_else(|| format!("request {k}: in-process compute failed"))?;
    if !text.contains(&format!("\"result\":{},", expect.json)) {
        return Err(format!(
            "request {k}: result differs from in-process compute"
        ));
    }
    let v = parse(text)?;
    let result = v.get("result").ok_or("no result")?;
    let counters = result.get("counters").ok_or("no counters")?;
    let int = |key: &str| counters.get(key).and_then(Json::as_i64).unwrap_or(-1) as u64;
    let output = match counters.get("output") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or("output is not strings")
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("no output".into()),
    };
    let seen = Seen {
        output,
        trap: !matches!(counters.get("trap"), Some(Json::Null)),
        naive_checks: int("naive_checks"),
        dynamic_checks: int("dynamic_checks"),
        cert_ok: result
            .get("certificate")
            .and_then(|c| c.get("ok"))
            .and_then(Json::as_bool),
    };
    let cached = v
        .get("cached")
        .and_then(Json::as_bool)
        .ok_or("no cached flag")?;
    Ok(Some((seen, cached)))
}

/// Consecutive requests between two calibration samples.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Index of its first request in [`Tally::latencies_ns`].
    pub first: usize,
    /// One past its last request.
    pub end: usize,
    /// Its wall time, ns.
    pub wall_ns: u64,
    /// Its scale factor (see [`Meter`]).
    pub factor: f64,
}

/// The calibrated timing of one pass.
struct PassTimer<'a> {
    meter: Meter<'a>,
    /// Index in [`Tally::latencies_ns`] of each block's first request,
    /// and of the next block's.
    bounds: Vec<usize>,
}

impl<'a> PassTimer<'a> {
    fn new(inst: &'a Instance, t: &Tally) -> PassTimer<'a> {
        PassTimer {
            meter: Meter::start(&inst.calib),
            bounds: vec![t.latencies_ns.len()],
        }
    }

    /// After a request.
    fn tick(&mut self, t: &Tally) {
        if self.meter.tick() {
            self.bounds.push(t.latencies_ns.len());
        }
    }

    /// At the end of the pass: adds its blocks to the tally.
    fn close(mut self, t: &mut Tally) {
        self.bounds.push(t.latencies_ns.len());
        for (w, (wall_ns, factor)) in self.bounds.windows(2).zip(self.meter.finish()) {
            t.wall_ns += wall_ns;
            t.blocks.push(Block {
                first: w[0],
                end: w[1],
                wall_ns,
                factor,
            });
        }
    }
}

/// Everything a timed phase counted.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed any check.
    pub failed: u64,
    /// Latency of every request, ns.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the passes, ns (server restarts and calibration
    /// samples excluded).
    pub wall_ns: u64,
    /// The untraced passes' requests, in blocks between calibration
    /// samples.
    pub blocks: Vec<Block>,
    /// Passes run.
    pub passes: usize,
    /// Certify-mode requests answered.
    pub certify: u64,
    /// Of which the certificate was `ok()`.
    pub certified: u64,
    /// First checked result per distinct request.
    pub seen: Vec<Option<Seen>>,
    /// Service responses flagged `cached`.
    pub hits: u64,
    /// Service responses computed by the pipeline.
    pub misses: u64,
    /// 400 responses (the planned ones included).
    pub status_400: u64,
    /// 503 responses.
    pub status_503: u64,
    /// 5xx responses other than 503.
    pub status_5xx: u64,
    /// The service's result cache at the end of the last pass.
    pub cache: Option<CacheStats>,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// An empty tally for `distinct` distinct requests.
    pub fn new(distinct: usize) -> Tally {
        Tally {
            seen: vec![None; distinct],
            ..Tally::default()
        }
    }

    /// Counts one failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    /// Checks one pipeline result against the reference and the set-up
    /// outcome, and counts it.
    pub fn record(&mut self, inst: &Instance, k: usize, got: Result<Seen, String>) {
        let seen = match got {
            Ok(s) => s,
            Err(e) => return self.fail(format!("request {k}: {e}")),
        };
        let d = &inst.corpus.distinct[k];
        let reference = &inst.references[d.program];
        if !reference.accepts(&seen.output, seen.trap) {
            return self.fail(format!(
                "request {k} ({}): output/trap differ from the tree-walker",
                inst.corpus.programs[d.program].name
            ));
        }
        if (d.req.mode == Mode::Certify) != seen.cert_ok.is_some() {
            return self.fail(format!("request {k}: certificate missing or unexpected"));
        }
        if inst.expect[k].as_ref().is_some_and(|e| e.seen != seen) {
            return self.fail(format!("request {k}: differs from its set-up outcome"));
        }
        if let Some(ok) = seen.cert_ok {
            self.certify += 1;
            self.certified += u64::from(ok);
        }
        if self.seen[k].is_none() {
            self.seen[k] = Some(seen);
        }
    }

    /// Counts a service status.
    pub fn status(&mut self, status: u16) {
        match status {
            400 => self.status_400 += 1,
            503 => self.status_503 += 1,
            500..=599 => self.status_5xx += 1,
            _ => {}
        }
    }
}

/// Runs whole passes of the sequence until `seconds` have passed and at
/// least [`min_passes`] are done, untraced.
pub fn run_passes(inst: &Instance, seconds: f64) -> Tally {
    let mut t = Tally::new(inst.corpus.distinct.len());
    let start = Instant::now();
    while t.passes < min_passes(inst.size) || start.elapsed().as_secs_f64() < seconds {
        pass(inst, &mut t);
    }
    t
}

/// One untraced pass of the sequence.
pub fn pass(inst: &Instance, t: &mut Tally) {
    match inst.workload {
        Workload::ServiceMixed => service_pass(inst, t, None, &mut Vec::new()),
        _ => compute_pass(inst, t),
    }
    t.passes += 1;
}

fn compute_pass(inst: &Instance, t: &mut Tally) {
    let limits = harness_limits();
    let mut timer = PassTimer::new(inst, t);
    for step in &inst.corpus.sequence {
        let Step::Run(k) = *step else {
            unreachable!("only service-mixed sends malformed bodies")
        };
        let s = Instant::now();
        let r = compute(&inst.corpus.distinct[k].req, &limits);
        t.latencies_ns.push(s.elapsed().as_nanos() as u64);
        t.attempted += 1;
        t.record(inst, k, r.map(|o| Seen::of(&o)).map_err(|e| e.to_string()));
        timer.tick(t);
    }
    timer.close(t);
}

/// One pass against a fresh server, so that every pass sees the same
/// cache misses and the unbounded result cache does not grow with
/// throughput. With a tracer, each request is a `request` root around a
/// `service.request` span, and `(key, cached, latency ns)` of every
/// answered pipeline request is appended to `log`.
pub fn service_pass(
    inst: &Instance,
    t: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    log: &mut Vec<(usize, bool, u64)>,
) {
    let server = match start_server() {
        Ok(s) => s,
        Err(e) => {
            t.attempted += 1;
            return t.fail(format!("server start: {e}"));
        }
    };
    let addr = server.addr.to_string();
    let t0 = Instant::now();
    // the traced run's passes are not calibrated
    let mut timer = tracer.is_none().then(|| PassTimer::new(inst, t));
    for step in &inst.corpus.sequence {
        let (path, body) = inst.wire(*step);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.begin("request");
            tr.begin("service.request");
        }
        let s = Instant::now();
        let r = request(&addr, "POST", path, body);
        let ns = s.elapsed().as_nanos() as u64;
        if let Some(tr) = tracer.as_deref_mut() {
            tr.end();
            tr.end();
        }
        t.latencies_ns.push(ns);
        t.attempted += 1;
        if let (Step::Run(k), Some(cached)) = (*step, serve_reply(inst, t, *step, r)) {
            log.push((k, cached, ns));
        }
        if let Some(timer) = timer.as_mut() {
            timer.tick(t);
        }
    }
    match timer {
        Some(timer) => timer.close(t),
        None => t.wall_ns += t0.elapsed().as_nanos() as u64,
    }
    t.cache = Some(server.pipeline().cache_stats());
    server.stop();
}

/// Checks and counts one service reply; returns its `cached` flag.
fn serve_reply(
    inst: &Instance,
    t: &mut Tally,
    step: Step,
    r: Result<(u16, Vec<u8>), String>,
) -> Option<bool> {
    let (status, body) = match r {
        Ok(x) => x,
        Err(e) => {
            t.fail(format!("transport: {e}"));
            return None;
        }
    };
    t.status(status);
    match check_reply(inst, step, status, &body) {
        Ok(None) => None,
        Ok(Some((seen, cached))) => {
            if cached {
                t.hits += 1;
            } else {
                t.misses += 1;
            }
            let Step::Run(k) = step else { return None };
            t.record(inst, k, Ok(seen));
            Some(cached)
        }
        Err(e) => {
            t.fail(e);
            None
        }
    }
}
