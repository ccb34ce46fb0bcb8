//! The traced run: each layer's public function called in `compute`'s
//! order (parse → naive run → optimize → certify → execute), with a span
//! around every call, kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use nascent_analysis::context::PassContext;
use nascent_cback::{emit_c, native};
use nascent_driver::harness::{harness_limits, static_instruction_count};
use nascent_driver::http::request;
use nascent_driver::{Mode, Request};
use nascent_interp::{lower, run, run_compiled, run_native, Engine, Limits, RunResult};
use nascent_rangecheck::{optimize_program_logged_timed, OptimizeStats};
use nascent_verify::certify_program;

use crate::corpus::Step;
use crate::exec::{self, min_passes, service_pass, start_server, Instance, Seen, Tally};
use crate::stats::{median, pct};
use crate::{Metric, Workload};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, or a root name (`request`, `inproc`, `probe`).
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one root.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; a span opened with nothing open starts a new root.
    pub fn begin(&mut self, name: &'static str) {
        if self.open.is_empty() {
            self.req += 1;
        }
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            req: self.req,
        });
    }

    /// Closes the innermost open span and returns its duration, ns.
    pub fn end(&mut self) -> u64 {
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end_ns = self.now();
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `chrome://tracing` JSON of every span.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            );
        }
        out.push_str("]}");
        out
    }
}

/// What the layer-by-layer path learned about one request.
pub struct Layered {
    /// The checked parts.
    pub seen: Seen,
    /// Optimizer statistics.
    pub stats: OptimizeStats,
    /// Wall time of each optimizer pass, ns.
    pub pass_ns: BTreeMap<&'static str, u64>,
    /// Static instruction cost of the optimized program.
    pub ir_cost: u64,
    /// Certificate obligations (certify mode).
    pub obligations: u64,
    /// Instructions plus checks the VM executed (naive and optimized).
    pub vm_steps: u64,
    /// Source bytes compiled.
    pub src_bytes: u64,
    /// Wall time of the whole layered run, ns.
    pub wall_ns: u64,
}

fn run_on(
    tr: &mut Tracer,
    prog: &nascent_ir::Program,
    engine: Engine,
    limits: &Limits,
    name: &'static str,
) -> Result<RunResult, String> {
    match engine {
        Engine::Vm => {
            let lowered = tr.time("interp.lower", || lower(prog));
            tr.time(name, || run_compiled(&lowered, limits))
        }
        Engine::Native => tr.time("cback.exec", || run_native(prog, limits)),
        Engine::Tree => tr.time(name, || run(prog, limits)),
    }
    .map_err(|e| e.to_string())
}

/// One request through each layer's public function, in `compute`'s
/// order, under a root span named `root`.
///
/// # Errors
///
/// A compile or run error, as `compute` would report it.
pub fn layered(
    tr: &mut Tracer,
    root: &'static str,
    req: &Request,
    limits: &Limits,
) -> Result<Layered, String> {
    tr.begin(root);
    let r = layered_spans(tr, req, limits);
    let wall_ns = tr.end();
    let (mut l, prog) = r?;
    l.ir_cost = static_instruction_count(&prog);
    l.wall_ns = wall_ns;
    Ok(l)
}

fn layered_spans(
    tr: &mut Tracer,
    req: &Request,
    limits: &Limits,
) -> Result<(Layered, nascent_ir::Program), String> {
    let engine = req.config.engine;
    let naive_prog = tr
        .time("frontend.compile", || {
            nascent_frontend::compile(&req.program)
        })
        .map_err(|e| e.to_string())?;
    let naive = run_on(tr, &naive_prog, engine, limits, "interp.naive_run")?;
    let reference = (req.mode == Mode::Certify).then(|| naive_prog.clone());
    let mut prog = naive_prog;
    let opts = req.config.opts();
    let (stats, logs, timings) = tr.time("core.optimize", || {
        optimize_program_logged_timed(&mut prog, &opts)
    });
    let cert = reference.map(|r| {
        tr.time("verify.certify", || {
            certify_program(&r, &prog, &logs, &opts)
        })
    });
    let opt = run_on(tr, &prog, engine, limits, "interp.opt_run")?;
    let steps = |r: &RunResult| r.dynamic_instructions + r.dynamic_checks;
    let l = Layered {
        seen: Seen {
            output: opt.output.iter().map(|v| v.to_string()).collect(),
            trap: opt.trap.is_some(),
            naive_checks: naive.dynamic_checks,
            dynamic_checks: opt.dynamic_checks,
            cert_ok: cert.as_ref().map(|c| c.ok()),
        },
        stats,
        pass_ns: timings
            .passes
            .iter()
            .map(|(k, v)| (*k, v.nanos as u64))
            .collect(),
        ir_cost: 0,
        src_bytes: req.program.len() as u64,
        wall_ns: 0,
        obligations: cert.as_ref().map_or(0, |c| c.obligations as u64),
        vm_steps: if engine == Engine::Vm {
            steps(&naive) + steps(&opt)
        } else {
            0
        },
    };
    Ok((l, prog))
}

/// What the traced phase gathered.
pub struct Traced {
    /// Counts and checks, as in the untraced phase.
    pub tally: Tally,
    /// Every span.
    pub tracer: Tracer,
    /// First layered outcome per distinct request.
    pub first: Vec<Option<Layered>>,
    /// Per-request optimizer pass times, ns (pass name → samples).
    pub pass_ns: BTreeMap<&'static str, Vec<f64>>,
    /// VM instructions plus checks over all layered runs.
    pub vm_steps: u64,
    /// Source bytes compiled by all layered runs.
    pub src_bytes: u64,
    /// Certificate obligations over all layered runs.
    pub obligations: u64,
    /// Service requests: (distinct key, cached, client latency ns).
    pub service: Vec<(usize, bool, u64)>,
    /// Native compile-cache traffic during the timed passes.
    pub native: native::NativeCacheStats,
}

/// Alternates untraced and traced passes until `seconds` have passed (at
/// least the minimum number of each), so that both see the same
/// conditions, then runs the per-layer probes.
pub fn run_traced(inst: &Instance, seconds: f64) -> (Tally, Traced) {
    let mut untraced = Tally::new(inst.corpus.distinct.len());
    let n = inst.corpus.distinct.len();
    let mut t = Traced {
        tally: Tally::new(n),
        tracer: Tracer::new(),
        first: (0..n).map(|_| None).collect(),
        pass_ns: BTreeMap::new(),
        vm_steps: 0,
        src_bytes: 0,
        obligations: 0,
        service: Vec::new(),
        native: native::NativeCacheStats::default(),
    };
    let native_before = native::global_stats();
    let start = Instant::now();
    while t.tally.passes < min_passes(inst.size) || start.elapsed().as_secs_f64() < seconds {
        exec::pass(inst, &mut untraced);
        match inst.workload {
            Workload::ServiceMixed => {
                service_pass(inst, &mut t.tally, Some(&mut t.tracer), &mut t.service)
            }
            _ => traced_pass(inst, &mut t),
        }
        t.tally.passes += 1;
    }
    t.native = native::global_stats().since(&native_before);
    probes(inst, &mut t);
    (untraced, t)
}

fn keep(t: &mut Traced, k: usize, l: Layered) {
    for (name, ns) in &l.pass_ns {
        t.pass_ns.entry(name).or_default().push(*ns as f64);
    }
    t.vm_steps += l.vm_steps;
    t.src_bytes += l.src_bytes;
    t.obligations += l.obligations;
    if t.first[k].is_none() {
        t.first[k] = Some(l);
    }
}

fn traced_pass(inst: &Instance, t: &mut Traced) {
    let limits = harness_limits();
    let t0 = Instant::now();
    for step in &inst.corpus.sequence {
        let Step::Run(k) = *step else {
            unreachable!("only service-mixed sends malformed bodies")
        };
        let r = layered(
            &mut t.tracer,
            "request",
            &inst.corpus.distinct[k].req,
            &limits,
        );
        t.tally.attempted += 1;
        match r {
            Ok(l) => {
                t.tally.record(inst, k, Ok(l.seen.clone()));
                keep(t, k, l);
            }
            Err(e) => t.tally.record(inst, k, Err(e)),
        }
    }
    t.tally.wall_ns += t0.elapsed().as_nanos() as u64;
}

/// Per-layer work outside the request path: each analysis query on its
/// own, the C emitter, and (service) the in-process layered run of each
/// request and bare round trips.
fn probes(inst: &Instance, t: &mut Traced) {
    for p in &inst.corpus.programs {
        let Ok(prog) = nascent_frontend::compile(&p.source) else {
            continue;
        };
        t.tracer.begin("probe");
        for f in &prog.functions {
            let mut ctx = PassContext::new();
            t.tracer.time("analysis.dom", || ctx.dominators(f));
            t.tracer.time("analysis.loops", || ctx.loop_forest(f));
            t.tracer.time("analysis.ssa", || ctx.ssa(f));
            t.tracer.time("analysis.induction", || ctx.induction(f));
            t.tracer.time("analysis.vra", || ctx.vra(f));
        }
        t.tracer.end();
    }
    let limits = harness_limits();
    for (k, d) in inst.corpus.distinct.iter().enumerate() {
        match inst.workload {
            Workload::PaperExecute if d.req.config.engine == Engine::Native => {
                let Ok(naive) = nascent_frontend::compile(&d.req.program) else {
                    continue;
                };
                let mut opt = naive.clone();
                optimize_program_logged_timed(&mut opt, &d.req.config.opts());
                t.tracer.begin("probe");
                t.tracer.time("cback.emit", || emit_c(&naive));
                t.tracer.time("cback.emit", || emit_c(&opt));
                t.tracer.end();
            }
            Workload::ServiceMixed => {
                if let Ok(l) = layered(&mut t.tracer, "inproc", &d.req, &limits) {
                    keep(t, k, l);
                }
            }
            _ => {}
        }
    }
    if inst.workload == Workload::ServiceMixed {
        if let Ok(server) = start_server() {
            let addr = server.addr.to_string();
            t.tracer.begin("probe");
            for _ in 0..50 {
                let r = t
                    .tracer
                    .time("service.connect", || request(&addr, "GET", "/healthz", b""));
                t.tally.attempted += 1;
                if !matches!(r, Ok((200, _))) {
                    t.tally.fail(format!("GET /healthz: {r:?}"));
                }
            }
            t.tracer.end();
            server.stop();
        }
    }
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Layers whose self time the request spans attribute.
pub const SELF_LAYERS: [&str; 6] = ["frontend", "core", "verify", "interp", "cback", "service"];

/// Self time of each layer, and of the root (unattributed), over the
/// `request` roots, as shares of their total wall time.
pub fn self_shares(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut total = 0.0;
    let mut unattributed = 0.0;
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(i)].name != "request" {
            continue;
        }
        let own = s.dur_ns().saturating_sub(child_ns[i]) as f64;
        if s.parent.is_none() {
            total += s.dur_ns() as f64;
            unattributed += own;
        } else {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += own;
        }
    }
    let shares = SELF_LAYERS
        .iter()
        .map(|l| (*l, pct(by_layer.get(l).copied().unwrap_or(0.0), total)))
        .collect();
    (shares, pct(unattributed, total))
}

/// Every per-layer metric; a layer the workload does not exercise reads 0.
pub fn per_layer(inst: &Instance, untraced: &Tally, t: &Traced) -> Vec<Metric> {
    let spans = t.tracer.spans();
    let med = |name: &str| median(&durations_ms(spans, name));
    let sum_ms = |name: &str| durations_ms(spans, name).iter().sum::<f64>();
    let pass_med = |name: &str| median(t.pass_ns.get(name).map_or(&[][..], |v| v)) / 1e6;
    let firsts = || t.first.iter().flatten();
    let total = |f: &dyn Fn(&Layered) -> u64| firsts().map(f).sum::<u64>() as f64;

    let rps = |tally: &Tally| tally.attempted as f64 / (tally.wall_ns as f64 / 1e9).max(1e-9);
    let (shares, unattributed) = self_shares(spans);
    let certify_ms = sum_ms("verify.certify");
    let vm_run_ns = (sum_ms("interp.naive_run") + sum_ms("interp.opt_run")) * 1e6;
    let (cache_hit, cache_entries) = t
        .tally
        .cache
        .map_or((0.0, 0.0), |c| (100.0 * c.hit_rate(), c.entries as f64));
    let service_ms = |cached: bool| {
        let v: Vec<f64> = t
            .service
            .iter()
            .filter(|s| s.1 == cached)
            .map(|s| s.2 as f64 / 1e6)
            .collect();
        median(&v)
    };
    // a miss's client latency minus the in-process layered run of the
    // same request
    let overhead: Vec<f64> = t
        .service
        .iter()
        .filter(|s| !s.1)
        .filter_map(|&(k, _, ns)| {
            t.first[k]
                .as_ref()
                .map(|l| (ns as f64 - l.wall_ns as f64) / 1e6)
        })
        .collect();

    let mut m = vec![
        Metric::new("frontend.compile_ms", med("frontend.compile"), "ms"),
        Metric::new(
            "frontend.src_kb_per_s",
            t.src_bytes as f64 / 1e3 / (sum_ms("frontend.compile") / 1e3).max(1e-12),
            "kB/s",
        ),
        Metric::new("analysis.dom_ms", med("analysis.dom"), "ms"),
        Metric::new("analysis.loops_ms", med("analysis.loops"), "ms"),
        Metric::new("analysis.ssa_ms", med("analysis.ssa"), "ms"),
        Metric::new("analysis.induction_ms", med("analysis.induction"), "ms"),
        Metric::new("analysis.vra_ms", med("analysis.vra"), "ms"),
        Metric::new("core.optimize_ms", med("core.optimize"), "ms"),
        Metric::new("core.preheader-hoist_ms", pass_med("preheader-hoist"), "ms"),
        Metric::new("core.elim_ms", pass_med("elim"), "ms"),
        Metric::new("core.fold_ms", pass_med("fold"), "ms"),
        Metric::new(
            "core.static_checks_before",
            total(&|l| l.stats.static_before as u64),
            "count",
        ),
        Metric::new(
            "core.static_checks_after",
            total(&|l| l.stats.static_after as u64),
            "count",
        ),
        Metric::new("core.hoisted", total(&|l| l.stats.hoisted as u64), "count"),
        Metric::new(
            "core.discharged",
            total(&|l| l.stats.discharged as u64),
            "count",
        ),
        Metric::new(
            "core.dataflow_iterations",
            total(&|l| l.stats.dataflow_iterations),
            "count",
        ),
        Metric::new("core.ir_cost_after", total(&|l| l.ir_cost), "count"),
        Metric::new("verify.certify_ms", med("verify.certify"), "ms"),
        Metric::new("verify.obligations", total(&|l| l.obligations), "count"),
        Metric::new(
            "verify.obligations_per_ms",
            if certify_ms > 0.0 {
                t.obligations as f64 / certify_ms
            } else {
                0.0
            },
            "1/ms",
        ),
        Metric::new(
            "verify.rejected",
            total(&|l| u64::from(l.seen.cert_ok == Some(false))),
            "count",
        ),
        Metric::new("interp.lower_ms", med("interp.lower"), "ms"),
        Metric::new("interp.naive_run_ms", med("interp.naive_run"), "ms"),
        Metric::new("interp.opt_run_ms", med("interp.opt_run"), "ms"),
        Metric::new(
            "interp.vm_ns_per_step",
            if t.vm_steps > 0 {
                vm_run_ns / t.vm_steps as f64
            } else {
                0.0
            },
            "ns/step",
        ),
        Metric::new(
            "interp.dynamic_checks",
            total(&|l| l.seen.dynamic_checks),
            "count",
        ),
        Metric::new("cback.emit_ms", med("cback.emit"), "ms"),
        Metric::new("cback.compile_ms", median(&inst.native_compile_ms), "ms"),
        Metric::new("cback.exec_ms", med("cback.exec"), "ms"),
        Metric::new("cback.cache_hit_pct", 100.0 * t.native.hit_rate(), "%"),
        Metric::new("driver.cache_hit_pct", cache_hit, "%"),
        Metric::new("driver.cache_entries", cache_entries, "count"),
        Metric::new("service.hit_ms", service_ms(true), "ms"),
        Metric::new("service.miss_ms", service_ms(false), "ms"),
        Metric::new("service.overhead_ms", median(&overhead), "ms"),
        Metric::new("service.connect_ms", med("service.connect"), "ms"),
        Metric::new(
            "service.status_400",
            (untraced.status_400 + t.tally.status_400) as f64,
            "count",
        ),
        Metric::new(
            "service.status_503",
            (untraced.status_503 + t.tally.status_503) as f64,
            "count",
        ),
        Metric::new(
            "service.status_5xx",
            (untraced.status_5xx + t.tally.status_5xx) as f64,
            "count",
        ),
    ];
    for (layer, share) in shares {
        m.push(Metric::new(&format!("{layer}.self_pct"), share, "%"));
    }
    m.push(Metric::new(
        "trace_overhead_pct",
        100.0 * (1.0 - rps(&t.tally) / rps(untraced).max(1e-12)),
        "%",
    ));
    m.push(Metric::new("unattributed_pct", unattributed, "%"));
    m
}
