//! The inputs of each workload: its distinct programs, its distinct
//! requests, one pass of its request sequence, and the tree-walker
//! reference run of every program.
//!
//! Every workload's *set* of distinct requests is fixed; the workload
//! seed draws the order of a pass (and, on `service-mixed`, where the
//! malformed bodies go). See `README.md` for why.

use nascent_driver::harness::{full_matrix_configs, harness_limits};
use nascent_driver::json::{obj, Json};
use nascent_driver::{Mode, Request, RunConfig};
use nascent_interp::Engine;
use nascent_rangecheck::{CheckKind, ImplicationMode, OptimizeOptions, Scheme};
use nascent_suite::{random_program, suite, GenConfig, Scale};

use crate::{Size, Workload};

/// splitmix64: a small, well-mixed generator, so that a seed gives the
/// same sequence on every host.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One program of a workload.
#[derive(Debug, Clone)]
pub struct Program {
    /// Suite name, or `random_program(<generator seed>)`.
    pub name: String,
    /// MiniF source text.
    pub source: String,
}

/// One distinct request of a workload.
#[derive(Debug, Clone)]
pub struct Distinct {
    /// The pipeline request.
    pub req: Request,
    /// Index of its program in [`Corpus::programs`].
    pub program: usize,
    /// The `nascentd` request body (`service-mixed` only).
    pub body: Vec<u8>,
}

/// One request of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Distinct request `k`.
    Run(usize),
    /// Malformed body `k` of [`MALFORMED`], which must receive 400.
    Malformed(usize),
}

/// Bodies `nascentd` must reject with 400 before any pipeline work.
pub const MALFORMED: [&str; 4] = [
    "not json at all",
    "{\"scheme\": \"LLS\"}",
    "{\"program\": 42}",
    "{\"program\": \"program p\\nend\\n\", \"scheme\": \"XYZ\"}",
];

/// The tree-walker's run of a naive program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Printed values, rendered.
    pub output: Vec<String>,
    /// Whether the run ended in a range-check trap.
    pub trap: bool,
}

impl Reference {
    /// A trap-free reference needs equal output and no trap; a trapping
    /// one needs a trap and output that is a prefix of its own.
    pub fn accepts(&self, output: &[String], trap: bool) -> bool {
        if self.trap {
            trap && self.output.starts_with(output)
        } else {
            !trap && output == self.output.as_slice()
        }
    }
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Distinct programs.
    pub programs: Vec<Program>,
    /// Distinct requests.
    pub distinct: Vec<Distinct>,
    /// One pass, in the order the seed drew.
    pub sequence: Vec<Step>,
}

/// Times each distinct request occurs in one pass.
fn repeats(workload: Workload, size: Size) -> usize {
    match (workload, size) {
        (Workload::PaperExecute, Size::Full) => 4,
        // every key repeats, so three of four pipeline requests are hits
        (Workload::ServiceMixed, _) => 4,
        _ => 1,
    }
}

/// Line-count targets of the `large-compile` corpus: log-spaced from 200
/// to 2000 lines, one program each.
fn large_targets(size: Size) -> Vec<f64> {
    let n: i32 = match size {
        Size::Full => 48,
        Size::Smoke => 3,
    };
    let top = match size {
        Size::Full => 10.0f64,
        Size::Smoke => 1.5,
    };
    (0..n)
        .map(|j| 200.0 * top.powf(f64::from(j) / f64::from(n - 1)))
        .collect()
}

/// Generator settings of the `large-compile` corpus.
fn large_gen_config() -> GenConfig {
    GenConfig {
        max_stmts: 12,
        max_depth: 5,
        ..GenConfig::default()
    }
}

/// The `large-compile` corpus: for each line-count target, the program of
/// the lowest generator seed within 4% of it. Nothing else is selected
/// on: trapping programs and certifier rejections stay in.
fn large_corpus(size: Size) -> Vec<Program> {
    let targets = large_targets(size);
    let cfg = large_gen_config();
    let mut slots: Vec<Option<Program>> = vec![None; targets.len()];
    let mut left = targets.len();
    let mut gen_seed = 0u64;
    while left > 0 {
        let source = random_program(gen_seed, &cfg);
        let lines = source.lines().count() as f64;
        let slot = (0..targets.len())
            .find(|&j| slots[j].is_none() && (lines / targets[j] - 1.0).abs() <= 0.04);
        if let Some(j) = slot {
            slots[j] = Some(Program {
                name: format!("random_program({gen_seed})"),
                source,
            });
            left -= 1;
        }
        gen_seed += 1;
    }
    slots.into_iter().flatten().collect()
}

fn suite_programs(scale: Scale, size: Size) -> Vec<Program> {
    let take = match size {
        Size::Full => usize::MAX,
        Size::Smoke => 2,
    };
    suite(scale)
        .into_iter()
        .take(take)
        .map(|b| Program {
            name: b.name.to_string(),
            source: b.source,
        })
        .collect()
}

fn matrix(size: Size) -> Vec<OptimizeOptions> {
    let take = match size {
        Size::Full => usize::MAX,
        Size::Smoke => 3,
    };
    full_matrix_configs()
        .into_iter()
        .take(take)
        .map(|c| c.opts)
        .collect()
}

fn service_body(program: &str, opts: &OptimizeOptions) -> Vec<u8> {
    let kind = match opts.kind {
        CheckKind::Prx => "prx",
        CheckKind::Inx => "inx",
    };
    let implications = match opts.implications {
        ImplicationMode::All => "all",
        ImplicationMode::CrossFamilyOnly => "cross",
        ImplicationMode::None => "none",
    };
    obj(vec![
        ("program", Json::Str(program.to_string())),
        ("scheme", Json::Str(opts.scheme.name().to_string())),
        ("kind", Json::Str(kind.to_string())),
        ("implications", Json::Str(implications.to_string())),
    ])
    .render()
    .into_bytes()
}

/// Builds a workload's inputs for `seed`.
pub fn build(workload: Workload, size: Size, seed: u64) -> Corpus {
    let mut distinct = Vec::new();
    let mut push = |program: usize, config: RunConfig, mode: Mode, body: Vec<u8>| {
        distinct.push(Distinct {
            req: Request {
                program: String::new(),
                config,
                mode,
            },
            program,
            body,
        });
    };
    let programs = match workload {
        // certifier-bound: verify ~73% of a request, engines under 10%
        Workload::SuiteCertify => {
            let programs = suite_programs(Scale::Small, size);
            for opts in matrix(size) {
                for p in 0..programs.len() {
                    push(p, RunConfig::from_opts(&opts), Mode::Certify, Vec::new());
                }
            }
            programs
        }
        // optimizer-bound: core ~80%, superlinear in program size
        Workload::LargeCompile => {
            let programs = large_corpus(size);
            for p in 0..programs.len() {
                push(p, RunConfig::default(), Mode::Certify, Vec::new());
            }
            programs
        }
        // engine-bound, no certifier: certifier work must not move it
        Workload::PaperExecute => {
            let scale = match size {
                Size::Full => Scale::Paper,
                Size::Smoke => Scale::Small,
            };
            let programs = suite_programs(scale, size);
            for engine in [Engine::Vm, Engine::Native] {
                for scheme in [Scheme::Ni, Scheme::Lls] {
                    let config = RunConfig {
                        engine,
                        ..RunConfig::from_opts(&OptimizeOptions::scheme(scheme))
                    };
                    for p in 0..programs.len() {
                        push(p, config, Mode::Optimize, Vec::new());
                    }
                }
            }
            programs
        }
        // the only workload through http, json, the result cache and
        // the service; a hit bypasses every layer below the cache
        Workload::ServiceMixed => {
            let programs = suite_programs(Scale::Small, size);
            for mode in [Mode::Optimize, Mode::Certify] {
                for opts in matrix(size) {
                    for (p, prog) in programs.iter().enumerate() {
                        let body = service_body(&prog.source, &opts);
                        push(p, RunConfig::from_opts(&opts), mode, body);
                    }
                }
            }
            programs
        }
    };
    for d in &mut distinct {
        d.req.program = programs[d.program].source.clone();
    }

    let mut sequence: Vec<Step> = (0..repeats(workload, size))
        .flat_map(|_| (0..distinct.len()).map(Step::Run))
        .collect();
    if workload == Workload::ServiceMixed {
        // 2% malformed bodies, at least one of each kind on a full pass
        let malformed = (sequence.len() / 50).max(1);
        sequence.extend((0..malformed).map(|i| Step::Malformed(i % MALFORMED.len())));
    }
    Rng::new(seed).shuffle(&mut sequence);
    Corpus {
        programs,
        distinct,
        sequence,
    }
}

/// Runs a program once on the tree-walker (`nascent_interp::run`), the
/// reference semantics every response is checked against.
///
/// # Errors
///
/// A program that fails to compile or ends in a run error rather than a
/// trap: the workloads are built so that no operation fails.
pub fn reference(p: &Program) -> Result<Reference, String> {
    let prog = nascent_frontend::compile(&p.source)
        .map_err(|e| format!("{}: does not compile: {e}", p.name))?;
    let run = nascent_interp::run(&prog, &harness_limits())
        .map_err(|e| format!("{}: reference run failed: {e}", p.name))?;
    Ok(Reference {
        output: run.output.iter().map(|v| v.to_string()).collect(),
        trap: run.trap.is_some(),
    })
}
