//! End-to-end certification tests: the verifier must accept every
//! optimization run the pipeline produces on the benchmark suite, and
//! must reject runs whose justifications have been tampered with.

use nascent_driver::harness::full_matrix_configs;
use nascent_frontend::compile;
use nascent_ir::Stmt;
use nascent_obs::trace::ScopedCollector;
use nascent_rangecheck::{
    inx, optimize_program_logged, CheckKind, Discharge, Event, ImplicationMode, OptimizeOptions,
    Scheme,
};
use nascent_suite::{random_program, test_suite, GenConfig};
use nascent_verify::{certify_program, Certificate};

/// One compile+optimize+certify round trip — the driver's glue, shared
/// with `nascentc verify` and the `nascentd` `/certify` endpoint.
fn certify_source(src: &str, opts: &OptimizeOptions) -> Certificate {
    nascent_driver::certify_source(src, opts).expect("source compiles")
}

/// Every scheme × check kind × implication mode on the full ten-program
/// suite certifies with zero uncovered obligations, and the summed
/// certificate is pinned: how the certifier computes its facts may
/// change, what it proves may not.
#[test]
fn certifier_accepts_all_schemes_on_the_suite() {
    let suite = test_suite();
    let mut total = Certificate::default();
    for config in full_matrix_configs() {
        let opts = config.opts;
        for bench in &suite {
            let cert = certify_source(&bench.source, &opts);
            assert!(
                cert.ok(),
                "{} under {}/{:?}/{:?} rejected:\n{}",
                bench.name,
                opts.scheme.name(),
                opts.kind,
                opts.implications,
                cert.diagnostics
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            assert!(
                cert.obligations > 0,
                "{} produced no obligations",
                bench.name
            );
            total.absorb(cert);
        }
    }
    assert_eq!(
        (
            total.obligations,
            total.vra_discharged,
            total.discharged_by_log,
            total.discharge_events,
            total.diagnostics.len(),
        ),
        (20546, 12936, 12613, 0, 0),
        "obligations, vra_discharged, discharged_by_log, discharge_events, diagnostics"
    );
}

/// The MCM baseline also certifies: its articulation-block hoists are a
/// restriction of the preheader hoist the verifier replays.
#[test]
fn certifier_accepts_mcm_baseline_on_the_suite() {
    let opts = OptimizeOptions::scheme(Scheme::Mcm);
    for bench in &test_suite() {
        let cert = certify_source(&bench.source, &opts);
        assert!(
            cert.ok(),
            "{} under MCM rejected:\n{}",
            bench.name,
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Subscripts the range analysis cannot discharge: `n` and `k` are
/// degree-2 products (opaque to intervals), and the two-variable form
/// `n + k` defeats the symbolic-bound chase, so the only way to certify
/// the check elimination is through the justification log.
const OPAQUE_REDUNDANT: &str = "program p
 integer a(1:100)
 integer m, n, k
 m = 7
 n = m * m
 k = m * m
 a(n + k + 1) = 1
 a(n + k) = 0
end
";

/// Deleting a check without logging the decision is caught, and the
/// diagnostic names the lost check and its site.
#[test]
fn rejects_unjustified_check_deletion() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::None);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    // hand-delete the first unconditional check anywhere in the program
    let mut deleted = None;
    'outer: for f in &mut opt.functions {
        for b in &mut f.blocks {
            for (i, s) in b.stmts.iter().enumerate() {
                if let Stmt::Check(c) = s {
                    if c.is_unconditional() {
                        deleted = Some(c.cond.clone());
                        b.stmts.remove(i);
                        break 'outer;
                    }
                }
            }
        }
    }
    let deleted = deleted.expect("program has a check to delete");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "unjustified deletion must be rejected");
    let d = &cert.diagnostics[0];
    assert_eq!(
        d.check,
        deleted.to_string(),
        "diagnostic names the lost check"
    );
    assert!(
        d.reason.contains("not covered"),
        "diagnostic explains the failure: {d}"
    );
}

/// Tampering with an `Eliminated` event's witness — claiming the check
/// was implied by one that does not imply it — is caught.
#[test]
fn rejects_tampered_elimination_witness() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::All);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    // weaken one witness until it no longer implies the deleted check
    let mut tampered = None;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Eliminated { check, because, .. } = e {
                *because = because.with_bound(because.bound().saturating_add(1000));
                tampered = Some(check.clone());
                break 'outer;
            }
        }
    }
    let tampered = tampered.expect("run eliminated at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "tampered witness must be rejected");
    let d = cert
        .diagnostics
        .iter()
        .find(|d| d.check == tampered.to_string())
        .expect("diagnostic names the check whose justification was tampered");
    assert!(
        d.reason.contains("does not imply") || d.reason.contains("not available"),
        "diagnostic explains the failed implication: {d}"
    );
}

/// Relocating an `Eliminated` event to the wrong block leaves the real
/// deletion site uncovered.
#[test]
fn rejects_relocated_elimination_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_implications(ImplicationMode::All);
    let naive = compile(OPAQUE_REDUNDANT).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);

    let mut moved = false;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Eliminated { block, .. } = e {
                *block = nascent_ir::BlockId(block.index() as u32 + 1_000);
                moved = true;
                break 'outer;
            }
        }
    }
    assert!(moved, "run eliminated at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(
        !cert.ok(),
        "relocated event must leave the deletion uncovered"
    );
}

/// A provable range violation: the hoisted upper-bound check folds to an
/// unconditional trap in the preheader. The early trap certifies (the
/// folded check is itself a justified hoist) and the deleted in-loop
/// check is vacuously covered by the dominating trap.
#[test]
fn certifier_accepts_folded_false_hoist_trap() {
    let src = "program bad
 integer a(1:5)
 integer i
 do i = 1, 9
  a(i) = i
 enddo
end
";
    for scheme in Scheme::EACH {
        let opts = OptimizeOptions::scheme(scheme);
        let cert = certify_source(src, &opts);
        assert!(
            cert.ok(),
            "trapping program under {} rejected:\n{}",
            scheme.name(),
            cert.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// With the discharge tier on, every scheme × kind × implication mode on
/// the full suite still certifies — zero uncovered obligations and zero
/// rejected discharge events — and the tier actually fires somewhere.
#[test]
fn certifier_accepts_discharge_on_across_the_matrix() {
    let suite = test_suite();
    let mut total_events = 0;
    for scheme in Scheme::EACH {
        for kind in [CheckKind::Prx, CheckKind::Inx] {
            for implications in [
                ImplicationMode::All,
                ImplicationMode::CrossFamilyOnly,
                ImplicationMode::None,
            ] {
                let opts = OptimizeOptions::scheme(scheme)
                    .with_kind(kind)
                    .with_implications(implications)
                    .with_discharge(Discharge::On);
                for bench in &suite {
                    let cert = certify_source(&bench.source, &opts);
                    assert!(
                        cert.ok(),
                        "{} under {}/{:?}/{:?} + discharge rejected:\n{}",
                        bench.name,
                        scheme.name(),
                        kind,
                        implications,
                        cert.diagnostics
                            .iter()
                            .map(|d| d.to_string())
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    assert_eq!(cert.discharge_rejected, 0, "{}", bench.name);
                    total_events += cert.discharge_events;
                }
            }
        }
    }
    assert!(
        total_events > 0,
        "discharge tier never fired across the whole matrix"
    );
}

/// Every check deleted by the discharge pass on this program is provable
/// from the loop trip count alone.
const FULLY_DISCHARGEABLE: &str = "program p
 integer a(1:10)
 integer i
 do i = 1, 10
  a(i) = i
 enddo
end
";

/// Tampering with a `Discharged` event's check expression — claiming a
/// different check was discharged — is rejected with a diagnostic naming
/// the forged check.
#[test]
fn rejects_tampered_discharge_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (stats, mut logs) = optimize_program_logged(&mut opt, &opts);
    assert!(stats.discharged > 0, "program must exercise the tier");
    assert!(certify_program(&naive, &opt, &logs, &opts).ok());

    let mut tampered = None;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Discharged { check, .. } = e {
                *check = check.with_bound(check.bound().saturating_add(1_000));
                tampered = Some(check.clone());
                break 'outer;
            }
        }
    }
    let tampered = tampered.expect("run discharged at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "tampered discharge event must be rejected");
    assert!(cert.discharge_rejected > 0);
    let d = cert
        .diagnostics
        .iter()
        .find(|d| d.check == tampered.to_string())
        .expect("diagnostic names the forged check");
    assert!(
        d.reason.contains("not re-proved"),
        "diagnostic explains the failed re-proof: {d}"
    );
}

/// Relocating a `Discharged` event outside the reference function is
/// rejected by name instead of being silently ignored.
#[test]
fn rejects_relocated_discharge_event() {
    let opts = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (_, mut logs) = optimize_program_logged(&mut opt, &opts);

    let mut moved = false;
    'outer: for log in &mut logs {
        for e in &mut log.events {
            if let Event::Discharged { block, .. } = e {
                *block = nascent_ir::BlockId(block.index() as u32 + 1_000);
                moved = true;
                break 'outer;
            }
        }
    }
    assert!(moved, "run discharged at least one check");

    let cert = certify_program(&naive, &opt, &logs, &opts);
    assert!(!cert.ok(), "relocated discharge event must be rejected");
    assert!(cert.discharge_rejected > 0);
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.reason.contains("outside the reference function")),
        "diagnostic names the bogus block"
    );
}

/// A `Discharged` event in a run whose options had the tier off is
/// itself a forgery: the optimizer could not have made that decision.
#[test]
fn rejects_discharge_event_when_tier_off() {
    let opts_on = OptimizeOptions::scheme(Scheme::Ni).with_discharge(Discharge::On);
    let naive = compile(FULLY_DISCHARGEABLE).unwrap();
    let mut opt = naive.clone();
    let (_, logs) = optimize_program_logged(&mut opt, &opts_on);
    assert!(logs.iter().any(|l| !l.events.is_empty()));

    // certify the same artifacts under discharge-off options
    let opts_off = OptimizeOptions::scheme(Scheme::Ni);
    let cert = certify_program(&naive, &opt, &logs, &opts_off);
    assert!(!cert.ok(), "discharge events under an off tier are forged");
    assert!(
        cert.diagnostics
            .iter()
            .any(|d| d.reason.contains("discharge tier is off")),
        "diagnostic explains the mode mismatch"
    );
}

/// Equality-of-strength guard: the optimizer-side and trusted value-range
/// analyses are independent implementations kept in lockstep — on every
/// unconditional check of the suite they must return the same verdict,
/// otherwise a discharge could certify on one side and fail on the other.
#[test]
fn optimizer_and_trusted_vra_agree_on_the_suite() {
    for bench in &test_suite() {
        let prog = compile(&bench.source).unwrap();
        for f in &prog.functions {
            let opt_vra = nascent_analysis::vra::analyze(f);
            let ver_vra = nascent_verify::vra::analyze(f);
            for b in f.block_ids() {
                for (i, s) in f.block(b).stmts.iter().enumerate() {
                    if let Stmt::Check(c) = s {
                        if c.is_unconditional() {
                            assert_eq!(
                                opt_vra.at(f, b, i).verdict(&c.cond),
                                ver_vra.at(f, b, i).verdict(&c.cond),
                                "{}: verdicts diverge at b{}[{}] on `{}`",
                                bench.name,
                                b.index(),
                                i,
                                c.cond
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The value-range analysis statically discharges checks on a meaningful
/// fraction of the suite (constant bounds, loop trip counts).
#[test]
fn vra_discharges_checks_on_several_suite_programs() {
    let opts = OptimizeOptions::scheme(Scheme::Ni);
    let mut programs_with_discharge = 0;
    for bench in &test_suite() {
        let cert = certify_source(&bench.source, &opts);
        assert!(cert.ok());
        if cert.vra_discharged > 0 {
            programs_with_discharge += 1;
        }
    }
    assert!(
        programs_with_discharge >= 3,
        "VRA discharged checks on only {programs_with_discharge} of 10 programs"
    );
}

/// The generator settings of the benchmark's `large-compile` corpus.
fn large_gen_config() -> GenConfig {
    GenConfig {
        max_stmts: 12,
        max_depth: 5,
        ..GenConfig::default()
    }
}

/// The certifier reads each reference check's value-range verdict from
/// one forward sweep per block; that verdict must equal the per-site
/// replay `Vra::at` at every unconditional check, with and without the
/// INX rewrite, on the suite and on generated programs.
#[test]
fn swept_verdicts_equal_replayed_verdicts() {
    let mut sources: Vec<String> = test_suite().into_iter().map(|b| b.source).collect();
    sources.extend((0..4).map(|seed| random_program(seed, &GenConfig::default())));
    sources.push(random_program(126, &large_gen_config()));
    let mut sites = 0;
    for src in &sources {
        for f in &compile(src).unwrap().functions {
            let mut rewritten = f.clone();
            inx::rewrite_checks(&mut rewritten);
            for f in [f, &rewritten] {
                let vra = nascent_verify::vra::analyze(f);
                for b in f.block_ids() {
                    let swept = vra.check_verdicts(f, b);
                    assert_eq!(swept.len(), f.block(b).stmts.len());
                    for (i, s) in f.block(b).stmts.iter().enumerate() {
                        let replayed = match s {
                            Stmt::Check(c) if c.is_unconditional() => {
                                sites += 1;
                                vra.at(f, b, i).verdict(&c.cond)
                            }
                            _ => None,
                        };
                        assert_eq!(swept[i], replayed, "b{}[{i}]: {s:?}", b.index());
                    }
                }
            }
        }
    }
    assert!(sites > 1000, "only {sites} check sites compared");
}

/// A known certifier rejection (the generated programs listed under
/// "Known defect" in `perfbench/README.md`): the diagnostics are pinned,
/// so a change to how the certifier computes its facts cannot silently
/// alter what it rejects and why.
#[test]
fn rejects_generated_program_126_by_name() {
    let opts = OptimizeOptions::scheme(Scheme::Lls).with_kind(CheckKind::Prx);
    let cert = certify_source(&random_program(126, &large_gen_config()), &opts);
    let diagnostics: Vec<String> = cert.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        diagnostics,
        [
            "b77/gap 0: check `0 <= -2`: reference check not covered: hoist cover by `0 <= -2` \
             fails: hoisted check `0 <= -2` not found in preheader b70 and its absence is \
             unjustified",
            "b0/gap 6: check `TRAP`: trap not justified: no folded-false justification matches \
             this trap",
        ]
    );
}

/// `certify` is split into sub-spans, and the optimized-side value-range
/// analysis is built only when an obligation consults it: never on the
/// suite under LLS, but for the preheader `TRAP` that `violation.mf`
/// folds to.
#[test]
fn certify_sub_spans_show_when_the_optimized_side_vra_is_built() {
    let opts = OptimizeOptions::scheme(Scheme::Lls);
    let traced = |src: &str| {
        let collector = ScopedCollector::begin();
        let cert = certify_source(src, &opts);
        let names: Vec<&str> = collector.finish().iter().map(|s| s.name).collect();
        assert!(cert.ok(), "{cert}");
        names
    };
    for bench in &test_suite() {
        let names = traced(&bench.source);
        for want in [
            "certify",
            "trusted-context",
            "antic",
            "avail",
            "vra-ref",
            "direction-a",
            "direction-b",
            "direction-c",
        ] {
            assert!(names.contains(&want), "{}: no `{want}` span", bench.name);
        }
        assert!(
            !names.contains(&"vra-opt"),
            "{}: optimized-side VRA built but never needed",
            bench.name
        );
    }
    let violation = include_str!("../../../programs/violation.mf");
    assert!(traced(violation).contains(&"vra-opt"));
}
