//! Campaign-engine acceptance: the smoke campaign's artifact is
//! byte-stable across worker counts and digest orderings, its
//! fast-decision rates are monotone non-increasing in `f` with strict
//! adaptivity below the fault bound, and its per-run digests agree with
//! both the compiled single-run `RunSpec`s and the first `Decide` event
//! of each correct process in the traced replay — three independent
//! execution paths, one answer.

use dex::harness::campaign::{aggregate, run_campaign, run_digests, CampaignSpec};
use dex::obs::{EventKind, Scheme};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

#[test]
fn artifact_is_byte_identical_across_worker_counts() {
    let spec = CampaignSpec::smoke();
    let one = run_campaign(&spec, 1).expect("valid campaign");
    let eight = run_campaign(&spec, 8).expect("valid campaign");
    assert_eq!(one.render_json(), eight.render_json());
    assert_eq!(one.summary_markdown(), eight.summary_markdown());
}

#[test]
fn aggregation_is_independent_of_digest_order() {
    let spec = CampaignSpec::smoke();
    let digests = run_digests(&spec, 4).expect("valid campaign");
    let reference = aggregate(&spec, digests.clone()).render_json();
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..3 {
        let mut shuffled = digests.clone();
        shuffled.shuffle(&mut rng);
        assert_eq!(
            aggregate(&spec, shuffled).render_json(),
            reference,
            "shuffled digest order changed the artifact"
        );
    }
}

#[test]
fn smoke_rates_are_monotone_and_strictly_adaptive() {
    let report = run_campaign(&CampaignSpec::smoke(), 4).expect("valid campaign");
    assert_eq!(report.agreement_violations(), 0);
    let audit = report.check_f_monotonicity();
    assert!(
        audit.monotone(),
        "fast rate rose with f: {:?}",
        audit.violations
    );
    // The acceptance bar: strictly higher fast rate at some f < t than at
    // f = t, on at least one canonical chaos schedule (and in fact on the
    // clean network too).
    assert!(audit.strict_canonical >= 1, "no adaptivity under chaos");
    assert!(
        audit.strict > audit.strict_canonical,
        "no adaptivity on the clean network"
    );
}

#[test]
fn digests_agree_with_compiled_runspecs_and_trace_summaries() {
    let spec = CampaignSpec::smoke();
    let cells = spec.cells();
    let digests = run_digests(&spec, 4).expect("valid campaign");
    // Three probes across pairs, phases and chaos schedules.
    for (cell_idx, run) in [(0usize, 0usize), (7, 1), (32, 3)] {
        let digest = digests
            .iter()
            .find(|d| d.cell == cell_idx && d.run == run)
            .expect("every task produced a digest");
        let replay = spec.runspec_for(&cells[cell_idx], run);
        // Path 2: the compiled single-run RunSpec.
        let stats = replay.run().expect("replay runs");
        assert_eq!(u64::from(digest.one_step), stats.paths.count(&"1-step"));
        assert_eq!(u64::from(digest.two_step), stats.paths.count(&"2-step"));
        assert_eq!(u64::from(digest.fallback), stats.paths.count(&"fallback"));
        assert_eq!(digest.undecided as usize, stats.undecided);
        // Path 3: the traced replay — each correct process's first
        // `Decide` event, counted per scheme.
        let traced = replay.traced(0).expect("replay traces");
        let (mut one, mut two, mut fallback) = (0u32, 0u32, 0u32);
        for p in &traced.trace.processes {
            if traced.trace.meta.faulty.contains(&p.id) {
                continue;
            }
            let first = p.events.iter().find_map(|ev| match ev.kind {
                EventKind::Decide { scheme, .. } => Some(scheme),
                _ => None,
            });
            match first {
                Some(Scheme::OneStep) => one += 1,
                Some(Scheme::TwoStep) => two += 1,
                Some(Scheme::Fallback) => fallback += 1,
                None => {}
            }
        }
        assert_eq!(
            (digest.one_step, digest.two_step, digest.fallback),
            (one, two, fallback),
            "cell {cell_idx} run {run}: decide-path counts disagree with the trace"
        );
    }
}

#[test]
fn replay_specs_round_trip_through_cli_flags() {
    // Every campaign grid point compiles to a RunSpec whose CLI rendering
    // parses back to the same spec — any data point is replayable with
    // dex-sim flags.
    let spec = CampaignSpec::smoke();
    let cells = spec.cells();
    for cell_idx in [0, 13, 49] {
        let replay = spec.runspec_for(&cells[cell_idx], 1);
        let args = replay.to_args();
        let parsed = dex::harness::spec::RunSpec::from_args(&args).expect("replay flags parse");
        assert_eq!(parsed, replay);
    }
}
