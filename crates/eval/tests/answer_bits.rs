//! Answer-bit tier: pins the exact bits the solver produces on the
//! three standard fleet sites, so that any fast path — a kernel
//! rewrite, a reused workspace, a different fan-out — that changes a
//! single bit of an answer fails here.
//!
//! `solver_parity.rs` compares the engine with `solver::reference` to
//! ≤ 1e-9, and both share `Matrix::lu`, so a change to a shared kernel
//! would move both sides together. This tier instead records a digest
//! (FNV-1a over the iteration count, every objective-trace value's
//! `to_bits()` and every reconstruction entry's `to_bits()`) of each
//! site's first-timestamp update, computed once and frozen below.
//!
//! The solve runs at pool widths 1 and 2 (the shim's test-only
//! override is process-global, so this file holds exactly one test).

use iupdater_core::prelude::*;
use iupdater_eval::ext_fleet::standard_testbeds;
use iupdater_eval::scenario::{DEFAULT_SEED, INITIAL_SURVEY_SAMPLES, TIMESTAMPS, UPDATE_SAMPLES};

/// Frozen `(site, shape, digest)` of the first-timestamp update.
const GOLDEN: [(&str, (usize, usize), u64); 3] = [
    ("hall", (8, 120), 0xa0a4_30e8_8446_7c7d),
    ("office", (8, 96), 0xc5c7_8f95_515e_535d),
    ("library", (6, 72), 0x4a4a_863d_6b61_dad4),
];

/// 64-bit FNV-1a over a stream of words, little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of one solve: iterations, objective trace, reconstruction.
fn digest(report: &iupdater_core::solver::SolveReport) -> u64 {
    let recon = report.reconstruction();
    let words = std::iter::once(report.iterations() as u64)
        .chain(report.objective_trace().iter().map(|v| v.to_bits()))
        .chain(recon.as_slice().iter().map(|v| v.to_bits()));
    fnv1a(words)
}

#[test]
fn first_batch_answers_match_the_frozen_digests() {
    let day = TIMESTAMPS[0].1;
    let sites: Vec<_> = standard_testbeds(DEFAULT_SEED)
        .into_iter()
        .map(|(name, testbed)| {
            let prior = FingerprintMatrix::survey(&testbed, 0.0, INITIAL_SURVEY_SAMPLES);
            let updater = Updater::new(prior, UpdaterConfig::default()).unwrap();
            let batch = MeasurementBatch::collect(
                &testbed,
                updater.reference_locations(),
                day,
                UPDATE_SAMPLES,
            )
            .unwrap();
            (name, updater, batch)
        })
        .collect();
    for width in [1usize, 2] {
        rayon::set_num_threads_for_tests(width);
        for ((name, updater, batch), &(site, shape, golden)) in sites.iter().zip(&GOLDEN) {
            assert_eq!(name, site, "standard_testbeds order changed");
            let report = updater
                .update_report(batch.reference_columns(), batch.no_decrease(), batch.mask())
                .unwrap();
            let got = digest(&report);
            println!(
                "{name} {:?} width {width}: iterations {} digest {got:#018x}",
                batch.mask().shape(),
                report.iterations()
            );
            assert_eq!(batch.mask().shape(), shape, "{name}: problem shape");
            assert_eq!(got, golden, "{name} at width {width}: answer bits changed");
        }
    }
    rayon::set_num_threads_for_tests(0);
}
