//! Thread-count independence of the engine, exercised *actively*: the
//! solver is run under pool widths 1, 2, 4 and 7 (via the rayon shim's
//! test-only override) and must produce bit-identical results each
//! time, for both sweep orders.
//!
//! `solver_parity.rs` already proves this passively (exact equality
//! against the single-threaded reference under whatever pool the test
//! process has); this tier drives the width directly so the parallel
//! code paths — persistent pool, chunked stealing scheduler, red-black
//! half-sweeps — run even on single-CPU CI.
//!
//! The second test lifts the same guarantee to the fleet: a whole
//! `UpdateService::run_cycle` over a mixed-size fleet (queued batches
//! plus one fallback pull) must commit the same bits at every width,
//! and those bits must equal a sequential per-batch replay through
//! `Updater::update_report`.
//!
//! The override is process-global, so every test here holds
//! [`WIDTH_LOCK`] while it varies the width: no concurrent test can
//! observe an intermediate value. (Engines cache the width at
//! construction; each solve below is built *after* its width is set.)

use std::sync::{Mutex, MutexGuard};

use iupdater_core::config::{CouplingMode, SweepOrder, UpdaterConfig};
use iupdater_core::prelude::*;
use iupdater_core::solver::{Solver, SolverInputs};
use iupdater_linalg::Matrix;
use iupdater_rfsim::{Environment, Testbed};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Serialises the tests that set the process-global pool width.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_lock() -> MutexGuard<'static, ()> {
    WIDTH_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn structured_fingerprint(m: usize, per: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = (0..m)
        .map(|_| -62.0 + (rng.gen::<f64>() - 0.5) * 4.0)
        .collect();
    Matrix::from_fn(m, m * per, |i, j| {
        let owner = j / per;
        let u = j % per;
        if owner == i {
            let x = u as f64 / (per - 1) as f64;
            base[i] - (4.0 + 5.0 * (2.0 * x - 1.0).powi(2))
        } else if owner.abs_diff(i) == 1 {
            base[i] - 1.0
        } else {
            base[i]
        }
    })
}

#[test]
fn results_are_bit_identical_at_every_pool_width() {
    let _width = width_lock();
    // 8 links x 256 cells at rank 8: the column sweep (256 * 64 =
    // 16384) clears MIN_PARALLEL_WORK, so widths > 1 really take the
    // phase-split parallel path.
    let (m, per) = (8usize, 32usize);
    let x = structured_fingerprint(m, per, 51);
    let b = Matrix::from_fn(m, m * per, |i, j| {
        if (j / per).abs_diff(i) <= 1 {
            0.0
        } else {
            1.0
        }
    });
    let x_b = b.hadamard(&x).unwrap();
    let inputs = SolverInputs {
        x_b,
        b,
        p: Some(x.clone()),
        per,
        warm_start: Some(x),
    };

    let solve = |width: usize, order: SweepOrder| {
        rayon::set_num_threads_for_tests(width);
        let cfg = UpdaterConfig {
            rank: Some(8),
            max_iter: 20,
            coupling: CouplingMode::Exact,
            sweep_order: order,
            ..UpdaterConfig::default()
        };
        let report = Solver::new(inputs.clone(), cfg).unwrap().solve().unwrap();
        (
            report.reconstruction(),
            report.objective_trace().to_vec(),
            report.iterations(),
        )
    };

    for order in [SweepOrder::GaussSeidel, SweepOrder::RedBlack] {
        let (recon_1, trace_1, iters_1) = solve(1, order);
        for width in [2usize, 4, 7] {
            let (recon_w, trace_w, iters_w) = solve(width, order);
            assert_eq!(
                iters_w, iters_1,
                "{order:?}: iteration count changed at width {width}"
            );
            assert_eq!(
                trace_w, trace_1,
                "{order:?}: objective trace changed at width {width}"
            );
            assert!(
                recon_w.approx_eq(&recon_1, 0.0),
                "{order:?}: reconstruction changed at width {width} (max |Δ| = {})",
                (&recon_w - &recon_1).max_abs()
            );
        }
    }
    rayon::set_num_threads_for_tests(0);
}

/// One site of the mixed fleet: environment, testbed seed, and the
/// days of the batches queued before the cycle.
type SitePlan = (fn() -> Environment, u64, &'static [f64]);

/// 1–4 queued batches on sites of every paper size, and an empty queue
/// on the last site, which therefore falls back to a synchronous
/// testbed pull at the cycle day.
const FLEET_PLAN: [SitePlan; 4] = [
    (Environment::hall, 31, &[3.0, 5.0, 15.0]),
    (Environment::office, 32, &[5.0]),
    (Environment::library, 33, &[3.0, 5.0, 15.0, 45.0]),
    (Environment::office, 34, &[]),
];
const CYCLE_DAY: f64 = 45.0;
const SAMPLES: usize = 2;

/// Registers the fleet and queues its batches; also returns the queued
/// batches per site for the sequential replay.
fn mixed_fleet() -> (UpdateService, Vec<Vec<MeasurementBatch>>) {
    let mut service = UpdateService::new();
    let mut queued = Vec::new();
    for (k, (env, seed, days)) in FLEET_PLAN.iter().enumerate() {
        let id = service
            .register(
                format!("site-{k}"),
                Testbed::new(env(), *seed),
                UpdaterConfig::default(),
                3,
            )
            .unwrap();
        let testbed = service.testbed(id).unwrap().clone();
        let refs = service.updater(id).unwrap().reference_locations().to_vec();
        let batches: Vec<MeasurementBatch> = days
            .iter()
            .map(|&day| MeasurementBatch::collect(&testbed, &refs, day, SAMPLES).unwrap())
            .collect();
        for batch in &batches {
            service.ingest(id, batch.clone()).unwrap();
        }
        queued.push(batches);
    }
    (service, queued)
}

/// The bits an outcome carries, in comparable form.
fn outcome_key(o: &UpdateOutcome) -> (DeploymentId, String, u64, usize, u64, usize) {
    (
        o.id,
        o.name.clone(),
        o.day.to_bits(),
        o.iterations,
        o.final_objective.to_bits(),
        o.reference_count,
    )
}

fn database_bits(service: &UpdateService) -> Vec<Vec<u64>> {
    service
        .ids()
        .into_iter()
        .map(|id| {
            let db = service.fingerprint(id).unwrap().matrix();
            db.as_slice().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

#[test]
fn fleet_cycles_are_bit_identical_at_every_pool_width() {
    let _width = width_lock();

    // Sequential replay: every batch through `update_report` on its
    // own, in deployment then batch order, without the service.
    let (reference, queued) = mixed_fleet();
    let mut expected = Vec::new();
    let mut expected_dbs = Vec::new();
    for (id, batches) in reference.ids().into_iter().zip(&queued) {
        let updater = reference.updater(id).unwrap();
        let pulled;
        let work: &[MeasurementBatch] = if batches.is_empty() {
            let testbed = reference.testbed(id).unwrap();
            let refs = updater.reference_locations();
            pulled = [MeasurementBatch::collect(testbed, refs, CYCLE_DAY, SAMPLES).unwrap()];
            &pulled
        } else {
            batches
        };
        let mut last = None;
        for batch in work {
            let report = updater
                .update_report(batch.reference_columns(), batch.no_decrease(), batch.mask())
                .unwrap();
            expected.push((
                id,
                reference.name(id).unwrap().to_string(),
                batch.day().to_bits(),
                report.iterations(),
                report.objective_trace().last().unwrap().to_bits(),
                updater.reference_locations().len(),
            ));
            last = Some(
                updater
                    .prior()
                    .with_matrix(report.reconstruction())
                    .unwrap(),
            );
        }
        let db = last.unwrap();
        expected_dbs.push(
            db.matrix()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        expected.len(),
        3 + 1 + 4 + 1,
        "one outcome per batch or pull"
    );

    for width in [1usize, 2, 4, 7] {
        rayon::set_num_threads_for_tests(width);
        let (mut service, _) = mixed_fleet();
        let outcomes = service.run_cycle(CYCLE_DAY, SAMPLES).unwrap();
        let got: Vec<_> = outcomes.iter().map(outcome_key).collect();
        assert_eq!(got, expected, "outcomes changed at width {width}");
        assert_eq!(
            database_bits(&service),
            expected_dbs,
            "committed databases changed at width {width}"
        );
        for id in service.ids() {
            assert!(service.ingest_queue(id).unwrap().is_empty());
        }
    }
    rayon::set_num_threads_for_tests(0);
}
