//! A durable, queue-fed fleet gateway in miniature.
//!
//! A production gateway runs update cycles on a timer, takes field
//! measurements whenever surveyors upload them, and must survive a
//! process restart without losing a single reconstructed database.
//! This example walks that lifecycle end to end through the
//! [`FleetGateway`]:
//!
//! 1. launch a gateway over three deployments and run two cycles,
//!    writing a v3 checkpoint to disk after every commit;
//! 2. "crash" (drop the gateway without a shutdown) and restore the
//!    fleet from the last checkpoint on disk;
//! 3. feed the restored gateway *asynchronously*: send measurement
//!    batches from twin testbeds over the ingest channel, then run a
//!    timer cycle that drains them;
//! 4. read through the published snapshots and verify the resumed
//!    fleet is bit-identical to a control fleet that never crashed.
//!
//! ```text
//! cargo run --release --example durable_fleet
//! ```

use iupdater::core::persist;
use iupdater::core::prelude::*;
use iupdater::rfsim::{Environment, Testbed};

const SEED: u64 = 2017;
const SURVEY_SAMPLES: usize = 20;
const UPDATE_SAMPLES: usize = 5;

fn build_fleet() -> Result<UpdateService, CoreError> {
    let mut service = UpdateService::new();
    for (i, env) in Environment::all_presets().into_iter().enumerate() {
        let name = format!("{}", env.kind);
        service.register(
            name,
            Testbed::new(env, SEED.wrapping_add(i as u64)),
            UpdaterConfig::default(),
            SURVEY_SAMPLES,
        )?;
    }
    Ok(service)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let checkpoint =
        std::env::temp_dir().join(format!("durable-fleet-{}.snap", std::process::id()));
    // Twin testbeds stand in for the surveyors in the field; the
    // gateway owns the real simulators on its drive loop.
    let twins: Vec<Testbed> = Environment::all_presets()
        .into_iter()
        .enumerate()
        .map(|(i, env)| Testbed::new(env, SEED.wrapping_add(i as u64)))
        .collect();

    // --- Phase 1: a scheduled campaign with checkpoint-on-commit. ---
    let gw = FleetGateway::launch(build_fleet()?)?;
    println!("fleet up: {} deployments", gw.len());
    for (k, day) in [5.0, 15.0].into_iter().enumerate() {
        gw.run_cycle(day, UPDATE_SAMPLES)?;
        // Atomic replace: the previous checkpoint stays intact if the
        // gateway dies mid-write.
        persist::write_service_to_path(&gw.snapshot()?, &checkpoint)?;
        println!(
            "cycle {k} committed, checkpoint at {}",
            checkpoint.display()
        );
    }

    // --- Phase 2: crash, then restore from the last checkpoint. ---
    drop(gw);
    println!("gateway 'crashed'; restoring from {}", checkpoint.display());
    let text = std::fs::read(&checkpoint)?;
    let snapshot = persist::read_service(text.as_slice())?;
    let gw = FleetGateway::restore(&snapshot)?;
    let ids = gw.ids();
    for &id in &ids {
        let snap = gw.published(id)?;
        println!(
            "  restored {:<8} cycles={} last_update_day={}",
            snap.name(),
            snap.cycles_run(),
            snap.last_update_day(),
        );
    }

    // --- Phase 3: asynchronous ingest. Surveyors upload day-45 walks
    // whenever they finish; the solve happens later, on the timer. ---
    for ((&id, twin), dep) in ids.iter().zip(&twins).zip(&snapshot.deployments) {
        let batch =
            MeasurementBatch::collect(twin, &dep.reference_locations, 45.0, UPDATE_SAMPLES)?;
        gw.ingest(id, batch)?;
        println!("  queued day-45 batch for {}", dep.name);
    }
    // The timer fires: every deployment drains its queue (none needs
    // the synchronous testbed fallback).
    let outcomes = gw.run_cycle(45.0, UPDATE_SAMPLES)?;
    for o in &outcomes {
        println!(
            "  day {:>4.1}  {:<8} iters={:<3} objective={:.3e}",
            o.day, o.name, o.iterations, o.final_objective
        );
    }

    // A localization query against the freshly published database.
    let y = twins[0].online_measurement(17, 45.0, 7);
    let est = gw.localize(ids[0], &y)?;
    println!(
        "online query on {}: estimated grid cell {} (residual {:.2})",
        gw.published(ids[0])?.name(),
        est.grid,
        est.residual_sq
    );

    // --- Phase 4: the crash was invisible. ---
    let control = FleetGateway::launch(build_fleet()?)?;
    for day in [5.0, 15.0, 45.0] {
        control.run_cycle(day, UPDATE_SAMPLES)?;
    }
    let control = control.shutdown()?.service;
    let resumed = gw.shutdown()?.service;
    for (a, b) in control.ids().into_iter().zip(resumed.ids()) {
        assert!(
            control
                .fingerprint(a)?
                .matrix()
                .approx_eq(resumed.fingerprint(b)?.matrix(), 0.0),
            "restored fleet diverged from the control"
        );
    }
    println!("restored fleet is bit-identical to the never-crashed control");

    std::fs::remove_file(&checkpoint).ok();
    Ok(())
}
