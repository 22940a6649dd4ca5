//! Serving localization queries *while* the fleet updates itself.
//!
//! The [`FleetGateway`] is the read/write-separated front of the
//! update service: the service lives on a detached drive loop,
//! measurement batches arrive over a bounded ingest channel, and each
//! deployment's committed database + prepared localizer is published
//! as an epoch-swapped snapshot. Readers grab the current epoch and
//! never block — a commit lands by atomic swap, old epochs retire once
//! the last reader drops them. This example walks that lifecycle:
//!
//! 1. launch a gateway over a three-deployment fleet (epoch 1);
//! 2. storm the published snapshots from reader threads while update
//!    cycles commit concurrently on the drive loop, watching epochs
//!    advance mid-storm and cross-checking served estimates against
//!    the from-scratch oracle on the observed epoch;
//! 3. pin one snapshot across a commit to show a long-running reader
//!    keeps answering on its original epoch;
//! 4. feed a measurement batch through the ingest channel and shut
//!    down in order, verifying the drain report returned the fleet
//!    with nothing lost.
//!
//! ```text
//! cargo run --release --example fleet_gateway
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use iupdater::core::localize::first_oracle_mismatch;
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

fn main() -> Result<(), CoreError> {
    // Twin testbeds generate query traffic; the gateway owns the real
    // simulators on its drive loop.
    let twins: Vec<Testbed> = Environment::all_presets()
        .into_iter()
        .enumerate()
        .map(|(i, env)| Testbed::new(env, SEED.wrapping_add(i as u64)))
        .collect();

    // 1. Launch: every deployment starts published at epoch 1 (the
    //    day-0 survey database).
    let gw = FleetGateway::launch(build_fleet()?)?;
    let ids = gw.ids();
    println!("launched: {} deployments, all at epoch 1", gw.len());

    // 2. Query storm concurrent with update cycles. Readers never
    //    block on the writer: each read pins the snapshot it observed,
    //    answers on it, and checks the answer against the unprepared
    //    oracle on that exact epoch.
    let done = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let swaps = AtomicUsize::new(0);
    std::thread::scope(|s| -> Result<(), CoreError> {
        let storm = |r: usize| {
            let (gw, ids, twins) = (&gw, &ids, &twins);
            let (done, served, swaps) = (&done, &served, &swaps);
            move || -> Result<(), CoreError> {
                let mut last = vec![0u64; ids.len()];
                let mut q = r;
                while !done.load(Ordering::Acquire) {
                    for (k, &id) in ids.iter().enumerate() {
                        let snap = gw.published(id)?;
                        if snap.epoch() != last[k] && last[k] != 0 {
                            swaps.fetch_add(1, Ordering::Relaxed);
                        }
                        last[k] = snap.epoch();
                        let t = &twins[k];
                        let n = t.deployment().num_locations();
                        let y = t.online_measurement(q % n, snap.last_update_day(), q as u64);
                        let est = snap.localize(&y)?;
                        let mismatch = first_oracle_mismatch(
                            snap.fingerprint(),
                            std::slice::from_ref(&y),
                            std::slice::from_ref(&est),
                        )?;
                        assert!(mismatch.is_none(), "a reader saw a torn database");
                        served.fetch_add(1, Ordering::Relaxed);
                        q += 1;
                    }
                }
                Ok(())
            }
        };
        let readers: Vec<_> = (0..2).map(|r| s.spawn(storm(r))).collect();

        // Meanwhile: three update cycles commit on the drive loop.
        for day in [5.0, 15.0, 30.0] {
            let outcomes = gw.run_cycle(day, UPDATE_SAMPLES)?;
            println!(
                "day {day:>4.0}: {} deployments recommitted, epochs now {}",
                outcomes.len(),
                gw.epoch(ids[0])?
            );
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader thread")?;
        }
        Ok(())
    })?;
    println!(
        "storm: {} queries served with exact oracle parity; {} epoch swaps observed mid-storm",
        served.load(Ordering::Relaxed),
        swaps.load(Ordering::Relaxed)
    );

    // 3. A reader pinned across a commit: the snapshot it holds keeps
    //    answering on its original epoch while new readers see the
    //    fresh one.
    let pinned = gw.published(ids[0])?;
    gw.run_cycle(45.0, UPDATE_SAMPLES)?;
    let fresh = gw.published(ids[0])?;
    println!(
        "pinned reader still on epoch {} (day {}), new readers on epoch {} (day {})",
        pinned.epoch(),
        pinned.last_update_day(),
        fresh.epoch(),
        fresh.last_update_day()
    );
    assert_eq!(pinned.epoch() + 1, fresh.epoch());

    // 4. Channel ingest + orderly shutdown. One batch goes in through
    //    the bounded channel and a cycle commits it; the drain report
    //    then proves nothing acknowledged was lost.
    let refs_snapshot = gw.snapshot()?;
    let refs = &refs_snapshot.deployments[0].reference_locations;
    let batch = MeasurementBatch::collect(&twins[0], refs, 60.0, UPDATE_SAMPLES)?;
    gw.ingest(ids[0], batch)?;
    gw.run_cycle(60.0, UPDATE_SAMPLES)?;
    let report = gw.shutdown()?;
    println!(
        "shutdown: drain report has {} pending batch(es); fleet returned with {} deployments",
        report.pending.len(),
        report.service.len()
    );
    assert!(report.pending.is_empty());
    Ok(())
}
