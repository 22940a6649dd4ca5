//! Extension experiment (not in the paper): a heavy-traffic read-path
//! day over the fleet — hundreds of thousands of localization queries
//! replayed through the [`FleetGateway`]'s epoch-swapped published
//! snapshots, interleaved with the paper's update cycles.
//!
//! The point of the scenario is *exactness at scale*: every batched
//! estimate served from a published snapshot is checked against a
//! freshly built unprepared-path oracle
//! (`Localizer::localize_unprepared`) over the **same epoch's**
//! database. The prepared structures, the lane-blocked pursuit, the
//! chunked pool fan-out, and the read/write-separated gateway path may
//! only change cost, never answers — this replay asserts it over the
//! whole fleet and the whole campaign, at every one of the paper's
//! update timestamps.

use crate::ext_fleet::{standard_fleet, standard_testbeds};
use crate::report::{FigureResult, Series};
use crate::scenario::{TIMESTAMPS, UPDATE_SAMPLES};
use iupdater_core::localize::first_oracle_mismatch;
use iupdater_core::prelude::*;

/// Queries replayed per grid cell per timestamp in the heavy [`run`]:
/// with the three-environment fleet and the five paper timestamps this
/// lands in the hundreds of thousands of localizations.
const HEAVY_QUERIES_PER_CELL: usize = 140;

/// Runs the heavy-traffic replay (see [`run_with`]).
pub fn run() -> FigureResult {
    run_with(HEAVY_QUERIES_PER_CELL)
}

/// Replays `queries_per_cell` online measurements per grid cell per
/// deployment at each paper timestamp, interleaved with update cycles
/// driven through the gateway: each cycle commits on the drive loop
/// and atomically publishes a new epoch per deployment; the whole
/// query slab then runs through the pinned snapshot's batched read
/// path and every estimate is asserted equal — grid, support,
/// coefficients, residual bits — to the unprepared oracle built over
/// that same epoch's database. Query traffic comes from twin testbeds
/// ([`standard_testbeds`]) because the gateway owns the fleet's
/// simulators on its drive loop.
///
/// # Panics
///
/// Panics if any cycle fails or any batched estimate deviates from the
/// unprepared path (that would be a parity bug; the read path must
/// never trade accuracy for speed).
pub fn run_with(queries_per_cell: usize) -> FigureResult {
    let seed = crate::scenario::DEFAULT_SEED;
    let twins = standard_testbeds(seed);
    let gw = FleetGateway::launch(standard_fleet(seed)).expect("gateway launch");
    let ids = gw.ids().to_vec();
    assert_eq!(ids.len(), twins.len());
    let mut errs: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut total_queries = 0usize;

    for (cycle, &(_, day)) in TIMESTAMPS.iter().enumerate() {
        gw.run_cycle(day, UPDATE_SAMPLES).expect("fleet cycle");
        for (k, &id) in ids.iter().enumerate() {
            // Pin the epoch this reader observed; everything below —
            // queries, oracle, assertions — runs against it.
            let snap = gw.published(id).expect("published snapshot");
            assert_eq!(snap.epoch(), 2 + cycle as u64, "one epoch per commit");
            let t = &twins[k].1;
            let n = t.deployment().num_locations();
            let queries: Vec<Vec<f64>> = (0..n * queries_per_cell)
                .map(|q| t.online_measurement(q % n, day, (day as u64) * 100_000 + q as u64))
                .collect();
            let batch = snap.localize_batch(&queries).expect("batched localization");
            assert_eq!(batch.len(), queries.len());

            // The oracle: a from-scratch localizer over the same
            // epoch's published database, answering through the
            // original scalar path.
            if let Some(q) = first_oracle_mismatch(snap.fingerprint(), &queries, &batch)
                .expect("oracle localization")
            {
                panic!(
                    "gateway estimate deviated from the unprepared path \
                     (deployment {k}, day {day}, query {q})"
                );
            }
            let d = t.deployment();
            let mut err_sum = 0.0;
            for (q, est) in batch.iter().enumerate() {
                err_sum += d.location(q % n).distance(d.location(est.grid));
            }
            errs[k].push(err_sum / queries.len() as f64);
            total_queries += queries.len();
        }
    }
    gw.shutdown().expect("gateway shutdown");

    let mut result = FigureResult {
        id: "ext-qps".into(),
        title: "Heavy-traffic read path: gateway snapshots vs unprepared oracle".into(),
        axes: (
            "update timestamp".into(),
            "mean localization error [m]".into(),
        ),
        x_labels: TIMESTAMPS.iter().map(|(l, _)| (*l).to_string()).collect(),
        series: Vec::new(),
        notes: Vec::new(),
    };
    for (k, (name, _)) in twins.iter().enumerate() {
        result.series.push(Series::from_ys(name.clone(), &errs[k]));
    }
    result.notes.push(format!(
        "{total_queries} localizations served from epoch-swapped gateway \
         snapshots, interleaved with {} update cycles on the drive loop; \
         every estimate equals the unprepared scalar path exactly \
         (bit-identical residuals) on the epoch the reader observed",
        TIMESTAMPS.len()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_exact_and_errors_bounded() {
        // Small per-cell load to stay affordable in the debug tier;
        // the exactness assertions inside run_with are the test.
        let result = run_with(2);
        assert_eq!(result.series.len(), 3);
        for s in &result.series {
            assert_eq!(s.points.len(), TIMESTAMPS.len());
            for &(_, y) in &s.points {
                assert!(
                    y.is_finite() && (0.0..8.0).contains(&y),
                    "{}: {y} m",
                    s.label
                );
            }
        }
        assert!(result.notes[0].contains("unprepared scalar path exactly"));
        assert!(result.notes[0].contains("epoch-swapped gateway"));
    }
}
