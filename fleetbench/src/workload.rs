//! The three fleet-day workloads: their plans, their pre-generated
//! inputs, and the reader/writer drive through the public
//! [`FleetGateway`] API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use iupdater_core::prelude::*;
use iupdater_eval::ext_fleet::standard_testbeds;
use iupdater_eval::ext_scale::scaled_office;
use iupdater_eval::scenario::{DEFAULT_SEED, INITIAL_SURVEY_SAMPLES, TIMESTAMPS, UPDATE_SAMPLES};
use iupdater_linalg::Matrix;
use iupdater_rfsim::Testbed;

use crate::trace::{Clock, Span, Tracer};

/// Queries per read slab.
pub const SLAB_QUERIES: usize = 256;
/// Every this-many reader slabs, one is kept for the oracle check.
const SAMPLE_STRIDE: usize = 64;
/// Estimates per kept slab compared against the unprepared oracle.
const SAMPLE_QUERIES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetReads,
    LargeSite,
    FleetBacklog,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_reads" => Some(Workload::FleetReads),
            "large_site" => Some(Workload::LargeSite),
            "fleet_backlog" => Some(Workload::FleetBacklog),
            _ => None,
        }
    }
}

/// How the reader paces its slabs.
#[derive(Debug, Clone, Copy)]
pub enum Reader {
    /// Next slab as soon as the previous one returns.
    Closed,
    /// Slabs arrive at random (exponential gaps with mean
    /// `interval_ns`, drawn from the workload seed) whether or not the
    /// last one finished; latency counts from the due time. Random gaps
    /// keep arrivals from locking onto one phase of the writer's
    /// schedule.
    Open { interval_ns: u64 },
}

/// A workload's fixed shape: sites, traffic, and how many cycles.
#[derive(Debug, Clone)]
pub struct Plan {
    pub sites: Vec<(String, Testbed)>,
    pub reader: Reader,
    /// Writer schedule: one resurvey due every this many ns; `None`
    /// runs resurveys back to back.
    pub period_ns: Option<u64>,
    /// Batches each site ingests per resurvey (one cycle drains them).
    pub batches_per_site: usize,
    /// Resurveys (= gateway cycles) per measured phase.
    pub cycles: usize,
    /// Distinct pre-generated slabs per site, cycled by the reader.
    pub slabs_per_site: usize,
    /// Check queries per grid cell for the final-epoch accuracy check.
    pub check_per_cell: usize,
}

impl Plan {
    /// The plan for `workload`, with its cycle count scaled to
    /// `seconds` of nominal run time. The count is fixed for a given
    /// `seconds`, so the final state and the quality metrics repeat
    /// exactly for a given seed.
    ///
    /// The sites are fixed deployments (simulated from the paper's
    /// default seed); the workload seed draws the traffic. Solver
    /// iteration counts depend on the site, so seeding the sites too
    /// would make run-to-run spread measure the sites, not the code.
    pub fn new(workload: Workload, seconds: u64) -> Plan {
        let ms = 1_000_000;
        match workload {
            Workload::FleetReads => Plan {
                sites: standard_testbeds(DEFAULT_SEED),
                reader: Reader::Closed,
                period_ns: Some(250 * ms),
                batches_per_site: 2,
                cycles: (seconds * 4) as usize,
                slabs_per_site: 32,
                check_per_cell: 16,
            },
            Workload::LargeSite => Plan {
                sites: vec![(
                    "large".to_string(),
                    Testbed::new(scaled_office(4), DEFAULT_SEED),
                )],
                reader: Reader::Open {
                    interval_ns: 20 * ms,
                },
                period_ns: Some(1250 * ms),
                batches_per_site: 1,
                cycles: (seconds * 4 / 5) as usize,
                slabs_per_site: 8,
                check_per_cell: 4,
            },
            Workload::FleetBacklog => Plan {
                sites: standard_testbeds(DEFAULT_SEED),
                reader: Reader::Open {
                    interval_ns: 2_500_000,
                },
                period_ns: None,
                batches_per_site: 4,
                cycles: (seconds * 60) as usize,
                slabs_per_site: 16,
                check_per_cell: 16,
            },
        }
    }
}

/// Registers every site of `plan` (day-0 survey, update engine and
/// localizer per site) on a fresh service.
pub fn register(plan: &Plan) -> Result<UpdateService, CoreError> {
    let mut service = UpdateService::new();
    for (name, testbed) in &plan.sites {
        service.register(
            name.clone(),
            testbed.clone(),
            UpdaterConfig::default(),
            INITIAL_SURVEY_SAMPLES,
        )?;
    }
    Ok(service)
}

/// Everything the simulator produces for one site, made before any
/// timing starts.
pub struct SiteInputs {
    /// One batch per paper timestamp, collected at that day.
    pub base: Vec<MeasurementBatch>,
    /// Reader slabs.
    pub slabs: Vec<Vec<Vec<f64>>>,
    /// `(true cell, measurement)` at the collection day of the run's
    /// last batch.
    pub check: Vec<(usize, Vec<f64>)>,
    /// Simulator truth on that day.
    pub truth: Matrix,
}

/// Generates every site's inputs. `refs` are the reference locations
/// read from the service before launch; `total_batches` is how many
/// batches each site ingests over the whole run.
pub fn generate(
    plan: &Plan,
    refs: &[Vec<usize>],
    seed: u64,
    total_batches: usize,
) -> Result<Vec<SiteInputs>, CoreError> {
    let final_day = TIMESTAMPS[(total_batches - 1) % TIMESTAMPS.len()].1;
    let mut out = Vec::with_capacity(plan.sites.len());
    for (s, ((_, testbed), refs)) in plan.sites.iter().zip(refs).enumerate() {
        let base = TIMESTAMPS
            .iter()
            .map(|&(_, day)| MeasurementBatch::collect(testbed, refs, day, UPDATE_SAMPLES))
            .collect::<Result<Vec<_>, _>>()?;
        let n = testbed.deployment().num_locations();
        let mut cells = Lcg(seed ^ (0x5EED_0000 + s as u64));
        let slabs = (0..plan.slabs_per_site)
            .map(|j| {
                let day = TIMESTAMPS[j % TIMESTAMPS.len()].1;
                (0..SLAB_QUERIES)
                    .map(|q| {
                        let probe = seed ^ ((s as u64) << 40) ^ ((j as u64) << 20) ^ q as u64;
                        testbed.online_measurement(cells.below(n), day, probe)
                    })
                    .collect()
            })
            .collect();
        let check = (0..n * plan.check_per_cell)
            .map(|q| {
                let cell = q % n;
                let probe = !seed ^ ((s as u64) << 40) ^ q as u64;
                (cell, testbed.online_measurement(cell, final_day, probe))
            })
            .collect();
        let truth = testbed.expected_fingerprint_matrix(final_day);
        out.push(SiteInputs {
            base,
            slabs,
            check,
            truth,
        });
    }
    Ok(out)
}

/// A tiny deterministic generator for query cells.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 11) % n as u64) as usize
    }

    /// An exponentially distributed gap with mean `mean_ns`.
    fn exponential(&mut self, mean_ns: u64) -> u64 {
        // Uniform in (0, 1]: 53 random bits, never zero.
        let u = ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        (-u.ln() * mean_ns as f64) as u64
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }
}

/// The `k`-th batch a site ingests: the paper-timestamp batch `k mod 5`,
/// re-stamped with day `k + 1` so days keep increasing.
pub fn batch(inputs: &SiteInputs, k: usize) -> Result<MeasurementBatch, CoreError> {
    let b = &inputs.base[k % inputs.base.len()];
    MeasurementBatch::new(
        (k + 1) as f64,
        b.reference_columns().clone(),
        b.no_decrease().clone(),
        b.mask().clone(),
    )
}

/// One reader slab.
#[derive(Debug, Clone, Copy)]
pub struct SlabRec {
    /// When it was due (open loop) or sent (closed loop).
    pub due: u64,
    pub start: u64,
    pub end: u64,
}

/// One resurvey: ingest of its batches, then the cycle that commits them.
#[derive(Debug, Clone, Copy)]
pub struct CycleRec {
    pub due: u64,
    pub ingest_start: u64,
    pub start: u64,
    pub end: u64,
    pub batches: usize,
}

/// A served slab kept for the oracle check, with the epoch it was
/// served from.
pub struct ReadSample {
    pub site: usize,
    pub slab: usize,
    pub snap: Arc<PublishedSnapshot>,
    pub estimates: Vec<LocationEstimate>,
}

/// Per-call timings the traced run turns into per-layer metrics.
#[derive(Default)]
pub struct LayerLog {
    pub ingest_ns: Vec<f64>,
    pub pin_ns: Vec<f64>,
    pub slab_ns: Vec<f64>,
    pub solve_iterations: usize,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct PhaseLog {
    pub slabs: Vec<SlabRec>,
    pub cycles: Vec<CycleRec>,
    pub samples: Vec<ReadSample>,
    pub layers: LayerLog,
    /// End of the gateway phase; reads after it overlap the replay.
    pub gateway_end: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Shared, read-only context of a run.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub inputs: &'a [SiteInputs],
    pub ids: &'a [DeploymentId],
    pub clock: Clock,
    pub seed: u64,
}

/// Sets the flag when dropped, so the reader stops even if the writer
/// thread panics.
struct Done<'a>(&'a AtomicBool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One unmeasured resurvey (cycle 0) and one pass of every slab, so
/// lazy set-up (pool threads, allocator growth, first-touch pages) is
/// done before timing starts. Returns `(attempted, failed)`.
pub fn warm_up(ctx: &Ctx<'_>, gw: &FleetGateway) -> (u64, u64) {
    let mut results = Vec::new();
    for (s, &id) in ctx.ids.iter().enumerate() {
        for k in 0..ctx.plan.batches_per_site {
            results.push(
                batch(&ctx.inputs[s], k)
                    .and_then(|b| gw.ingest(id, b))
                    .is_ok(),
            );
        }
    }
    let day = ctx.plan.batches_per_site as f64;
    results.push(gw.run_cycle(day, UPDATE_SAMPLES).is_ok());
    for (s, &id) in ctx.ids.iter().enumerate() {
        for slab in &ctx.inputs[s].slabs {
            results.push(gw.localize_batch(id, slab).is_ok());
        }
    }
    let failed = results.iter().filter(|&&ok| !ok).count();
    (results.len() as u64, failed as u64)
}

/// Runs one measured phase: `plan.cycles` resurveys starting at cycle
/// index `first_cycle`, with the reader running alongside until the
/// writer is done. With `replay`, the writer then replays the phase's
/// batches through that service and through each layer's own calls,
/// while the reader keeps its pace (the traced run's per-layer split).
pub fn run_phase(
    ctx: &Ctx<'_>,
    gw: &FleetGateway,
    first_cycle: usize,
    traced: bool,
    replay: Option<&mut UpdateService>,
) -> PhaseLog {
    let done = AtomicBool::new(false);
    let (mut log, writer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let _done = Done(&done);
            let mut w = write(ctx, gw, first_cycle, traced);
            w.gateway_end = ctx.clock.now();
            if let Some(service) = replay {
                replay_layers(ctx, service, first_cycle, &mut w);
            }
            w
        });
        let r = read(ctx, gw, traced, &done);
        (r, writer.join().expect("writer thread panicked"))
    });
    log.cycles = writer.cycles;
    log.gateway_end = writer.gateway_end;
    log.attempted += writer.attempted;
    log.failed += writer.failed;
    log.layers.ingest_ns = writer.layers.ingest_ns;
    log.layers.solve_iterations = writer.layers.solve_iterations;
    log.spans.extend(writer.spans);
    log
}

/// The writer: resurveys on the plan's schedule through
/// `FleetGateway::ingest` and `FleetGateway::run_cycle`.
fn write(ctx: &Ctx<'_>, gw: &FleetGateway, first_cycle: usize, traced: bool) -> PhaseLog {
    let plan = ctx.plan;
    let mut tr = Tracer::new(traced, 2);
    let mut log = PhaseLog::default();
    let t0 = ctx.clock.now();
    for c in 0..plan.cycles {
        let cyc = (first_cycle + c) as u64;
        // Re-stamping copies the batch; do it before the clock starts.
        let mut batches = Vec::new();
        for (s, &id) in ctx.ids.iter().enumerate() {
            for b in 0..plan.batches_per_site {
                let k = (first_cycle + c) * plan.batches_per_site + b;
                match batch(&ctx.inputs[s], k) {
                    Ok(batch) => batches.push((id, batch)),
                    Err(_) => {
                        log.attempted += 1;
                        log.failed += 1;
                    }
                }
            }
        }
        let day = ((first_cycle + c + 1) * plan.batches_per_site) as f64;
        let due = plan
            .period_ns
            .map_or(ctx.clock.now(), |p| t0 + c as u64 * p);
        ctx.clock.wait_until(due);
        let ingest_start = ctx.clock.now();
        let parent = tr.open();
        let n_batches = batches.len();
        for (id, batch) in batches {
            let a = ctx.clock.now();
            let res = gw.ingest(id, batch);
            let z = ctx.clock.now();
            tr.record("gateway.ingest", parent, cyc, a, z);
            log.layers.ingest_ns.push((z - a) as f64);
            log.attempted += 1;
            if res.is_err() {
                log.failed += 1;
            }
        }
        let start = ctx.clock.now();
        let res = gw.run_cycle(day, UPDATE_SAMPLES);
        let end = ctx.clock.now();
        tr.record("gateway.cycle", parent, cyc, start, end);
        tr.close(parent, "gateway.resurvey", 0, cyc, ingest_start, end);
        log.attempted += 1;
        // Every site had batches queued, so the cycle must commit
        // exactly those and pull nothing from the simulator.
        if !matches!(&res, Ok(out) if out.len() == n_batches) {
            log.failed += 1;
        }
        log.cycles.push(CycleRec {
            due,
            ingest_start,
            start,
            end,
            batches: n_batches,
        });
    }
    log.spans = tr.into_spans();
    log
}

/// The reader: 256-query slabs round-robin over the sites until the
/// writer is done.
fn read(ctx: &Ctx<'_>, gw: &FleetGateway, traced: bool, done: &AtomicBool) -> PhaseLog {
    let plan = ctx.plan;
    let sites = ctx.ids.len();
    let mut tr = Tracer::new(traced, 1);
    let mut log = PhaseLog::default();
    let mut gaps = Lcg(ctx.seed ^ 0xA771_7A15);
    let mut next_due = ctx.clock.now();
    let mut i = 0usize;
    while !done.load(Ordering::Acquire) {
        let s = i % sites;
        let id = ctx.ids[s];
        let slab_idx = (i / sites) % plan.slabs_per_site;
        let slab = &ctx.inputs[s].slabs[slab_idx];
        let keep = i % SAMPLE_STRIDE == SAMPLE_STRIDE / 2;
        let due = match plan.reader {
            Reader::Closed => ctx.clock.now(),
            Reader::Open { interval_ns } => {
                let due = next_due;
                next_due += gaps.exponential(interval_ns);
                ctx.clock.wait_until(due);
                due
            }
        };
        let (start, end, res, pinned) = if tr.on() {
            // Traced: the same read split at the layer boundary — pin
            // the epoch, then run the slab on the pinned snapshot.
            let parent = tr.open();
            let start = ctx.clock.now();
            let pin = gw.published(id);
            let p = ctx.clock.now();
            tr.record("gateway.pin", parent, i as u64, start, p);
            log.layers.pin_ns.push((p - start) as f64);
            let res = match &pin {
                Ok(snap) => snap.localize_batch(slab),
                Err(_) => Err(CoreError::InvalidArgument("unknown deployment id")),
            };
            let end = ctx.clock.now();
            tr.record("query.slab", parent, i as u64, p, end);
            tr.close(parent, "gateway.read", 0, i as u64, start, end);
            log.layers.slab_ns.push((end - p) as f64);
            (start, end, res, pin.ok())
        } else {
            // Untraced: the plain gateway read. A kept slab pins the
            // epoch first and is checked only if no publish landed
            // while it ran, so its epoch is known.
            let pin = if keep { gw.published(id).ok() } else { None };
            let start = ctx.clock.now();
            let res = gw.localize_batch(id, slab);
            let end = ctx.clock.now();
            let pinned = pin.filter(|snap| gw.epoch(id).ok() == Some(snap.epoch()));
            (start, end, res, pinned)
        };
        log.attempted += 1;
        match res {
            Ok(estimates) if estimates.len() == slab.len() => {
                if let (true, Some(snap)) = (keep, pinned) {
                    let estimates = sample_positions(slab.len())
                        .map(|q| estimates[q].clone())
                        .collect();
                    log.samples.push(ReadSample {
                        site: s,
                        slab: slab_idx,
                        snap,
                        estimates,
                    });
                }
            }
            _ => log.failed += 1,
        }
        log.slabs.push(SlabRec { due, start, end });
        i += 1;
    }
    log.spans = tr.into_spans();
    log
}

/// Positions within a slab whose estimates the oracle check compares.
pub fn sample_positions(len: usize) -> impl Iterator<Item = usize> {
    let step = (len / SAMPLE_QUERIES).max(1);
    (0..len).step_by(step).take(SAMPLE_QUERIES)
}

/// The traced run's per-layer replay of the phase's resurveys, while
/// the reader keeps its pace: each cycle's batches go through
/// `UpdateService::run_cycle` on a twin service, then through
/// `Updater::update_report` → `FingerprintMatrix::with_matrix` →
/// `Localizer::new` one by one. Both must commit the same database.
/// Each replay takes one slot of the writer's schedule, so reads
/// contend with it as they did with the gateway cycle it replays.
fn replay_layers(
    ctx: &Ctx<'_>,
    service: &mut UpdateService,
    first_cycle: usize,
    log: &mut PhaseLog,
) {
    let plan = ctx.plan;
    let mut tr = Tracer::new(true, 3);
    let ids = service.ids();
    let t0 = ctx.clock.now();
    let slot = |i: u64| plan.period_ns.map_or(ctx.clock.now(), |p| t0 + i * p);
    for c in 0..plan.cycles {
        let cyc = (first_cycle + c) as u64;
        for (s, &id) in ids.iter().enumerate() {
            for b in 0..plan.batches_per_site {
                let k = (first_cycle + c) * plan.batches_per_site + b;
                log.attempted += 1;
                if batch(&ctx.inputs[s], k)
                    .and_then(|x| service.ingest(id, x))
                    .is_err()
                {
                    log.failed += 1;
                }
            }
        }
        let day = ((first_cycle + c + 1) * plan.batches_per_site) as f64;
        ctx.clock.wait_until(slot(2 * c as u64));
        let a = ctx.clock.now();
        let res = service.run_cycle(day, UPDATE_SAMPLES);
        let z = ctx.clock.now();
        tr.record("service.cycle", 0, cyc, a, z);
        log.attempted += 1;
        if res.is_err() {
            log.failed += 1;
        }
        ctx.clock.wait_until(slot(2 * c as u64 + 1));
        let parent = tr.open();
        let p0 = ctx.clock.now();
        for (s, &id) in ids.iter().enumerate() {
            let Ok(updater) = service.updater(id) else {
                log.failed += 1;
                continue;
            };
            let site = tr.open();
            let s0 = ctx.clock.now();
            let mut last = None;
            for b in 0..plan.batches_per_site {
                let k = (first_cycle + c) * plan.batches_per_site + b;
                let x = &ctx.inputs[s].base[k % TIMESTAMPS.len()];
                let t0 = ctx.clock.now();
                let report =
                    updater.update_report(x.reference_columns(), x.no_decrease(), x.mask());
                let t1 = ctx.clock.now();
                tr.record("solver.update", site, cyc, t0, t1);
                let Ok(report) = report else {
                    log.failed += 1;
                    continue;
                };
                log.layers.solve_iterations += report.iterations();
                let db = updater.prior().with_matrix(report.reconstruction());
                let t2 = ctx.clock.now();
                tr.record("reconstruct.commit", site, cyc, t1, t2);
                let Ok(db) = db else {
                    log.failed += 1;
                    continue;
                };
                let localizer = Localizer::new(db.clone(), LocalizerConfig::default());
                let t3 = ctx.clock.now();
                tr.record("query.prepare", site, cyc, t2, t3);
                std::hint::black_box(&localizer);
                last = Some(db);
            }
            tr.close(site, "replay.site", parent, cyc, s0, ctx.clock.now());
            log.attempted += 1;
            if last.as_ref() != service.fingerprint(id).ok() {
                log.failed += 1;
            }
        }
        tr.close(parent, "replay.layers", 0, cyc, p0, ctx.clock.now());
    }
    log.spans.extend(tr.into_spans());
}
