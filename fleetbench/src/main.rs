//! Fleet-day benchmark: drives the iUpdater fleet through the public
//! `FleetGateway` API with one reader and one writer thread, checks every
//! served answer it samples and every committed database, and prints one
//! JSON result line. See `README.md` in this directory.
//!
//! ```text
//! fleetbench --workload <fleet_reads|large_site|fleet_backlog>
//!            --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```

mod host;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;

use iupdater_core::metrics::mean_reconstruction_error;
use iupdater_core::prelude::*;
use iupdater_eval::scenario::INITIAL_SURVEY_SAMPLES;
use iupdater_linalg::Matrix;

use stats::{self_time, Sample};
use trace::{durations, Clock, Span, Tracer};
use workload::{run_phase, Ctx, PhaseLog, Plan, Reader, SiteInputs, Workload, SLAB_QUERIES};

/// Set-ups per run: at least `SETUP_MIN`, more while they have taken
/// under `SETUP_BUDGET_NS` in total, at most `SETUP_MAX`. `setup_s` is
/// their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_NS: u64 = 2_000_000_000;
/// Every this-many check queries, one is compared against the oracle.
const CHECK_STRIDE: usize = 8;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments: {argv:?}")),
        }
    }
    let get = |k: &str| opts.get(k).ok_or(format!("missing --{k}"));
    let workload_name = get("workload")?.clone();
    let workload =
        Workload::parse(&workload_name).ok_or(format!("unknown workload {workload_name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        out: opts.get("out").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: fleetbench --workload <fleet_reads|large_site|fleet_backlog> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("fleetbench: {e}");
        std::process::exit(1);
    }
}

/// Named metrics with units, in a stable order.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.0.insert(name.to_string(), (v, unit));
                Ok(())
            }
            _ => Err(format!("metric {name} has no finite value")),
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Pass/fail tally over every operation and check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("fleetbench: check failed: {what}");
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run(args: &Args) -> Result<(), String> {
    let e = |e: CoreError| e.to_string();
    let plan = Plan::new(args.workload, args.seconds);
    let clock = Clock::start();
    let steal_before = host::cpu_ticks();
    let mut setup_tr = Tracer::new(args.trace, 4);

    // Set-up, several times: registration (survey, engine, localizer)
    // and launch. The last gateway is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_MAX);
    let mut refs = Vec::new();
    let mut gateway = None;
    let setup_start = clock.now();
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && clock.now() - setup_start < SETUP_BUDGET_NS)
    {
        let rep = setup_s.len() as u64;
        if let Some(old) = gateway.take() {
            FleetGateway::shutdown(old).map_err(e)?;
        }
        let root = setup_tr.open();
        let a = clock.now();
        let service = workload::register(&plan).map_err(e)?;
        let b = clock.now();
        refs = service
            .ids()
            .into_iter()
            .map(|id| {
                service
                    .updater(id)
                    .map(|u| u.reference_locations().to_vec())
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(e)?;
        let c = clock.now();
        let gw = FleetGateway::launch(service).map_err(e)?;
        let d = clock.now();
        setup_tr.record("service.register", root, rep, a, b);
        setup_tr.record("gateway.launch", root, rep, c, d);
        setup_tr.close(root, "setup", 0, rep, a, d);
        setup_s.push(((b - a) + (d - c)) as f64 / 1e9);
        gateway = Some(gw);
    }
    let gw = gateway.ok_or("no set-up ran")?;

    // The traced run replays through a twin service and times the
    // survey and engine build on their own.
    let mut twin = None;
    if args.trace {
        for (k, (_, testbed)) in plan.sites.iter().enumerate() {
            let a = clock.now();
            let prior = FingerprintMatrix::survey(testbed, 0.0, INITIAL_SURVEY_SAMPLES);
            let b = clock.now();
            let engine = Updater::new(prior, UpdaterConfig::default()).map_err(e)?;
            let c = clock.now();
            std::hint::black_box(&engine);
            setup_tr.record("fingerprint.survey", 0, k as u64, a, b);
            setup_tr.record("reconstruct.engine", 0, k as u64, b, c);
        }
        twin = Some(workload::register(&plan).map_err(e)?);
    }

    // Cycle 0 warms up; then one measured phase, or two when traced.
    let phases = if args.trace { 2 } else { 1 };
    let total_cycles = 1 + plan.cycles * phases;
    let inputs = workload::generate(
        &plan,
        &refs,
        args.seed,
        total_cycles * plan.batches_per_site,
    )
    .map_err(e)?;
    let ids = gw.ids();
    let ctx = Ctx {
        plan: &plan,
        inputs: &inputs,
        ids: &ids,
        clock,
        seed: args.seed,
    };

    // Measured phases. The traced run first repeats the untraced phase
    // so the tracing overhead is measured in the same process.
    let warm = workload::warm_up(&ctx, &gw);
    let run_start = clock.now();
    let untraced = run_phase(&ctx, &gw, 1, false, None);
    let traced = if args.trace {
        Some(run_phase(&ctx, &gw, 1 + plan.cycles, true, twin.as_mut()))
    } else {
        None
    };
    let run_end = clock.now();
    let steal = host::steal_share(steal_before, host::cpu_ticks());

    // Output checks, outside every timed region.
    let mut tally = Tally {
        attempted: warm.0,
        failed: warm.1,
    };
    for log in std::iter::once(&untraced).chain(&traced) {
        tally.attempted += log.attempted;
        tally.failed += log.failed;
    }
    let mut finals = Vec::with_capacity(ids.len());
    for &id in &ids {
        let epoch = gw.epoch(id).map_err(e)?;
        tally.check(epoch == 1 + total_cycles as u64, "one epoch per cycle");
        finals.push(gw.published(id).map_err(e)?);
    }
    let oracle_checks = check_samples(&inputs, &untraced, &mut tally)
        + traced
            .as_ref()
            .map_or(0, |t| check_samples(&inputs, t, &mut tally));
    let accuracy = check_queries(&plan, &inputs, &finals, &clock, &mut tally);
    let epochs: u64 = ids
        .iter()
        .map(|&id| gw.epoch(id).map(|x| x - 1).unwrap_or(0))
        .sum();
    let report = gw.shutdown().map_err(e)?;
    tally.check(report.pending.is_empty(), "shutdown left no batch pending");
    let mut recon = 0.0;
    for (s, &id) in ids.iter().enumerate() {
        let committed = report.service.fingerprint(id).map_err(e)?;
        tally.check(
            committed == finals[s].fingerprint(),
            "last published epoch serves the committed database",
        );
        let replayed = replay_final(
            &report.service,
            id,
            &inputs[s],
            total_cycles * plan.batches_per_site,
        );
        tally.check(
            replayed
                .as_ref()
                .is_some_and(|r| bits_equal(r.matrix(), committed.matrix())),
            "committed database equals the outside replay",
        );
        recon += mean_reconstruction_error(committed.matrix(), &inputs[s].truth).map_err(e)?;
    }
    recon /= ids.len() as f64;

    // End-to-end metrics from the untraced phase.
    let mut metrics = Metrics::default();
    let e2e = EndToEnd::new(&plan, &untraced);
    if !args.trace {
        metrics.put("setup_s", Sample::new(setup_s).pct(50.0), "s")?;
        metrics.put("loc_err_m", Some(accuracy.loc_err_m), "m")?;
        metrics.put("recon_err_db", Some(recon), "dB")?;
        metrics.put("peak_rss_mb", host::peak_rss_mb(), "MB")?;
        metrics.put(
            "ok_share",
            Some(1.0 - tally.failed as f64 / tally.attempted.max(1) as f64),
            "share",
        )?;
        e2e.put(&mut metrics)?;
    }

    // Per-layer metrics from the traced phase and its replay.
    let mut spans = setup_tr.into_spans();
    if let Some(t) = &traced {
        spans.extend(t.spans.iter().cloned());
        let traced_e2e = EndToEnd::new(&plan, t);
        per_layer(
            &mut metrics,
            &plan,
            &refs,
            t,
            &spans,
            &accuracy,
            epochs,
            overhead(args.workload, &e2e, &traced_e2e),
        )?;
    }

    // The run record: host noise, generator lateness, sample counts.
    let pool_width = rayon::current_num_threads();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = vec![
        format!("\"workload\": \"{}\"", args.workload_name),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"pool_width\": {pool_width}"),
        format!("\"nproc\": {nproc}"),
        format!("\"steal_share\": {steal}"),
        format!("\"run_s\": {}", ms(run_end - run_start) / 1e3),
        format!("\"cycles\": {total_cycles}"),
        format!("\"oracle_checks\": {oracle_checks}"),
        format!("\"check_queries\": {}", accuracy.queries),
    ];
    record.extend(e2e.record());
    let record = format!("{{{}}}", record.join(", "));
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|x| x.to_string())?;
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload_name,
            args.seed,
            u8::from(args.trace)
        );
        std::fs::write(
            dir.join(format!("{stem}.record.json")),
            format!("{record}\n"),
        )
        .map_err(|x| x.to_string())?;
        if args.trace {
            trace::write_spans(&dir.join(format!("{stem}.spans.jsonl")), &spans)
                .map_err(|x| x.to_string())?;
        }
    }
    println!("{{\"run_record\": {record}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    Ok(())
}

/// Compares kept reader estimates with `Localizer::localize_unprepared`
/// on the snapshot that served them; returns how many were compared.
fn check_samples(inputs: &[SiteInputs], log: &PhaseLog, tally: &mut Tally) -> usize {
    let mut n = 0;
    for sample in &log.samples {
        let slab = &inputs[sample.site].slabs[sample.slab];
        for (q, est) in workload::sample_positions(slab.len()).zip(&sample.estimates) {
            let oracle = sample.snap.localizer().localize_unprepared(&slab[q]);
            tally.check(
                oracle.is_ok_and(|o| same_estimate(&o, est)),
                "served estimate equals the unprepared oracle",
            );
            n += 1;
        }
    }
    n
}

fn same_estimate(a: &LocationEstimate, b: &LocationEstimate) -> bool {
    a == b && a.residual_sq.to_bits() == b.residual_sq.to_bits()
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What the final-epoch check queries gave.
struct Accuracy {
    loc_err_m: f64,
    queries: usize,
    single_us: Vec<f64>,
    chol_fallbacks: usize,
}

/// Localizes the fixed check queries one by one on each site's final
/// epoch, comparing every `CHECK_STRIDE`-th with the oracle.
fn check_queries(
    plan: &Plan,
    inputs: &[SiteInputs],
    finals: &[std::sync::Arc<PublishedSnapshot>],
    clock: &Clock,
    tally: &mut Tally,
) -> Accuracy {
    let mut err = 0.0;
    let mut queries = 0;
    let mut single_us = Vec::new();
    let mut chol_fallbacks = 0;
    for (s, snap) in finals.iter().enumerate() {
        let deployment = plan.sites[s].1.deployment();
        let mut scratch = QueryScratch::new();
        for (q, (cell, y)) in inputs[s].check.iter().enumerate() {
            let a = clock.now();
            let est = snap.localizer().localize_with_scratch(y, &mut scratch);
            let b = clock.now();
            single_us.push((b - a) as f64 / 1e3);
            let Ok(est) = est else {
                tally.check(false, "check query localizes");
                continue;
            };
            if q % CHECK_STRIDE == 0 {
                let oracle = snap.localizer().localize_unprepared(y);
                tally.check(
                    oracle.is_ok_and(|o| same_estimate(&o, &est)),
                    "check query equals the unprepared oracle",
                );
            }
            err += deployment
                .location(*cell)
                .distance(deployment.location(est.grid));
            queries += 1;
        }
        chol_fallbacks += scratch.chol_fallbacks();
    }
    Accuracy {
        loc_err_m: err / queries.max(1) as f64,
        queries,
        single_us,
        chol_fallbacks,
    }
}

/// The database a site must hold after `total` batches: the batch
/// sequence replayed outside the gateway through
/// `Updater::update_report` → `with_matrix`. Batches repeat every five,
/// so each distinct one is solved once.
fn replay_final(
    service: &UpdateService,
    id: DeploymentId,
    inputs: &SiteInputs,
    total: usize,
) -> Option<FingerprintMatrix> {
    let updater = service.updater(id).ok()?;
    let mut solved: Vec<Option<FingerprintMatrix>> = vec![None; inputs.base.len()];
    let mut last = None;
    for k in 0..total {
        let i = k % inputs.base.len();
        if solved[i].is_none() {
            let b = &inputs.base[i];
            let report = updater
                .update_report(b.reference_columns(), b.no_decrease(), b.mask())
                .ok()?;
            solved[i] = Some(updater.prior().with_matrix(report.reconstruction()).ok()?);
        }
        last = solved[i].clone();
    }
    last
}

/// End-to-end read and write figures of one phase.
struct EndToEnd {
    read_all: Sample,
    read_idle: Sample,
    read_busy: Sample,
    read_qps: f64,
    publish: Sample,
    batches_per_s: f64,
    reader_late_us: Sample,
    writer_late_us: Sample,
}

impl EndToEnd {
    fn new(plan: &Plan, log: &PhaseLog) -> EndToEnd {
        // Only reads that ran while the gateway phase did; in the traced
        // run later reads overlap the layer replay.
        let slabs: Vec<_> = log
            .slabs
            .iter()
            .filter(|r| r.end <= log.gateway_end)
            .collect();
        let mut idle = Vec::new();
        let mut busy = Vec::new();
        for r in &slabs {
            let lat = (r.end - r.due) as f64 / 1e3;
            let overlaps = log
                .cycles
                .iter()
                .any(|c| r.start < c.end && c.start < r.end);
            if overlaps {
                busy.push(lat);
            } else {
                idle.push(lat);
            }
        }
        let service_ns: u64 = slabs.iter().map(|r| r.end - r.start).sum();
        let write_ns: u64 = log.cycles.iter().map(|c| c.end - c.ingest_start).sum();
        let batches: usize = log.cycles.iter().map(|c| c.batches).sum();
        let reader_late = match plan.reader {
            Reader::Closed => Vec::new(),
            Reader::Open { .. } => slabs
                .iter()
                .map(|r| (r.start - r.due) as f64 / 1e3)
                .collect(),
        };
        EndToEnd {
            read_all: Sample::new(idle.iter().chain(&busy).copied().collect()),
            read_idle: Sample::new(idle),
            read_busy: Sample::new(busy),
            read_qps: (slabs.len() * SLAB_QUERIES) as f64 / (service_ns as f64 / 1e9),
            publish: Sample::new(
                log.cycles
                    .iter()
                    .map(|c| ms(c.end - c.ingest_start))
                    .collect(),
            ),
            batches_per_s: batches as f64 / (write_ns as f64 / 1e9),
            reader_late_us: Sample::new(reader_late),
            writer_late_us: Sample::new(
                log.cycles
                    .iter()
                    .map(|c| (c.ingest_start - c.due) as f64 / 1e3)
                    .collect(),
            ),
        }
    }

    fn put(&self, m: &mut Metrics) -> Result<(), String> {
        m.put("read_qps", Some(self.read_qps), "1/s")?;
        m.put("read_p50_us", self.read_all.pct(50.0), "us")?;
        m.put("read_p95_us", self.read_all.pct(95.0), "us")?;
        m.put("publish_ms_p90", self.publish.pct(90.0), "ms")
    }

    fn publish_mean(&self) -> f64 {
        self.publish.sum() / self.publish.len().max(1) as f64
    }

    /// Sample counts and lateness for the run record.
    fn record(&self) -> Vec<String> {
        let pct = |s: &Sample, p: f64| s.pct(p).unwrap_or(0.0);
        let max = |s: &Sample| s.pct(100.0).unwrap_or(0.0);
        let dist = |name: &str, s: &Sample| {
            let ps: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
                .iter()
                .map(|&p| format!("\"p{p}\": {}", pct(s, p)))
                .collect();
            format!("\"{name}\": {{{}, \"n\": {}}}", ps.join(", "), s.len())
        };
        vec![
            dist("read_us", &self.read_all),
            dist("read_idle_us", &self.read_idle),
            dist("read_busy_us", &self.read_busy),
            dist("publish_ms", &self.publish),
            format!("\"publish_ms_mean\": {}", self.publish_mean()),
            format!("\"batches_per_s\": {}", self.batches_per_s),
            format!(
                "\"reader_late_us\": {{\"p50\": {}, \"max\": {}, \"n\": {}}}",
                pct(&self.reader_late_us, 50.0),
                max(&self.reader_late_us),
                self.reader_late_us.len()
            ),
            format!(
                "\"writer_late_us\": {{\"p50\": {}, \"max\": {}, \"n\": {}}}",
                pct(&self.writer_late_us, 50.0),
                max(&self.writer_late_us),
                self.writer_late_us.len()
            ),
        ]
    }
}

/// Traced against untraced, on the workload's headline time: read p50
/// where reads dominate, mean publish latency where writes do.
fn overhead(w: Workload, untraced: &EndToEnd, traced: &EndToEnd) -> Option<f64> {
    let (a, b) = match w {
        Workload::FleetReads => (untraced.read_all.pct(50.0)?, traced.read_all.pct(50.0)?),
        _ => (untraced.publish_mean(), traced.publish_mean()),
    };
    Some(b / a - 1.0)
}

/// GFLOP/s of `Matrix::matmul` at each site's factor shapes
/// (`m x r` times `r x n`), computed as `2·m·r·n` per product.
fn matmul_gflops(plan: &Plan, refs: &[Vec<usize>], clock: &Clock) -> Option<f64> {
    let mut flops = 0.0;
    let mut secs = 0.0;
    for ((_, testbed), refs) in plan.sites.iter().zip(refs) {
        let env = testbed.environment();
        let (m, n, r) = (env.num_links, env.num_locations(), refs.len());
        let a = Matrix::from_fn(m, r, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(r, n, |i, j| ((i * 5 + j * 13) % 17) as f64 - 8.0);
        let mut times = Vec::new();
        let start = clock.now();
        while times.len() < 5 || clock.now() - start < 50_000_000 {
            let t0 = clock.now();
            std::hint::black_box(
                std::hint::black_box(&a)
                    .matmul(std::hint::black_box(&b))
                    .ok()?,
            );
            times.push((clock.now() - t0) as f64 / 1e9);
        }
        flops += 2.0 * (m * r * n) as f64;
        secs += Sample::new(times).pct(50.0)?;
    }
    Some(flops / secs / 1e9)
}

/// Per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    plan: &Plan,
    refs: &[Vec<usize>],
    log: &PhaseLog,
    spans: &[Span],
    accuracy: &Accuracy,
    epochs: u64,
    overhead: Option<f64>,
) -> Result<(), String> {
    let clock = Clock::start();
    let p50 = |v: Vec<f64>| Sample::new(v).pct(50.0);
    let gw_cycle = Sample::new(durations(spans, "gateway.cycle", 1e6));
    let svc_cycle = Sample::new(durations(spans, "service.cycle", 1e6));
    let solve = Sample::new(durations(spans, "solver.update", 1e6));
    let width = rayon::current_num_threads() as f64;

    m.put("gateway.cycle_ms_p50", gw_cycle.pct(50.0), "ms")?;
    m.put("gateway.cycle_ms_p99", gw_cycle.pct(99.0), "ms")?;
    m.put("gateway.cycle_n", Some(gw_cycle.len() as f64), "count")?;
    let cycles = cycle_spans(spans);
    let gw_self: Vec<f64> = cycles
        .values()
        .filter_map(|c| Some(ms(c.gateway?.1 - c.gateway?.0) - ms(c.service_ns?)))
        .collect();
    m.put("gateway.self_ms_p50", p50(gw_self), "ms")?;
    m.put(
        "gateway.ingest_us_p50",
        p50(log.layers.ingest_ns.iter().map(|x| x / 1e3).collect()),
        "us",
    )?;
    m.put("gateway.pin_ns_p50", p50(log.layers.pin_ns.clone()), "ns")?;
    m.put("gateway.epochs", Some(epochs as f64), "count")?;

    m.put("service.cycle_ms_p50", svc_cycle.pct(50.0), "ms")?;
    let children: f64 = ["solver.update", "reconstruct.commit", "query.prepare"]
        .iter()
        .map(|n| durations(spans, n, 1e6).iter().sum::<f64>())
        .sum();
    m.put(
        "service.parallel_eff",
        Some(children / (width * svc_cycle.sum())),
        "share",
    )?;

    m.put("solver.update_ms_p50", solve.pct(50.0), "ms")?;
    m.put(
        "solver.iterations",
        Some(log.layers.solve_iterations as f64),
        "count",
    )?;
    m.put(
        "solver.ms_per_iter",
        Some(solve.sum() / log.layers.solve_iterations.max(1) as f64),
        "ms",
    )?;
    m.put(
        "reconstruct.engine_ms",
        Some(durations(spans, "reconstruct.engine", 1e6).iter().sum()),
        "ms",
    )?;
    m.put(
        "fingerprint.survey_ms",
        Some(durations(spans, "fingerprint.survey", 1e6).iter().sum()),
        "ms",
    )?;
    m.put(
        "reconstruct.commit_ms",
        p50(durations(spans, "reconstruct.commit", 1e6)),
        "ms",
    )?;

    m.put(
        "query.prepare_ms",
        p50(durations(spans, "query.prepare", 1e6)),
        "ms",
    )?;
    m.put(
        "query.slab_us_p50",
        p50(log.layers.slab_ns.iter().map(|x| x / 1e3).collect()),
        "us",
    )?;
    m.put("query.single_us_p50", p50(accuracy.single_us.clone()), "us")?;
    m.put(
        "query.chol_fallback_share",
        Some(accuracy.chol_fallbacks as f64 / accuracy.queries.max(1) as f64),
        "share",
    )?;
    m.put(
        "linalg.matmul_gflops",
        matmul_gflops(plan, refs, &clock),
        "GFLOP/s",
    )?;

    // Diagnostics only: reads split by overlap with a cycle, and the
    // busy-read tail.
    let e2e = EndToEnd::new(plan, log);
    m.put("read.idle_p50_us", e2e.read_idle.pct(50.0), "us")?;
    m.put("read.busy_p50_us", e2e.read_busy.pct(50.0), "us")?;
    m.put("read.busy_p95_us", e2e.read_busy.pct(95.0), "us")?;
    m.put("read.busy_p99_us", e2e.read_busy.pct(99.0), "us")?;
    m.put("read.busy_n", Some(e2e.read_busy.len() as f64), "count")?;
    let (tail_pct, tail_us) = e2e.read_busy.tail().unwrap_or((0.0, 0.0));
    m.put("read.busy_tail_pct", Some(tail_pct), "%")?;
    m.put("read.busy_tail_us", Some(tail_us), "us")?;

    m.put("trace.unexplained_share", unexplained(&cycles), "share")?;
    m.put("trace.overhead_share", overhead, "share")
}

/// Per cycle: the gateway cycle span and the replayed service cycle
/// and layer spans of the same request.
#[derive(Default)]
struct CycleSpans {
    gateway: Option<(u64, u64)>,
    service_ns: Option<u64>,
    /// Per site: summed solve and commit time, then prepare time.
    sites: Vec<(u64, u64)>,
}

fn cycle_spans(spans: &[Span]) -> BTreeMap<u64, CycleSpans> {
    let mut cycles: BTreeMap<u64, CycleSpans> = BTreeMap::new();
    let mut site_of: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
    for s in spans {
        if !matches!(s.name, "gateway.cycle" | "service.cycle" | "replay.site") {
            continue;
        }
        let c = cycles.entry(s.request).or_default();
        match s.name {
            "gateway.cycle" => c.gateway = Some((s.start_ns, s.end_ns)),
            "service.cycle" => c.service_ns = Some(s.ns()),
            _ => {
                site_of.insert(s.id, (s.request, c.sites.len()));
                c.sites.push((0, 0));
            }
        }
    }
    for s in spans {
        let Some(&(req, i)) = site_of.get(&s.parent) else {
            continue;
        };
        let site = &mut cycles.entry(req).or_default().sites[i];
        match s.name {
            "query.prepare" => site.1 += s.ns(),
            _ => site.0 += s.ns(),
        }
    }
    cycles
}

/// Share of gateway cycle time that no layer span covers. The replayed
/// layer spans of a cycle are laid on the gateway cycle's timeline as
/// the service runs them: every site's solves and commits from the
/// cycle's start (sites solve in parallel), then every localizer
/// preparation one after another. What they leave uncovered is the
/// cycle's self time.
fn unexplained(cycles: &BTreeMap<u64, CycleSpans>) -> Option<f64> {
    let mut total = 0u64;
    let mut uncovered = 0u64;
    for c in cycles.values() {
        let (Some((start, end)), false) = (c.gateway, c.sites.is_empty()) else {
            continue;
        };
        let mut children: Vec<(u64, u64)> =
            c.sites.iter().map(|&(sc, _)| (start, start + sc)).collect();
        let mut at = start + c.sites.iter().map(|&(sc, _)| sc).max().unwrap_or(0);
        for &(_, prep) in &c.sites {
            children.push((at, at + prep));
            at += prep;
        }
        total += end - start;
        uncovered += self_time(start, end, &children);
    }
    (total > 0).then(|| uncovered as f64 / total as f64)
}
