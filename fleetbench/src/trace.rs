//! In-memory spans, recorded by the benchmark around its own calls into
//! each layer's public API (nothing inside the program is instrumented).

use std::io::Write;
use std::time::Instant;

/// One timed call: `start_ns`/`end_ns` count from the run's common clock
/// origin, so spans from different threads line up.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (the owning thread's tag is in the top bits).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Spans of one request (a read slab, a cycle) share this id.
    pub request: u64,
    /// Layer and call, e.g. `solver.update`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A monotonic clock with a shared origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Waits until `due_ns`: sleeps while far away, then spins the last
    /// few hundred microseconds so the wake-up is not a scheduler tick
    /// late.
    pub fn wait_until(&self, due_ns: u64) {
        const SPIN_NS: u64 = 300_000;
        loop {
            let now = self.now();
            if now >= due_ns {
                return;
            }
            let left = due_ns - now;
            if left > SPIN_NS {
                std::thread::sleep(std::time::Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One thread's span log. With tracing off, `record` keeps nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// `tag` distinguishes threads so span ids never collide.
    pub fn new(on: bool, tag: u64) -> Tracer {
        Tracer {
            on,
            tag: tag << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a finished span and returns its id (0 when tracing is
    /// off, which is also the "no parent" id).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = self.tag | self.next;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves an id for a parent span whose end is not known yet;
    /// [`Tracer::close`] records it.
    pub fn open(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.tag | self.next
    }

    /// Records the span reserved by [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (in `unit_ns` units) of every span called `name`.
pub fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / unit_ns)
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
