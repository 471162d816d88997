//! Load generation against an in-process [`Engine`]: a closed loop that
//! keeps a fixed number of requests outstanding over whole passes of the
//! question list, so every percentile is taken over the same mix.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use valuenet_serve::{Engine, ErrorKind, Response, TranslateJob, Translated};

use crate::host::{process_cpu_s, status_mb, CpuTicks};
use crate::Question;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random order of `0..n` (one pass over the question
    /// list).
    pub fn pass(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Linear-interpolated percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// What one load run observed.
pub struct Served {
    /// Submitted requests.
    pub attempted: u64,
    /// Requests refused at submission or answered with an engine error
    /// (anything but a `translate_failed` answer).
    pub failed: u64,
    /// Latency of every answered request in order of arrival, ms.
    pub latencies_ms: Vec<f64>,
    /// Queue wait from each answer's trace digest, ms.
    pub queue_wait_ms: Vec<f64>,
    /// First answer to each question of the list (by index).
    pub first: Vec<Option<Response>>,
    /// Answers that differed from the first answer to the same question.
    pub repeat_mismatches: u64,
    /// Replies that arrived while an older request was still outstanding.
    pub overtaken: u64,
    /// Wall time from the first submission to the last answer.
    pub span_s: f64,
    /// Hypervisor steal as a share of machine busy time over the interval.
    pub steal_share: f64,
    t0: Instant,
    /// Answers per window.
    window: usize,
    /// Readings at the start and after every `window` answers.
    marks: Vec<Mark>,
}

impl Served {
    fn new(questions: usize, t0: Instant, window: usize) -> Served {
        let mut served = Served {
            t0,
            window: window.max(1),
            attempted: 0,
            failed: 0,
            latencies_ms: Vec::new(),
            marks: Vec::new(),
            queue_wait_ms: Vec::new(),
            first: vec![None; questions],
            repeat_mismatches: 0,
            overtaken: 0,
            span_s: 0.0,
            steal_share: 0.0,
        };
        served.mark();
        served
    }

    fn mark(&mut self) {
        self.marks.push(Mark {
            t: self.t0.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s(),
            ticks: CpuTicks::now(),
            rss_mb: status_mb("VmRSS"),
        });
    }

    /// Closes the timed phase.
    fn finish(&mut self) {
        self.span_s = self.t0.elapsed().as_secs_f64();
        self.steal_share = CpuTicks::now().steal_share_since(&self.marks[0].ticks);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The largest resident set sampled at the window marks, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.marks.iter().map(|m| m.rss_mb).fold(0.0, f64::max)
    }

    /// Readings over each window of `window` answers (whole passes over the
    /// question list, so every window serves the same mix).
    pub fn windows(&self) -> Vec<Window<'_>> {
        self.marks
            .windows(2)
            .enumerate()
            .map(|(j, m)| Window {
                answers: self.window,
                secs: m[1].t - m[0].t,
                cpu_s: m[1].cpu_s - m[0].cpu_s,
                steal: m[1].ticks.steal_share_since(&m[0].ticks),
                latencies_ms: &self.latencies_ms[j * self.window..(j + 1) * self.window],
            })
            .collect()
    }

    fn record(&mut self, q: usize, start: Instant, done: Instant, resp: Response) {
        let trace = match &resp {
            Response::Translated { body, .. } => body.trace.as_ref(),
            Response::Error { error, trace, .. } if error.kind == ErrorKind::TranslateFailed => {
                trace.as_ref()
            }
            _ => {
                self.failed += 1;
                return;
            }
        };
        self.latencies_ms
            .push(done.saturating_duration_since(start).as_secs_f64() * 1e3);
        if self.latencies_ms.len().is_multiple_of(self.window) {
            self.mark();
        }
        if let Some(t) = trace {
            self.queue_wait_ms.push(t.queue_wait_us as f64 / 1e3);
        }
        match &self.first[q] {
            None => self.first[q] = Some(resp),
            Some(first) => {
                if !same_answer(first, &resp) {
                    self.repeat_mismatches += 1;
                }
            }
        }
    }
}

struct Mark {
    /// Seconds into the timed phase.
    t: f64,
    /// Process CPU seconds.
    cpu_s: f64,
    ticks: CpuTicks,
    /// Resident set, MiB.
    rss_mb: f64,
}

/// Readings over one window of a timed phase.
pub struct Window<'a> {
    pub answers: usize,
    pub secs: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Hypervisor steal as a share of machine busy time.
    pub steal: f64,
    pub latencies_ms: &'a [f64],
}

/// Figures over the windows of a timed phase.
pub struct Figures {
    /// Answers per second.
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_ms_per_req: f64,
}

/// Pools `windows`. With `unstolen`, each window's time (its length, and
/// each latency in it) is scaled by the share of the host's busy time that
/// was not stolen by the hypervisor in that window, so the figures read
/// what the program does per second of CPU the host actually gave it.
pub fn figures(windows: &[Window], unstolen: bool) -> Figures {
    let keep = |w: &Window| if unstolen { 1.0 - w.steal } else { 1.0 };
    let answers: usize = windows.iter().map(|w| w.answers).sum();
    let secs: f64 = windows.iter().map(|w| w.secs * keep(w)).sum();
    let cpu_s: f64 = windows.iter().map(|w| w.cpu_s).sum();
    let mut lat: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().map(move |l| l * keep(w)))
        .collect();
    lat.sort_by(f64::total_cmp);
    Figures {
        qps: answers as f64 / secs,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        cpu_ms_per_req: cpu_s * 1e3 / answers.max(1) as f64,
    }
}

/// Whether two answers carry the same translation (timing and trace fields
/// aside; errors by kind).
pub fn same_answer(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Translated { body: x, .. }, Response::Translated { body: y, .. }) => {
            same_translation(x, y)
        }
        (Response::Error { error: x, .. }, Response::Error { error: y, .. }) => x.kind == y.kind,
        _ => false,
    }
}

fn same_translation(x: &Translated, y: &Translated) -> bool {
    x.sql == y.sql
        && x.rows == y.rows
        && x.ordered == y.ordered
        && x.values == y.values
        && x.degraded == y.degraded
        && x.retries == y.retries
}

struct Pending {
    q: usize,
    start: Instant,
    rx: Receiver<Response>,
}

fn submit(engine: &Engine, question: &Question, seq: u64) -> Option<Receiver<Response>> {
    engine
        .submit(TranslateJob {
            id: Some(seq as i64),
            db: question.db.clone(),
            question: question.text.clone(),
            ..TranslateJob::default()
        })
        .ok()
}

struct Collector {
    pending: VecDeque<Pending>,
    served: Served,
    /// How long to block on the oldest outstanding reply before scanning
    /// the others again. A reply that overtakes the oldest one is stamped
    /// at most this late.
    wait: Duration,
}

impl Collector {
    /// Records every reply that has already arrived.
    fn take_ready(&mut self) -> usize {
        let mut taken = 0;
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].rx.try_recv() {
                Ok(resp) => {
                    let done = Instant::now();
                    let p = self.pending.remove(i).expect("index in range");
                    if i > 0 {
                        self.served.overtaken += 1;
                    }
                    self.served.record(p.q, p.start, done, resp);
                    taken += 1;
                }
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    self.pending.remove(i);
                    self.served.failed += 1;
                    taken += 1;
                }
            }
        }
        taken
    }

    /// Waits (briefly) for at least one reply and records what arrived.
    fn poll(&mut self) {
        if self.take_ready() > 0 || self.pending.is_empty() {
            return;
        }
        match self.pending[0].rx.recv_timeout(self.wait) {
            Ok(resp) => {
                let done = Instant::now();
                let p = self.pending.pop_front().expect("non-empty");
                self.served.record(p.q, p.start, done, resp);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                self.pending.pop_front();
                self.served.failed += 1;
            }
        }
        self.take_ready();
    }
}

/// Closed loop from one thread: keeps `outstanding` requests in flight and
/// starts another whole pass over the questions, each in a fresh seeded
/// order, until `min_s` seconds have passed or `max_passes` passes were
/// made. `window` answers make one measurement window; `wait` is how long
/// the thread blocks on the oldest outstanding reply before it looks at the
/// others.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    engine: &Engine,
    questions: &[Question],
    rng: &mut Rng,
    outstanding: usize,
    wait: Duration,
    min_s: f64,
    max_passes: usize,
    window: usize,
) -> Served {
    let t0 = Instant::now();
    let mut c = Collector {
        pending: VecDeque::new(),
        served: Served::new(questions.len(), t0, window),
        wait,
    };
    let n = questions.len();
    let mut order = rng.pass(n);
    let mut submitted = 0usize;
    let mut submitting = true;
    loop {
        while submitting && c.pending.len() < outstanding {
            if submitted > 0 && submitted.is_multiple_of(n) {
                if submitted / n >= max_passes || t0.elapsed().as_secs_f64() >= min_s {
                    submitting = false;
                    break;
                }
                order = rng.pass(n);
            }
            let q = order[submitted % n];
            submitted += 1;
            c.served.attempted += 1;
            let start = Instant::now();
            match submit(engine, &questions[q], submitted as u64) {
                Some(rx) => c.pending.push_back(Pending { q, start, rx }),
                None => c.served.failed += 1,
            }
        }
        if c.pending.is_empty() && !submitting {
            break;
        }
        c.poll();
    }
    c.served.finish();
    c.served
}
