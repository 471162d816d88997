//! `servebench` — the end-to-end and per-layer benchmark of the served
//! NL→SQL path.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <batched_beam|data_bound> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates a corpus and trains a model (from fixed seeds), starts
//! `valuenet_serve::Engine` in-process, drives the workload for `--seconds`
//! over whole passes of the dev question list in orders drawn from
//! `--seed`, and checks every answer.
//! With `--trace 0` the last line of standard output is the end-to-end
//! result; with `--trace 1` it carries the per-layer metrics of a traced
//! replay instead. See `README.md` beside this file.

mod checks;
mod drive;
mod host;
mod layers;

use std::time::{Duration, Instant};

use valuenet_core::{train, ModelConfig, Pipeline, Prediction, TrainConfig, ValueMode};
use valuenet_dataset::{generate, Corpus, CorpusConfig};
use valuenet_obs::json::Json;
use valuenet_serve::{Engine, ServeConfig};
use valuenet_storage::Database;

use drive::{closed_loop, figures, median, percentile, Rng, Served};

/// One question of the workload's list.
pub struct Question {
    pub db: String,
    pub text: String,
    pub gold_sql: String,
}

/// A named, unit-carrying metric value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    BatchedBeam,
    DataBound,
}

/// The make-up of a workload's inputs, model and engine.
struct MakeUp {
    rows_per_table: usize,
    train_size: usize,
    dev_size: usize,
    epochs: usize,
    beam_width: usize,
    batch_window_us: u64,
    batch_max: usize,
    /// Requests the submitter keeps outstanding.
    outstanding: usize,
    /// How long the submitter blocks on the oldest outstanding reply before
    /// it looks at the others (see the README's "Collecting replies").
    wait: Duration,
    /// Leave statements with nested `SELECT`s out of the reference
    /// interpreter checks (too slow on large tables).
    skip_subqueries: bool,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "batched_beam" => Some(Workload::BatchedBeam),
            "data_bound" => Some(Workload::DataBound),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchedBeam => "batched_beam",
            Workload::DataBound => "data_bound",
        }
    }

    fn make_up(self, cores: usize) -> MakeUp {
        let small = MakeUp {
            rows_per_table: 12,
            train_size: 600,
            dev_size: 96,
            epochs: 4,
            beam_width: 4,
            batch_window_us: 2_000,
            batch_max: 8,
            outstanding: 8,
            // The batched engine answers in submission order.
            wait: Duration::from_millis(50),
            skip_subqueries: false,
        };
        match self {
            Workload::BatchedBeam => small,
            Workload::DataBound => MakeUp {
                rows_per_table: 2_000,
                dev_size: 64,
                beam_width: 1,
                batch_window_us: 0,
                outstanding: cores,
                // Short queries overtake long ones on the other worker.
                wait: Duration::from_micros(200),
                skip_subqueries: true,
                ..small
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The corpus and the model are the same in every run: `--seed` varies the
/// request stream (question order, arrival times), not the system under
/// test. See the README for why.
const CORPUS_SEED: u64 = 42;
const TRAIN_SEED: u64 = 1;

fn corpus(m: &MakeUp) -> Corpus {
    generate(&CorpusConfig {
        seed: CORPUS_SEED,
        train_size: m.train_size,
        dev_size: m.dev_size,
        rows_per_table: m.rows_per_table,
        ..CorpusConfig::default()
    })
}

fn train_pipeline(m: &MakeUp, corpus: &Corpus, cores: usize) -> Pipeline {
    let model = ModelConfig {
        beam_width: m.beam_width,
        ..ModelConfig::tiny()
    };
    let cfg = TrainConfig {
        epochs: m.epochs,
        threads: cores,
        seed: TRAIN_SEED,
        ..TrainConfig::default()
    };
    train(corpus, ValueMode::Full, model, &cfg).0
}

fn questions(corpus: &Corpus) -> Vec<Question> {
    corpus
        .dev
        .iter()
        .map(|s| Question {
            db: s.db_id.clone(),
            text: s.question.clone(),
            gold_sql: s.sql.clone(),
        })
        .collect()
}

/// Wall and CPU seconds of one part of a set-up.
#[derive(Clone, Copy, Default)]
struct Cost {
    wall_s: f64,
    cpu_s: f64,
}

impl Cost {
    fn of<T>(work: impl FnOnce() -> T) -> (T, Cost) {
        let (t, cpu) = (Instant::now(), host::process_cpu_s());
        let out = work();
        let cost = Cost {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: host::process_cpu_s() - cpu,
        };
        (out, cost)
    }
}

/// What each part of one set-up cost.
#[derive(Clone, Copy)]
struct SetupTimes {
    corpus: Cost,
    train: Cost,
    /// Engine start plus the warm-up pass.
    engine: Cost,
}

impl SetupTimes {
    fn cpu_s(&self) -> f64 {
        self.corpus.cpu_s + self.train.cpu_s + self.engine.cpu_s
    }

    fn wall_s(&self) -> f64 {
        self.corpus.wall_s + self.train.wall_s + self.engine.wall_s
    }
}

/// The corpus databases, rebuilt from their specs (the engine owns the
/// set-up's own copy).
fn reference_databases(corpus: &Corpus) -> Vec<Database> {
    corpus
        .specs
        .iter()
        .map(|s| Database::with_rows(s.schema.clone(), s.rows.clone()))
        .collect()
}

/// Each question translated alone by `Pipeline::try_translate`: what the
/// served answers must equal.
fn solo_translations(
    pipeline: &Pipeline,
    databases: &[Database],
    qs: &[Question],
) -> Vec<Prediction> {
    let by_name = |name: &str| {
        databases
            .iter()
            .find(|d| d.schema().db_id == name)
            .expect("question's database exists")
    };
    qs.iter()
        .map(|q| {
            pipeline
                .try_translate(by_name(&q.db), &q.text, None)
                .expect("full-mode translation without a stage guard cannot fail")
        })
        .collect()
}

fn start_engine(m: &MakeUp, cores: usize, pipeline: Pipeline, databases: Vec<Database>) -> Engine {
    Engine::start(
        pipeline,
        databases,
        ServeConfig {
            workers: cores,
            queue_capacity: 4_096,
            batch_window_us: m.batch_window_us,
            batch_max: m.batch_max,
            ..ServeConfig::default()
        },
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <batched_beam|data_bound> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = host::cores();
    let m = args.workload.make_up(cores);
    let mut rng = Rng::new(args.seed ^ 0x5EB0_0C4B_E4C4_0001);
    let trace_out = args.trace.then(|| {
        format!(
            "{}/out/trace-{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.workload.name(),
            args.seed
        )
    });

    // Set up SETUPS times (identical work); serve on the last. Everything
    // before the first timed request counts: corpus generation, training,
    // engine start and one warm-up pass over the question list. The solo
    // translations (and the traced replay) are taken, untimed, from the
    // first set-up's pipeline before it moves into its engine.
    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut solo = None;
    let mut traced = None;
    let mut serving = None;
    for _ in 0..SETUPS {
        drop(serving.take());
        let (corpus, corpus_cost) = Cost::of(|| corpus(&m));
        let (pipeline, train_cost) = Cost::of(|| train_pipeline(&m, &corpus, cores));
        let qs = questions(&corpus);
        if solo.is_none() {
            let databases = reference_databases(&corpus);
            let translations = solo_translations(&pipeline, &databases, &qs);
            traced = trace_out
                .as_deref()
                .map(|out| layers::traced_replay(&qs, &translations, &pipeline, &databases, out));
            solo = Some(translations);
        }
        let (engine, engine_cost) = Cost::of(|| {
            let engine = start_engine(&m, cores, pipeline, corpus.databases);
            closed_loop(
                &engine,
                &qs,
                &mut rng,
                m.outstanding,
                m.wait,
                0.0,
                1,
                qs.len(),
            );
            engine
        });
        times.push(SetupTimes {
            corpus: corpus_cost,
            train: train_cost,
            engine: engine_cost,
        });
        serving = Some((engine, qs));
    }
    let (engine, qs) = serving.expect("at least one set-up");
    let solo = solo.expect("taken in the first set-up");
    assert_eq!(qs.len(), m.dev_size, "corpus has the configured dev size");

    // Timed phase, in windows of one pass over the question list.
    let hwm_before_mb = host::status_mb("VmHWM");
    let (batches0, members0) = (engine.stats().batches(), engine.stats().batch_members());
    let driver_cpu0 = host::thread_cpu_s();
    let served: Served = closed_loop(
        &engine,
        &qs,
        &mut rng,
        m.outstanding,
        m.wait,
        args.seconds,
        usize::MAX,
        qs.len(),
    );
    let driver_cpu_s = host::thread_cpu_s() - driver_cpu0;
    let hwm_after_mb = host::status_mb("VmHWM");
    let batches = engine.stats().batches() - batches0;
    let members = engine.stats().batch_members() - members0;
    drop(engine); // stops and joins every worker

    let (report, check_cost) = Cost::of(|| {
        checks::check(
            &qs,
            &served.first,
            &solo,
            &reference_databases(&corpus(&m)),
            m.skip_subqueries,
            cores,
        )
    });

    let completed = served.completed();
    let windows = served.windows();
    let unstolen = figures(&windows, true);
    let wall = figures(&windows, false);
    let mut steal: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    steal.sort_by(f64::total_cmp);
    let mean_batch = if batches > 0 {
        members as f64 / batches as f64
    } else {
        1.0
    };
    let mut correct = report.passed() && served.repeat_mismatches == 0 && completed > 0;
    let mut context = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("cores", Json::Int(cores as i64)),
        ("simd", Json::Str(host::simd_tier().into())),
        ("rustc", Json::Str(host::rustc_version().into())),
        ("questions", Json::Int(qs.len() as i64)),
        ("attempted", Json::Int(served.attempted as i64)),
        ("completed", Json::Int(completed as i64)),
        ("failed", Json::Int(served.failed as i64)),
        ("span_s", Json::Num(served.span_s)),
        ("windows", Json::Int(windows.len() as i64)),
        ("steal_share", Json::Num(served.steal_share)),
        (
            "window_steal_min_median_max",
            Json::Arr(vec![
                Json::Num(steal.first().copied().unwrap_or(0.0)),
                Json::Num(percentile(&steal, 0.5)),
                Json::Num(steal.last().copied().unwrap_or(0.0)),
            ]),
        ),
        ("wall_qps", Json::Num(wall.qps)),
        ("wall_p50_ms", Json::Num(wall.p50_ms)),
        ("wall_p99_ms", Json::Num(wall.p99_ms)),
        ("unstolen_p99_ms", Json::Num(unstolen.p99_ms)),
        ("vm_hwm_before_timed_mb", Json::Num(hwm_before_mb)),
        ("vm_hwm_after_timed_mb", Json::Num(hwm_after_mb)),
        ("mean_batch", Json::Num(mean_batch)),
        ("overtaken", Json::Int(served.overtaken as i64)),
        (
            "driver_cpu_ms_per_req",
            Json::Num(driver_cpu_s * 1e3 / completed.max(1) as f64),
        ),
        (
            "setups_cpu_s",
            Json::Arr(times.iter().map(|t| Json::Num(t.cpu_s())).collect()),
        ),
        (
            "setups_wall_s",
            Json::Arr(times.iter().map(|t| Json::Num(t.wall_s())).collect()),
        ),
        ("check_s", Json::Num(check_cost.wall_s)),
        ("answered", Json::Int(report.answered as i64)),
        ("solo_mismatches", Json::Int(report.solo_mismatches as i64)),
        (
            "repeat_mismatches",
            Json::Int(served.repeat_mismatches as i64),
        ),
        ("oracle_checked", Json::Int(report.oracle_checked as i64)),
        (
            "oracle_mismatches",
            Json::Int(report.oracle_mismatches as i64),
        ),
        ("oracle_skipped", Json::Int(report.skipped as i64)),
        ("gold_checked", Json::Int(report.gold_checked as i64)),
        ("gold_errors", Json::Int(report.gold_errors as i64)),
    ];
    let metrics = if let Some(traced) = traced {
        correct &= traced.replay_mismatches == 0 && traced.stream_ok;
        let ledger = traced
            .metrics
            .iter()
            .find(|m| m.name == "ledger.unaccounted_ms");
        context.extend([
            ("trace_file", Json::Str(trace_out.unwrap_or_default())),
            (
                "replay_mismatches",
                Json::Int(traced.replay_mismatches as i64),
            ),
            ("translate_ms", Json::Num(traced.translate_ms)),
            (
                "ledger_share",
                Json::Num(ledger.map_or(0.0, |l| l.value) / traced.translate_ms),
            ),
        ]);
        let mut queue_wait = served.queue_wait_ms.clone();
        queue_wait.sort_by(f64::total_cmp);
        let setup_median =
            |part: fn(&SetupTimes) -> Cost| median(times.iter().map(|t| part(t).cpu_s).collect());
        let mut metrics = vec![
            Metric::new("setup.corpus_s", "s", setup_median(|t| t.corpus)),
            Metric::new("setup.train_s", "s", setup_median(|t| t.train)),
            Metric::new("setup.engine_s", "s", setup_median(|t| t.engine)),
            Metric::new("serve.queue_wait_ms", "ms", percentile(&queue_wait, 0.5)),
            Metric::new("serve.batch_size", "members", mean_batch),
        ];
        metrics.extend(traced.metrics);
        metrics
    } else {
        vec![
            Metric::new(
                "setup_s",
                "s",
                median(times.iter().map(SetupTimes::cpu_s).collect()),
            ),
            Metric::new("qps", "req/s", unstolen.qps),
            Metric::new("latency_p50_ms", "ms", unstolen.p50_ms),
            Metric::new("cpu_ms_per_req", "ms", unstolen.cpu_ms_per_req),
            Metric::new("peak_rss_mb", "MiB", served.peak_rss_mb()),
            Metric::new("exec_correct", "questions", report.exec_correct as f64),
        ]
    };

    println!(
        "{}",
        Json::obj(vec![("context", Json::obj(context))]).render()
    );
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(served.attempted as i64)),
        ("failed", Json::Int(served.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
