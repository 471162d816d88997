//! The traced run: replays each question once, solo, calling every layer's
//! public functions in pipeline order, and times each call from the
//! benchmark's own spans. Work counts come from the program's
//! `valuenet_obs` counters (collection is enabled only here) and the tensor
//! buffer pool's always-on statistics. Spans and counts are kept in memory
//! and written at the end as an obs JSONL stream that `vn-obs-check`
//! accepts.

use std::collections::HashMap;
use std::time::Instant;

use valuenet_core::{assemble_candidates, build_input_opts, candidate_texts, Pipeline, Prediction};
use valuenet_exec::execute;
use valuenet_obs::json::Json;
use valuenet_obs::JsonlWriter;
use valuenet_preprocess::{
    generate_candidates, question_hints, schema_hints, tokenize_question, Ner, Preprocessed,
};
use valuenet_schema::SchemaGraph;
use valuenet_semql::{actions_to_ast, to_sql, Action, ResolvedValue};
use valuenet_serve::{translate_frame, Request};
use valuenet_storage::Database;
use valuenet_tensor::Graph;

use crate::checks::solo_response;
use crate::drive::percentile;
use crate::{Metric, Question};

/// The layer stages of one translation, in pipeline order; their times add
/// up to a `Pipeline::try_translate` of the same question.
const STAGES: [&str; 7] = [
    "preprocess",
    "value_lookup",
    "input",
    "encoder",
    "decoder",
    "lower",
    "exec",
];

/// Counters read around the decode and the execution loop.
const COUNTERS: [&str; 3] = ["beam.steps", "tensor.matmul.flops", "exec.rows_scanned"];

struct SpanRec {
    request: u64,
    name: &'static str,
    parent: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    /// Runs `f` inside a span and returns its result with the span's length
    /// in milliseconds.
    fn time<R>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        self.spans.push(SpanRec {
            request,
            name,
            parent: "request",
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (r, dur.as_secs_f64() * 1e3)
    }
}

fn counters() -> [u64; 3] {
    let snap = valuenet_obs::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-question readings of the traced replay.
#[derive(Default)]
struct Readings {
    stage_ms: HashMap<&'static str, Vec<f64>>,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    candidates: Vec<f64>,
    steps: Vec<f64>,
    hypotheses: Vec<f64>,
    mflop: Vec<f64>,
    pool_misses: Vec<f64>,
    rows_scanned: Vec<f64>,
    hypotheses_run: Vec<f64>,
    unaccounted_ms: Vec<f64>,
    translate_ms: Vec<f64>,
}

/// What the traced run found.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Questions whose staged replay chose different SQL than
    /// `Pipeline::try_translate` — the replay would then not be measuring
    /// the pipeline.
    pub replay_mismatches: usize,
    /// Mean `try_translate` wall time, ms (the ledger's base).
    pub translate_ms: f64,
    /// Whether the written stream passed the obs validator.
    pub stream_ok: bool,
}

/// Replays every question (`solo[q]` is its translation made alone, whose
/// response the protocol layer renders) and writes the spans and counts to
/// `out_path`.
pub fn traced_replay(
    questions: &[Question],
    solo: &[Prediction],
    pipeline: &Pipeline,
    databases: &[Database],
    out_path: &str,
) -> Traced {
    let dbs: HashMap<&str, &Database> = databases
        .iter()
        .map(|d| (d.schema().db_id.as_str(), d))
        .collect();
    let model = &pipeline.model;
    let beam = model.config.beam_width > 1;
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut r = Readings::default();
    let mut replay_mismatches = 0;
    let counters_before = counters();
    valuenet_obs::set_enabled(true);

    for (q, (question, solo)) in questions.iter().zip(solo).enumerate() {
        let db = dbs[question.db.as_str()];
        let text = question.text.as_str();
        let id = q as u64 + 1;

        // Protocol: parse the request frame, render the served reply.
        let frame = translate_frame(id as i64, &question.db, text, None, None, None).render();
        let (parsed, ms) = rec.time(id, "protocol.parse", || Request::parse(&frame));
        assert!(parsed.is_ok(), "translate frame parses");
        r.parse_us.push(ms * 1e3);
        let reply = solo_response(solo);
        let (_, ms) = rec.time(id, "protocol.render", || reply.render());
        r.render_us.push(ms * 1e3);

        // The pipeline, stage by stage (mirrors Pipeline::try_translate).
        let mut stage = [0.0f64; 7];
        let (tokens, ms) = rec.time(id, "preprocess", || tokenize_question(text));
        stage[0] += ms;
        let (cands, ms) = rec.time(id, "value_lookup", || {
            let extracted = pipeline.ner.extract(text, &tokens);
            generate_candidates(&extracted, &tokens, db, &pipeline.cand_cfg)
        });
        stage[1] += ms;
        r.candidates.push(cands.len() as f64);
        let (pre, ms) = rec.time(id, "preprocess", || {
            let qh = question_hints(&tokens, db);
            let sh = schema_hints(&tokens, db, &cands);
            Preprocessed {
                tokens,
                question_hints: qh,
                schema_hints: sh,
                candidates: cands,
            }
        });
        stage[0] += ms;
        let (input, ms) = rec.time(id, "input", || {
            let assembled = assemble_candidates(db, &pre, pipeline.mode, None, false);
            build_input_opts(db, &pre, &assembled, &model.vocab, model.input_options())
        });
        stage[2] += ms;
        let (_, encode_ms) = rec.time(id, "encoder", || {
            let mut g = Graph::new();
            g.set_inference(true);
            std::hint::black_box(model.encode(&mut g, &input, None));
        });
        stage[3] += encode_ms;
        let (c0, pool0) = (counters(), valuenet_tensor::pool::stats());
        let start = Instant::now();
        let hypotheses: Vec<Vec<Action>> = if beam {
            model
                .predict_beam(&input)
                .into_iter()
                .map(|(a, _)| a)
                .collect()
        } else {
            model.predict(&input).into_iter().collect()
        };
        let predict_ms = start.elapsed().as_secs_f64() * 1e3;
        let (c1, pool1) = (counters(), valuenet_tensor::pool::stats());
        // The decode re-encodes; the decoder's share is the rest.
        let decode_ms = (predict_ms - encode_ms).max(0.0);
        rec.spans.push(SpanRec {
            request: id,
            name: "decoder",
            parent: "request",
            start_ns: start.duration_since(rec.epoch).as_nanos() as u64,
            dur_ns: (decode_ms * 1e6) as u64,
        });
        stage[4] += decode_ms;
        r.steps.push(if beam {
            (c1[0] - c0[0]) as f64
        } else {
            hypotheses.first().map_or(0, Vec::len) as f64
        });
        r.hypotheses.push(hypotheses.len() as f64);
        r.mflop.push((c1[1] - c0[1]) as f64 / 1e6);
        r.pool_misses.push(pool1.since(&pool0).misses as f64);

        // Lowering and execution-guided selection.
        let ((graph, resolved), ms) = rec.time(id, "lower", || {
            let resolved: Vec<ResolvedValue> = candidate_texts(&input)
                .iter()
                .map(ResolvedValue::new)
                .collect();
            (SchemaGraph::new(db.schema()), resolved)
        });
        stage[5] += ms;
        let mut chosen: Option<Option<String>> = None;
        let mut run = 0;
        for actions in &hypotheses {
            let ((semql, sql), ms) = rec.time(id, "lower", || {
                let semql = actions_to_ast(actions).ok();
                let sql = semql
                    .as_ref()
                    .and_then(|t| to_sql(t, db.schema(), &graph, &resolved).ok());
                (semql, sql)
            });
            stage[5] += ms;
            run += 1;
            let (executed, ms) = rec.time(id, "exec", || {
                sql.as_ref().is_some_and(|stmt| execute(db, stmt).is_ok())
            });
            stage[6] += ms;
            if semql.is_some() && (chosen.is_none() || executed) {
                chosen = Some(sql.map(|s| s.to_string()));
            }
            if executed {
                break;
            }
        }
        r.hypotheses_run.push(f64::from(run));
        r.rows_scanned.push((counters()[2] - c1[2]) as f64);

        // The ledger: the whole translation, timed on its own.
        let (p, translate_ms) = rec.time(id, "translate", || {
            pipeline
                .try_translate(db, text, None)
                .expect("solo translation")
        });
        if p.sql.map(|s| s.to_string()) != chosen.flatten() {
            replay_mismatches += 1;
        }
        for (name, ms) in STAGES.iter().zip(stage) {
            r.stage_ms.entry(name).or_default().push(ms);
        }
        r.unaccounted_ms
            .push(translate_ms - stage.iter().sum::<f64>());
        r.translate_ms.push(translate_ms);
    }
    valuenet_obs::set_enabled(false);
    let counters_after = counters();

    let mut exec_sorted = r.stage_ms.get("exec").cloned().unwrap_or_default();
    exec_sorted.sort_by(f64::total_cmp);
    let stage_mean = |name: &str| r.stage_ms.get(name).map_or(0.0, |v| mean(v));
    let metrics = vec![
        Metric::new("protocol.parse_us", "us", mean(&r.parse_us)),
        Metric::new("protocol.render_us", "us", mean(&r.render_us)),
        Metric::new("preprocess.ms", "ms", stage_mean("preprocess")),
        Metric::new("value_lookup.ms", "ms", stage_mean("value_lookup")),
        Metric::new("value_lookup.candidates", "count", mean(&r.candidates)),
        Metric::new("input.ms", "ms", stage_mean("input")),
        Metric::new("encoder.ms", "ms", stage_mean("encoder")),
        Metric::new("decoder.ms", "ms", stage_mean("decoder")),
        Metric::new("decoder.steps", "count", mean(&r.steps)),
        Metric::new("decoder.hypotheses", "count", mean(&r.hypotheses)),
        Metric::new("tensor.matmul_mflop", "MFLOP", mean(&r.mflop)),
        Metric::new("tensor.pool_misses", "count", mean(&r.pool_misses)),
        Metric::new("lower.ms", "ms", stage_mean("lower")),
        Metric::new("exec.ms", "ms", percentile(&exec_sorted, 0.50)),
        Metric::new("exec.p99_ms", "ms", percentile(&exec_sorted, 0.99)),
        Metric::new("exec.rows_scanned", "count", mean(&r.rows_scanned)),
        Metric::new("exec.hypotheses_run", "count", mean(&r.hypotheses_run)),
        Metric::new("ledger.unaccounted_ms", "ms", mean(&r.unaccounted_ms)),
    ];
    let totals: Vec<(&str, u64)> = COUNTERS
        .iter()
        .zip(counters_after.iter().zip(counters_before))
        .map(|(name, (after, before))| (*name, after - before))
        .collect();
    let stream_ok = write_stream(out_path, &rec.spans, &totals, &metrics);
    Traced {
        metrics,
        replay_mismatches,
        translate_ms: mean(&r.translate_ms),
        stream_ok,
    }
}

/// Writes the spans, counter totals and per-layer metrics in the obs JSONL
/// envelope and validates the file with the obs checker.
fn write_stream(path: &str, spans: &[SpanRec], totals: &[(&str, u64)], metrics: &[Metric]) -> bool {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = JsonlWriter::create(path)?;
        w.write(Json::obj(vec![
            ("type", Json::Str("meta".into())),
            ("clock", Json::Str("monotonic_ns".into())),
            ("source", Json::Str("servebench traced replay".into())),
        ]))?;
        for s in spans {
            w.write(Json::obj(vec![
                ("type", Json::Str("span".into())),
                ("name", Json::Str(s.name.into())),
                ("trace_id", Json::Int(s.request as i64)),
                ("parent", Json::Str(s.parent.into())),
                ("tid", Json::Int(0)),
                ("depth", Json::Int(1)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("dur_ns", Json::Int(s.dur_ns as i64)),
            ]))?;
        }
        for (name, value) in totals {
            w.write(Json::obj(vec![
                ("type", Json::Str("counter".into())),
                ("name", Json::Str((*name).into())),
                ("value", Json::Int(*value as i64)),
            ]))?;
        }
        for m in metrics {
            w.write(Json::obj(vec![
                ("type", Json::Str("metric".into())),
                ("name", Json::Str(m.name.into())),
                ("index", Json::Int(0)),
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]))?;
        }
        w.finish()
    };
    if let Err(e) = write() {
        eprintln!("servebench: cannot write {path}: {e}");
        return false;
    }
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut required: Vec<&str> = STAGES.to_vec();
    required.extend(["protocol.parse", "protocol.render", "translate"]);
    let report = valuenet_obs::check::check_stream(path, &text, &required);
    for e in &report.errors {
        eprintln!("servebench: {e}");
    }
    report.ok()
}
