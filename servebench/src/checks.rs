//! Correctness checks run after the timed phase:
//!
//! * every served answer equals an in-process solo `Pipeline::try_translate`
//!   of the same question (batched decoding promises bit-identity with solo
//!   decoding), and repeats of a question were identical (counted while
//!   serving);
//! * every distinct served SQL statement, re-executed by the reference
//!   interpreter `valuenet_verify::oracle::reference_execute`, gives the
//!   rows that were served;
//! * the gold SQL, run by the same interpreter, gives `exec_correct`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use valuenet_core::Prediction;
use valuenet_exec::ResultSet;
use valuenet_serve::{ErrorKind, Response, ServeError, Translated};
use valuenet_storage::Database;
use valuenet_verify::oracle::reference_execute;

use crate::drive::same_answer;
use crate::Question;

/// Outcome of the checks.
pub struct CheckReport {
    /// Distinct questions answered during the run.
    pub answered: usize,
    /// Served answers that differ from the solo translation.
    pub solo_mismatches: usize,
    /// Distinct served statements re-executed by the reference interpreter.
    pub oracle_checked: usize,
    /// Of those, statements whose oracle rows differ from the served rows.
    pub oracle_mismatches: usize,
    /// Questions left out of the oracle and gold checks by the subquery
    /// rule (see [`check`]).
    pub skipped: usize,
    /// Questions whose gold SQL the reference interpreter evaluated.
    pub gold_checked: usize,
    /// Gold statements the reference interpreter could not evaluate.
    pub gold_errors: usize,
    /// Questions whose served result set equals the gold result set.
    pub exec_correct: usize,
}

impl CheckReport {
    pub fn passed(&self) -> bool {
        self.solo_mismatches == 0 && self.oracle_mismatches == 0 && self.gold_errors == 0
    }
}

/// Whether a statement nests a `SELECT`. The reference interpreter
/// re-evaluates an uncorrelated subquery for every outer row, which on
/// 2,000-row tables costs seconds per statement.
fn has_subquery(sql: &str) -> bool {
    sql.to_ascii_uppercase().contains("(SELECT")
}

/// The response the engine sends for a prediction (mirrors the engine's
/// response assembly).
pub fn solo_response(p: &Prediction) -> Response {
    let error = |kind| Response::Error {
        id: None,
        error: ServeError::new(kind, ""),
        trace: None,
    };
    let Some(sql) = &p.sql else {
        return error(ErrorKind::TranslateFailed);
    };
    let Ok(values) = p.selected_values() else {
        return error(ErrorKind::Internal);
    };
    let (rows, ordered) = match &p.result {
        Some(rs) => (
            rs.rows
                .iter()
                .map(|r| r.iter().map(ToString::to_string).collect())
                .collect(),
            rs.ordered,
        ),
        None => (Vec::new(), false),
    };
    Response::Translated {
        id: None,
        body: Box::new(Translated {
            sql: sql.to_string(),
            rows,
            ordered,
            values,
            latency_us: 0,
            retries: 0,
            degraded: false,
            trace: None,
        }),
    }
}

fn agrees(served: Option<&ResultSet>, oracle: &Result<ResultSet, String>) -> bool {
    match (served, oracle) {
        (Some(rs), Ok(o)) => rs.result_eq(o),
        (None, Err(_)) => true,
        _ => false,
    }
}

fn run_reference(db: &Database, sql: &str) -> Result<ResultSet, String> {
    let stmt = valuenet_sql::parse_select(sql).map_err(|e| e.to_string())?;
    reference_execute(db, &stmt).map_err(|e| e.to_string())
}

/// Runs the reference interpreter over `jobs` on `threads` threads.
fn run_all(
    dbs: &HashMap<&str, &Database>,
    jobs: &[(&str, &str)],
    threads: usize,
) -> Vec<Result<ResultSet, String>> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<Result<ResultSet, String>>> = vec![None; jobs.len()];
    let parts: Vec<Vec<(usize, Result<ResultSet, String>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((db, sql)) = jobs.get(i) else {
                            return done;
                        };
                        done.push((i, run_reference(dbs[db], sql)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every job ran")).collect()
}

/// Checks every answered question against `solo`, the translations of each
/// question made alone by an identically seeded pipeline. With
/// `skip_subqueries`, questions whose gold or served SQL nests a `SELECT`
/// are left out of the oracle and gold checks (and so of `exec_correct`);
/// the solo check still covers them.
pub fn check(
    questions: &[Question],
    first: &[Option<Response>],
    solo: &[Prediction],
    databases: &[Database],
    skip_subqueries: bool,
    threads: usize,
) -> CheckReport {
    let dbs: HashMap<&str, &Database> = databases
        .iter()
        .map(|d| (d.schema().db_id.as_str(), d))
        .collect();
    let mut report = CheckReport {
        answered: 0,
        solo_mismatches: 0,
        oracle_checked: 0,
        oracle_mismatches: 0,
        skipped: 0,
        gold_checked: 0,
        gold_errors: 0,
        exec_correct: 0,
    };

    // Served against solo, for every answered question.
    let solo: Vec<(usize, &Prediction)> = first
        .iter()
        .zip(solo)
        .enumerate()
        .filter_map(|(q, (served, p))| served.as_ref().map(|s| (q, s, p)))
        .map(|(q, served, p)| {
            report.answered += 1;
            if !same_answer(served, &solo_response(p)) {
                report.solo_mismatches += 1;
            }
            (q, p)
        })
        .collect();

    // Reference-interpreter jobs: each distinct served statement, then each
    // question's gold statement.
    let mut served_sql: BTreeMap<(&str, String), Vec<usize>> = BTreeMap::new();
    let mut gold: Vec<usize> = Vec::new();
    for (i, (q, p)) in solo.iter().enumerate() {
        let question = &questions[*q];
        let sql = p.sql.as_ref().map(ToString::to_string);
        if skip_subqueries
            && (has_subquery(&question.gold_sql) || sql.as_deref().is_some_and(has_subquery))
        {
            report.skipped += 1;
            continue;
        }
        if let Some(sql) = sql {
            served_sql
                .entry((question.db.as_str(), sql))
                .or_default()
                .push(i);
        }
        gold.push(i);
    }
    let mut jobs: Vec<(&str, &str)> = served_sql
        .keys()
        .map(|(db, sql)| (*db, sql.as_str()))
        .collect();
    jobs.extend(gold.iter().map(|&i| {
        let question = &questions[solo[i].0];
        (question.db.as_str(), question.gold_sql.as_str())
    }));
    let results = run_all(&dbs, &jobs, threads);
    let (served_results, gold_results) = results.split_at(served_sql.len());

    report.oracle_checked = served_sql.len();
    for (users, oracle) in served_sql.values().zip(served_results) {
        if users
            .iter()
            .any(|&i| !agrees(solo[i].1.result.as_ref(), oracle))
        {
            report.oracle_mismatches += 1;
        }
    }
    report.gold_checked = gold.len();
    for (&i, gold) in gold.iter().zip(gold_results) {
        match gold {
            Ok(g) => {
                if solo[i].1.result.as_ref().is_some_and(|r| r.result_eq(g)) {
                    report.exec_correct += 1;
                }
            }
            Err(_) => report.gold_errors += 1,
        }
    }
    report
}
