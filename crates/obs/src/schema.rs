//! The versioned event schema: every kind, field, unit and emitting site.
//!
//! This table is the single source of truth for the JSONL wire format:
//! the "Event kinds" section of OBSERVABILITY.md is [`render_markdown`]'s
//! output (`obs_report --schema-md` prints it), and a test in this module
//! holds the committed section to it byte for byte.
//!
//! Every event line carries the envelope `v` (schema version), `seq`
//! (monotone per sink), `t` (logical timestamp; the unit is per-kind) and
//! `kind`; the payload fields are listed here. [`validate`] checks an
//! event against its [`KindSpec`] — unknown kinds, missing required
//! fields, type mismatches and (for closed kinds) undeclared fields are
//! all errors. The sink validates every event before encoding it, so a
//! file produced by this crate conforms to this schema by construction.

use crate::event::{Event, Value};
use crate::ObsLevel;

/// Version stamp written as `"v"` on every event line. Bump on any
/// incompatible change to the envelope or a registered kind.
pub const SCHEMA_VERSION: u32 = 1;

/// Wire type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// JSON number, unsigned integer range.
    U64,
    /// JSON number, signed integer range.
    I64,
    /// JSON number (or `null` for a non-finite float).
    F64,
    /// JSON string.
    Str,
    /// JSON `true`/`false`.
    Bool,
}

impl FieldType {
    /// The type's name in the schema document.
    pub fn name(self) -> &'static str {
        match self {
            FieldType::U64 => "u64",
            FieldType::I64 => "i64",
            FieldType::F64 => "f64",
            FieldType::Str => "str",
            FieldType::Bool => "bool",
        }
    }

    fn matches(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (FieldType::U64, Value::U64(_))
                | (FieldType::I64, Value::I64(_))
                | (FieldType::F64, Value::F64(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Bool, Value::Bool(_))
        )
    }
}

/// One documented field of an event kind.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// Field name on the wire.
    pub name: &'static str,
    /// Wire type.
    pub ty: FieldType,
    /// Unit or domain, for the schema document ("s", "iterations", …).
    pub unit: &'static str,
}

const fn req(name: &'static str, ty: FieldType, unit: &'static str) -> FieldSpec {
    FieldSpec { name, ty, unit }
}

/// One documented event kind.
#[derive(Debug, Clone, Copy)]
pub struct KindSpec {
    /// The `kind` value on the wire.
    pub kind: &'static str,
    /// Minimum [`ObsLevel`] at which the kind is emitted.
    pub level: ObsLevel,
    /// The clock feeding `t` for this kind.
    pub clock: &'static str,
    /// Where the event is emitted from (crate::module).
    pub site: &'static str,
    /// Prose for the schema document: when the kind is emitted and how to
    /// read it (may be empty).
    pub doc: &'static str,
    /// Payload fields.
    pub fields: &'static [FieldSpec],
    /// When `true` the kind may carry extra context fields beyond
    /// `fields` (only the span kinds are open; everything else is closed).
    pub open: bool,
}

use FieldType::{Bool, Str, F64, U64};

/// Every event kind of schema v1, in documentation order.
pub const KINDS: &[KindSpec] = &[
    // ---- run envelope -------------------------------------------------
    KindSpec {
        kind: "run_info",
        level: ObsLevel::Summary,
        clock: "constant 0",
        site: "src/bin/mvcom.rs",
        doc: "First line of every file; identifies the producing invocation.",
        fields: &[
            req("tool", Str, "emitting binary/subcommand"),
            req("schema", U64, "schema version (duplicates `v`)"),
            req("seed", U64, "master seed"),
            req("level", Str, "off|summary|events|trace"),
        ],
        open: false,
    },
    // ---- spans --------------------------------------------------------
    KindSpec {
        kind: "span_open",
        level: ObsLevel::Events,
        clock: "emitting site's logical clock",
        site: "any (span! macro)",
        doc: "Spans bracket pipeline stages; an open/close pair shares an `id`. Open kinds may attach context, e.g. `\"epoch\":3` or `\"solver\":\"se\"`.",
        fields: &[
            req("id", U64, "span id, unique per sink"),
            req("name", Str, "span name"),
        ],
        open: true,
    },
    KindSpec {
        kind: "span_close",
        level: ObsLevel::Events,
        clock: "emitting site's logical clock",
        site: "any (span! macro)",
        doc: "Carries the duration on the same logical clock as the matching `span_open`. A missing close means the stage never finished (crash or injected failure) — that absence is itself signal.",
        fields: &[
            req("id", U64, "span id of the matching span_open"),
            req("name", Str, "span name"),
            req("dur", F64, "t_close − t_open, logical seconds"),
        ],
        open: false,
    },
    // ---- SE engine (clock: virtual seconds, `vtime`) ------------------
    KindSpec {
        kind: "se_init",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Emitted once when a telemetry handle is attached to an engine. The SE clock is the engine's CTMC `vtime`: the sum of the winning exponential timers (Alg. 3 of the paper).",
        fields: &[
            req(
                "iter",
                U64,
                "iterations executed so far (0, or the resume point after a restore)",
            ),
            req("gamma", U64, "replica count"),
            req("chains", U64, "total chains across replicas"),
            req("card_lo", U64, "lowest chain cardinality"),
            req("card_hi", U64, "highest chain cardinality"),
            req("instance_len", U64, "|I|, shards in the instance"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_point",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "The utility trajectory, sampled every `record_every` iterations.",
        fields: &[
            req("iter", U64, "iteration"),
            req(
                "current_best",
                F64,
                "best utility among current chain states",
            ),
            req("best_so_far", F64, "best feasible utility since run start"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_chain_point",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Per-chain utility sample, taken every `(max_iterations/50).max(1)` iterations and unconditionally at iteration 0, so every chain of every replica appears at least once in any events-level file.",
        fields: &[
            req("replica", U64, "replica index g"),
            req("chain", U64, "chain index within the replica"),
            req("card", U64, "chain cardinality n"),
            req("iter", U64, "iteration"),
            req("utility", F64, "U_{f_n} of the chain's current solution"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_propose",
        level: ObsLevel::Trace,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "One per winning proposal (the chain whose exponential timer fired first).",
        fields: &[
            req("replica", U64, "replica index"),
            req("chain", U64, "chain index"),
            req("iter", U64, "iteration"),
            req("out", U64, "shard index leaving the solution (ĩ)"),
            req("inc", U64, "shard index entering the solution (ï)"),
            req("delta", F64, "utility change U_f' − U_f"),
            req("ln_timer", F64, "ln of the winning exponential timer"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_commit",
        level: ObsLevel::Trace,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Emitted when the winning proposal is applied to its chain.",
        fields: &[
            req("replica", U64, "replica index"),
            req("chain", U64, "chain index"),
            req("iter", U64, "iteration"),
            req("utility", F64, "chain utility after the committed swap"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_improve",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Emitted whenever the best-so-far feasible utility improves.",
        fields: &[
            req("iter", U64, "iteration of the improvement"),
            req("utility", F64, "new best-so-far utility"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_converged",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Terminal event of an SE run.",
        fields: &[
            req("iter", U64, "iteration at convergence"),
            req("best", F64, "best feasible utility at convergence"),
            req("converged", Bool, "false when the iteration budget ran out"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_dynamic",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "Node churn applied to a running engine (Theorem 2 re-admission path).",
        fields: &[
            req("iter", U64, "iteration of the dynamic event"),
            req("event", Str, "join|leave"),
            req("committee", U64, "committee id"),
            req("utility_before", F64, "current best before the event"),
            req("utility_after", F64, "current best after re-seeding"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_checkpoint_save",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "A checkpoint was taken: the recovery path's crash-resume mechanism, and one per daemon epoch.",
        fields: &[
            req("version", U64, "checkpoint version stamp"),
            req("iter", U64, "iteration the snapshot was taken at"),
            req("chains", U64, "chains recorded in the snapshot"),
        ],
        open: false,
    },
    KindSpec {
        kind: "se_checkpoint_restore",
        level: ObsLevel::Events,
        clock: "virtual seconds",
        site: "mvcom-core::se::engine",
        doc: "An engine was rebuilt from a checkpoint.",
        fields: &[
            req("version", U64, "checkpoint version stamp"),
            req("iter", U64, "iteration resumed from"),
            req("chains", U64, "chains rebuilt from the snapshot"),
        ],
        open: false,
    },
    // ---- Elastico epoch (clock: simulated seconds) --------------------
    KindSpec {
        kind: "epoch_start",
        level: ObsLevel::Summary,
        clock: "simulated seconds (epoch-relative)",
        site: "mvcom-elastico::epoch",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("nodes", U64, "nodes running PoW"),
        ],
        open: false,
    },
    KindSpec {
        kind: "pow_done",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::epoch",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("solutions", U64, "PoW solutions found"),
        ],
        open: false,
    },
    KindSpec {
        kind: "formation_done",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::epoch",
        doc: "Stage 2 has one model, the parametric overlay cost, so `directory` is always `false`; the key stays so that pinned streams hold.",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("committees", U64, "committees at/above the minimum size"),
            req("directory", Bool, "always `false`"),
        ],
        open: false,
    },
    KindSpec {
        kind: "committee_consensus",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::epoch",
        doc: "One per intra-committee PBFT instance in stage 3.",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("committee", U64, "committee id"),
            req("committed", Bool, "intra-committee PBFT committed"),
            req("latency", F64, "consensus latency, s"),
            req("txs", U64, "shard transaction count"),
        ],
        open: false,
    },
    KindSpec {
        kind: "final_block",
        level: ObsLevel::Summary,
        clock: "simulated seconds",
        site: "mvcom-elastico::epoch",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("committed", Bool, "final PBFT committed"),
            req("included", U64, "admitted committees"),
            req("total_txs", U64, "transactions in the final block"),
            req("latency", F64, "final consensus latency, s"),
        ],
        open: false,
    },
    KindSpec {
        kind: "epoch_end",
        level: ObsLevel::Summary,
        clock: "simulated seconds",
        site: "mvcom-elastico::epoch",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch id"),
            req("shards", U64, "shards that survived stage 3"),
            req("admitted", U64, "shards admitted to the final block"),
            req("committed", Bool, "final block committed"),
        ],
        open: false,
    },
    // ---- PBFT (clock: simulated seconds) ------------------------------
    KindSpec {
        kind: "pbft_phase",
        level: ObsLevel::Trace,
        clock: "simulated seconds",
        site: "mvcom-pbft::runner",
        doc: "",
        fields: &[
            req("label", Str, "consensus instance label"),
            req("view", U64, "view number"),
            req("phase", Str, "pre-prepare|prepared|committed"),
        ],
        open: false,
    },
    KindSpec {
        kind: "pbft_view_change",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-pbft::runner",
        doc: "",
        fields: &[
            req("label", Str, "consensus instance label"),
            req("view", U64, "view being abandoned"),
        ],
        open: false,
    },
    KindSpec {
        kind: "pbft_done",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-pbft::runner",
        doc: "",
        fields: &[
            req("label", Str, "consensus instance label"),
            req("committed", Bool, "decision reached before the deadline"),
            req("view", U64, "deciding view"),
            req("latency", F64, "consensus latency, s"),
        ],
        open: false,
    },
    // ---- recovery path (clock: simulated seconds) ---------------------
    KindSpec {
        kind: "suspicion",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::recovery",
        doc: "Phi-accrual suspicion sample for a monitored committee. A `null` `phi` encodes an infinite suspicion level (no heartbeat ever seen inside the window).",
        fields: &[
            req("committee", U64, "monitored committee id"),
            req("phi", F64, "phi-accrual suspicion level (null = infinite)"),
        ],
        open: false,
    },
    KindSpec {
        kind: "failure_declared",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::recovery",
        doc: "",
        fields: &[
            req("committee", U64, "failed committee id"),
            req(
                "phi",
                F64,
                "suspicion level at declaration (null = infinite)",
            ),
        ],
        open: false,
    },
    KindSpec {
        kind: "submission_retry",
        level: ObsLevel::Events,
        clock: "simulated seconds",
        site: "mvcom-elastico::recovery",
        doc: "",
        fields: &[
            req("committee", U64, "retrying committee id"),
            req("attempt", U64, "retry ordinal (1 = first retry)"),
        ],
        open: false,
    },
    // ---- adversarial economics (clock: epoch index) --------------------
    KindSpec {
        kind: "adversary_act",
        level: ObsLevel::Events,
        clock: "epoch index",
        site: "mvcom-elastico::epoch / mvcom-bench::fig_adv",
        doc: "Emitted where the lie enters the system (`ElasticoSim::run_epoch_in` with an adversary, under direct or chaos delivery, or `fig_adv`'s arm runner). With `flagged`, `quarantine` and `rehabilitated` — all three from `DefenseEngine` — it traces the strategic fault model of DESIGN.md §10: what the coalition claimed, and how the defense layer reacted.",
        fields: &[
            req("committee", U64, "acting committee id"),
            req("epoch", U64, "epoch index"),
            req("strategy", Str, "misreport|freerider|starver"),
            req("ds", F64, "relative size misreport (reported/true − 1)"),
            req("dl", F64, "relative latency misreport (reported/true − 1)"),
        ],
        open: false,
    },
    KindSpec {
        kind: "flagged",
        level: ObsLevel::Events,
        clock: "epoch index",
        site: "mvcom-core::defense",
        doc: "",
        fields: &[
            req("committee", U64, "flagged committee id"),
            req("epoch", U64, "epoch index"),
            req(
                "residual",
                F64,
                "median windowed residual that crossed the threshold",
            ),
            req("trust", F64, "trust weight after the flag discount"),
        ],
        open: false,
    },
    KindSpec {
        kind: "quarantine",
        level: ObsLevel::Events,
        clock: "epoch index",
        site: "mvcom-core::defense",
        doc: "",
        fields: &[
            req("committee", U64, "quarantined committee id"),
            req("epoch", U64, "epoch index"),
            req("until", U64, "first epoch eligible for readmission"),
            req(
                "offenses",
                U64,
                "lifetime quarantine count (drives the backoff)",
            ),
        ],
        open: false,
    },
    KindSpec {
        kind: "rehabilitated",
        level: ObsLevel::Events,
        clock: "epoch index",
        site: "mvcom-core::defense",
        doc: "",
        fields: &[
            req("committee", U64, "readmitted committee id"),
            req("epoch", U64, "epoch index"),
            req("trust", F64, "trust weight at readmission"),
        ],
        open: false,
    },
    // ---- baselines (clock: iteration index) ---------------------------
    KindSpec {
        kind: "solver_point",
        level: ObsLevel::Events,
        clock: "iteration",
        site: "mvcom-baselines",
        doc: "",
        fields: &[
            req("solver", Str, "solver name"),
            req("iter", U64, "iteration"),
            req("best", F64, "best utility so far"),
        ],
        open: false,
    },
    KindSpec {
        kind: "solver_done",
        level: ObsLevel::Events,
        clock: "iteration",
        site: "mvcom-baselines / src/bin/mvcom.rs",
        doc: "",
        fields: &[
            req("solver", Str, "solver name"),
            req("iters", U64, "iterations executed"),
            req("best", F64, "final best utility"),
        ],
        open: false,
    },
    // ---- daemon (clock: logical ingest seconds, EpochClock) -----------
    KindSpec {
        kind: "epoch_open",
        level: ObsLevel::Events,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "The daemon clock is its `EpochClock`, which advances `--batch-interval` seconds per ingested batch and never reads wall time. The six daemon kinds trace the service lifecycle (OPERATIONS.md covers the operator view): epochs opening and closing, batches arriving, history appends, crash-recovery replays and threshold alerts.",
        fields: &[
            req("epoch", U64, "epoch index being opened"),
            req("planned", U64, "reports that will close the epoch"),
        ],
        open: false,
    },
    KindSpec {
        kind: "ingest_batch",
        level: ObsLevel::Events,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch index the batch lands in"),
            req("batch", U64, "batch index within the epoch"),
            req("reports", U64, "reports ingested by this batch"),
            req("txs", U64, "transactions offered by this batch"),
        ],
        open: false,
    },
    KindSpec {
        kind: "epoch_close",
        level: ObsLevel::Summary,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch index being closed"),
            req("reports", U64, "reports ingested this epoch"),
            req("offered_txs", U64, "transactions offered (ground truth)"),
            req("admitted", U64, "committees admitted by the schedule"),
            req("admitted_txs", U64, "transactions admitted (ground truth)"),
            req(
                "utility",
                F64,
                "scheduling objective of the chosen committee set",
            ),
            req("alerts", U64, "threshold alerts fired by this epoch"),
        ],
        open: false,
    },
    KindSpec {
        kind: "history_append",
        level: ObsLevel::Events,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "",
        fields: &[
            req("record", Str, "history record kind (Header|Epoch)"),
            req("bytes", U64, "framed size of the appended record"),
        ],
        open: false,
    },
    KindSpec {
        kind: "recovery_replay",
        level: ObsLevel::Summary,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "",
        fields: &[
            req("epochs", U64, "epochs restored from the history log"),
            req(
                "cursor",
                U64,
                "ingest cursor restored from the last checkpoint",
            ),
            req(
                "dropped_bytes",
                U64,
                "torn-tail bytes truncated during replay",
            ),
        ],
        open: false,
    },
    KindSpec {
        kind: "alert_fired",
        level: ObsLevel::Summary,
        clock: "logical ingest seconds (EpochClock)",
        site: "mvcom-daemon::daemon",
        doc: "",
        fields: &[
            req("epoch", U64, "epoch whose summary breached the threshold"),
            req(
                "alert",
                Str,
                "alert kind (low_utility|low_admission|high_quarantine)",
            ),
            req("threshold", F64, "armed threshold"),
            req("observed", F64, "observed value that breached it"),
        ],
        open: false,
    },
    // ---- metrics flush (clock: emitting site's logical clock) ---------
    KindSpec {
        kind: "metric",
        level: ObsLevel::Summary,
        clock: "emitting site's logical clock",
        site: "mvcom-obs::metrics (flush)",
        doc: "Emitted by `Obs::flush_metrics(t)` in deterministic sorted-name order, stamped with the caller's logical clock.",
        fields: &[
            req(
                "name",
                Str,
                "metric name (naming convention: area.noun_unit)",
            ),
            req("metric", Str, "counter|gauge"),
            req("value", F64, "current value"),
        ],
        open: false,
    },
    KindSpec {
        kind: "metric_hist",
        level: ObsLevel::Summary,
        clock: "emitting site's logical clock",
        site: "mvcom-obs::metrics (flush)",
        doc: "The histogram half of the same flush.",
        fields: &[
            req("name", Str, "histogram name"),
            req("count", U64, "observations"),
            req("sum", F64, "sum of observations"),
            req(
                "buckets",
                Str,
                "cumulative `le<bound>:<count>` pairs, comma-separated; the last is `leinf:<total>`",
            ),
        ],
        open: false,
    },
];

/// Looks up the spec for `kind`.
pub fn spec(kind: &str) -> Option<&'static KindSpec> {
    KINDS.iter().find(|s| s.kind == kind)
}

/// Renders [`KINDS`] as the "Event kinds" section of OBSERVABILITY.md: per
/// kind a heading with level, clock, site and openness, the kind's prose,
/// and an aligned field table.
pub fn render_markdown() -> String {
    let mut out = String::new();
    for k in KINDS {
        let open = if k.open { ", **open**" } else { "" };
        out.push_str(&format!(
            "### `{}` — level: {}, clock: {}, site: `{}`{open}\n\n",
            k.kind,
            k.level.as_str(),
            k.clock,
            k.site
        ));
        if !k.doc.is_empty() {
            out.push_str(k.doc);
            out.push_str("\n\n");
        }
        let mut rows = vec![["field", "type", "meaning"].map(String::from)];
        rows.extend(k.fields.iter().map(|f| {
            // A literal `|` would end the table cell.
            let meaning = f.unit.replace('|', "\\|");
            [format!("`{}`", f.name), f.ty.name().to_string(), meaning]
        }));
        let width = |col: usize| {
            rows.iter()
                .map(|r| r[col].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths = [width(0), width(1), width(2)];
        for (i, row) in rows.iter().enumerate() {
            let [a, b, c] = row;
            let [wa, wb, wc] = widths;
            out.push_str(&format!("| {a:wa$} | {b:wb$} | {c:wc$} |\n"));
            if i == 0 {
                let rule = widths.map(|w| "-".repeat(w + 2));
                out.push_str(&format!("|{}|\n", rule.join("|")));
            }
        }
        out.push('\n');
    }
    out
}

/// A schema violation found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// The event kind is not registered.
    UnknownKind(String),
    /// A declared field is absent.
    MissingField(&'static str),
    /// A field is present with the wrong wire type.
    WrongType(&'static str),
    /// A closed kind carries a field the schema does not declare.
    UndeclaredField(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::UnknownKind(k) => write!(f, "unknown event kind `{k}`"),
            SchemaError::MissingField(n) => write!(f, "missing field `{n}`"),
            SchemaError::WrongType(n) => write!(f, "field `{n}` has the wrong type"),
            SchemaError::UndeclaredField(n) => write!(f, "undeclared field `{n}` on a closed kind"),
        }
    }
}

/// Validates `event` against the registry.
///
/// # Errors
///
/// The first [`SchemaError`] found, in field-declaration order.
pub fn validate(event: &Event) -> Result<(), SchemaError> {
    let Some(spec) = spec(event.kind) else {
        return Err(SchemaError::UnknownKind(event.kind.to_string()));
    };
    for field in spec.fields {
        match event.fields.iter().find(|(n, _)| *n == field.name) {
            Some((_, value)) if !field.ty.matches(value) => {
                return Err(SchemaError::WrongType(field.name));
            }
            Some(_) => {}
            None => return Err(SchemaError::MissingField(field.name)),
        }
    }
    if !spec.open {
        for (name, _) in &event.fields {
            if !spec.fields.iter().any(|f| f.name == *name) {
                return Err(SchemaError::UndeclaredField((*name).to_string()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_named_reasonably() {
        let mut seen = std::collections::BTreeSet::new();
        for k in KINDS {
            assert!(seen.insert(k.kind), "duplicate kind {}", k.kind);
            assert!(
                k.kind
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "kind {} breaks the snake_case convention",
                k.kind
            );
            assert!(!k.fields.is_empty() || k.open, "{} has no payload", k.kind);
        }
    }

    #[test]
    fn validate_accepts_a_well_formed_event() {
        let ev = Event::new(
            "se_checkpoint_save",
            3.0,
            &[
                ("version", Value::U64(2)),
                ("iter", Value::U64(3)),
                ("chains", Value::U64(8)),
            ],
        );
        assert_eq!(validate(&ev), Ok(()));
    }

    #[test]
    fn validate_rejects_each_violation_class() {
        let unknown = Event::new("nope", 0.0, &[]);
        assert!(matches!(
            validate(&unknown),
            Err(SchemaError::UnknownKind(_))
        ));
        let missing = Event::new("se_checkpoint_save", 0.0, &[("version", Value::U64(1))]);
        assert_eq!(validate(&missing), Err(SchemaError::MissingField("iter")));
        let wrong = Event::new(
            "se_checkpoint_save",
            0.0,
            &[
                ("version", Value::F64(1.0)),
                ("iter", Value::U64(0)),
                ("chains", Value::U64(0)),
            ],
        );
        assert_eq!(validate(&wrong), Err(SchemaError::WrongType("version")));
        let extra = Event::new(
            "se_checkpoint_save",
            0.0,
            &[
                ("version", Value::U64(1)),
                ("iter", Value::U64(0)),
                ("chains", Value::U64(0)),
                ("bogus", Value::U64(9)),
            ],
        );
        assert!(matches!(
            validate(&extra),
            Err(SchemaError::UndeclaredField(_))
        ));
    }

    #[test]
    fn span_kinds_are_open_to_context_fields() {
        let ev = Event::new(
            "span_open",
            0.0,
            &[
                ("id", Value::U64(1)),
                ("name", Value::from("formation")),
                ("epoch", Value::U64(4)),
            ],
        );
        assert_eq!(validate(&ev), Ok(()));
    }

    #[test]
    fn observability_md_event_kinds_are_the_rendered_table() {
        // OBSERVABILITY.md lives at the workspace root, two levels up.
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../OBSERVABILITY.md"
        ))
        .expect("OBSERVABILITY.md must exist at the workspace root");
        let (_, rest) = doc
            .split_once("<!-- BEGIN GENERATED: obs_report --schema-md -->\n\n")
            .expect("the begin marker");
        let (committed, _) = rest
            .split_once("<!-- END GENERATED -->")
            .expect("the end marker");
        assert!(
            committed == render_markdown(),
            "OBSERVABILITY.md \"Event kinds\" drifted from schema::KINDS; \
             regenerate it with `obs_report --schema-md`"
        );
    }

    #[test]
    fn rendered_tables_escape_pipes_and_mark_open_kinds() {
        let md = render_markdown();
        assert!(md.contains("### `span_open` — level: events"));
        assert!(md.contains("site: `any (span! macro)`, **open**\n"));
        assert!(md.contains("| `event`          | str  | join\\|leave "));
        for line in md.lines().filter(|l| l.starts_with('|')) {
            let cells = line.replace("\\|", "").matches('|').count();
            assert_eq!(cells, 4, "{line}");
        }
    }
}
