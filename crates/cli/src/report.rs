//! The structured run report behind `--json` on `fedsz fl` and
//! `fedsz serve`.
//!
//! Both subcommands print human tables by default; automation needs
//! one stable, parseable schema instead — the config-smoke CI job
//! parses every example spec's output and checks the checksum field.
//! [`RunReport`] is that schema, shared by the simulator and the
//! socket runtime so a parity harness can diff the two without
//! scraping either one's table format:
//!
//! ```json
//! {
//!   "schema": "fedsz.run_report.v2",
//!   "schema_version": 2,
//!   "command": "fl",
//!   "clients": 4,
//!   "rounds": [
//!     {"round": 0, "accuracy": 0.25, "merged": 4, "lost": 0,
//!      "upstream_bytes": 1234, "downstream_bytes": 5678,
//!      "secs": 0.125, "checksum": "0x5a1c09e7",
//!      "level_merge_nanos": [810, 5230],
//!      "eqn1": [{"leg": "uplink", "node": 0, "compressed": true,
//!                "family": "lossy",
//!                "predicted_compressed_secs": null,
//!                "predicted_raw_secs": null,
//!                "measured_codec_secs": 0.0021}, ...],
//!      "reconnects": null, "reparented": null,
//!      "dp_sigma": 0.05, "clipped_fraction": 0.25},
//!     ...
//!   ],
//!   "checksum": "0x82c3c3f4"
//! }
//! ```
//!
//! Fields a side cannot produce are `null`, never omitted: `fl` has
//! accuracies, `serve` does not (it never evaluates) — the column set
//! itself is identical, which is what makes the schema *one* schema.
//! Both sides fill the per-round `checksum` (the post-round global's
//! fingerprint; only a relay, which never holds the global, nulls it),
//! so a socket run that diverges from its simulator twin names the
//! round. The top-level `checksum` is the same bit-parity fingerprint
//! of the final model, printed as `global checksum: 0x…` in table
//! mode.
//!
//! v2 added the observability columns: `level_merge_nanos` (wall
//! nanoseconds merging into each tree level, root first; the
//! simulator fills one element per level, `serve` one element — its
//! own fold, accumulate / merge_from plus the root's finish, decode
//! excluded as in the simulator's flat merge) and `eqn1` (every
//! Eqn-1 compression decision the round made — leg, node, chosen
//! path, the predicted costs of both paths when the decision was
//! priced, and the measured codec seconds), and later the elastic
//! membership columns: `reconnects` (sessions that reconnected and
//! resumed during the round) and `reparented` (orphans a sharded root
//! adopted after their relay died) — the simulator nulls both, the
//! socket runtime fills them. The DP columns came with the sweep
//! subsystem: `dp_sigma` (the per-element noise scale of the plan's
//! DP stage; both sides fill it whenever DP is on, `null` otherwise)
//! and `clipped_fraction` (the fraction of this round's client deltas
//! the clip bound actually touched — the simulator observes its
//! clients, a root only sees ciphertext-like payloads, so `serve`
//! always nulls it).
//!
//! Which side fills which column is a contract with two ends, so it
//! lives in exactly one place: the [`RoundRow::simulator`] and
//! [`RoundRow::socket`] constructors. `fl`, `serve` and `sweep` all
//! build their rows through them instead of hand-maintaining the
//! null pattern at each call site.
//!
//! The emitter is hand-rolled (no serde in the dependency-free
//! workspace); every string that reaches it is machine-generated, but
//! [`json_string`] escapes defensively anyway.

use fedsz::timing::Eqn1Decision;
use fedsz_fl::net::NetRound;
use fedsz_fl::RoundMetrics;
use std::fmt::Write as _;

/// One round's columns, shared by `fl` and `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRow {
    /// Round index (0-based).
    pub round: usize,
    /// Post-round test accuracy (`None` for `serve`, which never
    /// evaluates).
    pub accuracy: Option<f64>,
    /// Updates folded into the aggregate.
    pub merged: usize,
    /// Updates that never made it: simulator transit drops, or socket
    /// evictions.
    pub lost: usize,
    /// Client/child → server bytes: payload bytes for the simulator,
    /// framed wire bytes for the socket runtime.
    pub upstream_bytes: usize,
    /// Server → client/child bytes, counted the same way.
    pub downstream_bytes: usize,
    /// Round duration: virtual seconds for the simulator, wall-clock
    /// for the socket runtime.
    pub secs: f64,
    /// Post-round global checksum, filled by `fl` and `serve` alike
    /// (`None` only on a relay, which never holds the global).
    pub checksum: Option<u32>,
    /// Wall nanoseconds merging into each aggregation-tree level, root
    /// first. `serve` reports one element, this server's own fold (its
    /// relays report theirs).
    pub level_merge_nanos: Option<Vec<u64>>,
    /// Every Eqn-1 compression decision the round made (`None` for
    /// `serve`; workers price their own uplinks).
    pub eqn1: Option<Vec<Eqn1Decision>>,
    /// Sessions that reconnected and resumed this round (`None` for
    /// `fl`; the simulator has no sockets to lose).
    pub reconnects: Option<usize>,
    /// Orphaned workers re-parented to this node after their relay
    /// died (`None` for `fl`, and always 0 on relays and flat roots).
    pub reparented: Option<usize>,
    /// Per-element noise scale of the plan's DP stage (clip norm ×
    /// noise multiplier). Both sides fill it when DP is on; `None`
    /// means the run had no DP stage.
    pub dp_sigma: Option<f64>,
    /// Fraction of this round's client deltas the DP clip bound
    /// actually scaled (`None` for `serve` — clipping happens inside
    /// worker processes the server cannot observe — and for runs
    /// without DP).
    pub clipped_fraction: Option<f64>,
}

impl RoundRow {
    /// Builds a simulator (`fl`/`sweep`) row from the round engine's
    /// metrics. This constructor owns the simulator half of the
    /// fills-vs-nulls contract: accuracies, per-round checksums, merge
    /// timings, Eqn-1 decisions and DP observations are filled; the
    /// elastic-membership counters are `null` (the simulator has no
    /// sockets to lose).
    pub fn simulator(m: &RoundMetrics) -> Self {
        Self {
            round: m.round,
            accuracy: Some(m.test_accuracy),
            merged: m.aggregated_updates,
            lost: m.dropped_updates,
            upstream_bytes: m.upstream_bytes,
            downstream_bytes: m.downstream_bytes,
            secs: m.round_secs,
            checksum: Some(m.checksum),
            level_merge_nanos: Some(m.level_merge_nanos.clone()),
            eqn1: Some(m.eqn1.clone()),
            reconnects: None,
            reparented: None,
            dp_sigma: m.dp_sigma,
            clipped_fraction: m.clipped_fraction,
        }
    }

    /// Builds a socket (`serve`) row — the other half of the
    /// contract: per-round checksums, membership counters and this
    /// server's own fold time (one `level_merge_nanos` element) are
    /// filled, while accuracies, Eqn-1 records and the clipped fraction
    /// stay `null` (they happen inside worker processes this server
    /// cannot see). A relay never holds the global, so `relay` nulls
    /// the checksum rather than emitting a bogus `0x00000000`. `dp_sigma` comes from the shared plan —
    /// the server knows the policy even though the noise is applied
    /// worker-side.
    pub fn socket(r: &NetRound, relay: bool, dp_sigma: Option<f64>) -> Self {
        Self {
            round: r.round as usize,
            accuracy: None,
            merged: r.merged,
            lost: r.evicted,
            upstream_bytes: r.upstream_bytes,
            downstream_bytes: r.downstream_bytes,
            secs: r.wall_secs,
            checksum: (!relay).then_some(r.checksum),
            level_merge_nanos: Some(vec![r.merge_nanos]),
            eqn1: None,
            reconnects: Some(r.reconnects),
            reparented: Some(r.reparented),
            dp_sigma,
            clipped_fraction: None,
        }
    }
}

/// The complete `--json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Which subcommand produced the report (`"fl"` or `"serve"`).
    pub command: &'static str,
    /// Cohort size.
    pub clients: usize,
    /// Per-round columns.
    pub rounds: Vec<RoundRow>,
    /// The final global model's bit-parity fingerprint (`None` for a
    /// relay `serve`, which never holds the global — emitting a zero
    /// here would read as a bogus divergence to a parity harness).
    pub checksum: Option<u32>,
}

/// The schema tag every report carries.
pub const RUN_REPORT_SCHEMA: &str = "fedsz.run_report.v2";

/// The schema version every report carries.
pub const SCHEMA_VERSION: u32 = 2;

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    fedsz_telemetry::push_json_string(&mut out, s);
    out
}

/// Renders a finite f64 with fixed precision; non-finite values
/// become `null` (JSON has no Infinity/NaN). Shared with the sweep
/// report emitter.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string() // JSON has no Infinity/NaN
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let body = values.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    format!("[{body}]")
}

/// One Eqn-1 decision as a JSON object; `None` predictions (the
/// unconditional modes and the profile-less probe rounds) render as
/// `null`, never omitted.
fn json_eqn1(d: &Eqn1Decision) -> String {
    format!(
        "{{\"leg\": {}, \"node\": {}, \"compressed\": {}, \"family\": {}, \
         \"predicted_compressed_secs\": {}, \"predicted_raw_secs\": {}, \
         \"measured_codec_secs\": {}}}",
        json_string(d.leg.name()),
        d.node,
        d.compressed,
        json_string(d.family),
        d.predicted_compressed_secs.map_or("null".to_string(), json_f64),
        d.predicted_raw_secs.map_or("null".to_string(), json_f64),
        json_f64(d.measured_codec_secs),
    )
}

impl RunReport {
    /// Renders the stable-schema JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", json_string(RUN_REPORT_SCHEMA));
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"command\": {},", json_string(self.command));
        let _ = writeln!(out, "  \"clients\": {},", self.clients);
        let _ = writeln!(out, "  \"rounds\": [");
        for (i, row) in self.rounds.iter().enumerate() {
            let accuracy = row.accuracy.map_or("null".to_string(), json_f64);
            let checksum =
                row.checksum.map_or("null".to_string(), |c| json_string(&format!("0x{c:08x}")));
            let level_merge_nanos =
                row.level_merge_nanos.as_deref().map_or("null".to_string(), json_u64_array);
            let eqn1 = row.eqn1.as_deref().map_or("null".to_string(), |decisions| {
                let body = decisions.iter().map(json_eqn1).collect::<Vec<_>>().join(", ");
                format!("[{body}]")
            });
            let reconnects = row.reconnects.map_or("null".to_string(), |n| n.to_string());
            let reparented = row.reparented.map_or("null".to_string(), |n| n.to_string());
            let dp_sigma = row.dp_sigma.map_or("null".to_string(), json_f64);
            let clipped_fraction = row.clipped_fraction.map_or("null".to_string(), json_f64);
            let _ = write!(
                out,
                "    {{\"round\": {}, \"accuracy\": {}, \"merged\": {}, \"lost\": {}, \
                 \"upstream_bytes\": {}, \"downstream_bytes\": {}, \"secs\": {}, \
                 \"checksum\": {}, \"level_merge_nanos\": {}, \"eqn1\": {}, \
                 \"reconnects\": {}, \"reparented\": {}, \
                 \"dp_sigma\": {}, \"clipped_fraction\": {}}}",
                row.round,
                accuracy,
                row.merged,
                row.lost,
                row.upstream_bytes,
                row.downstream_bytes,
                json_f64(row.secs),
                checksum,
                level_merge_nanos,
                eqn1,
                reconnects,
                reparented,
                dp_sigma,
                clipped_fraction,
            );
            let _ = writeln!(out, "{}", if i + 1 < self.rounds.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ],");
        let checksum =
            self.checksum.map_or("null".to_string(), |c| json_string(&format!("0x{c:08x}")));
        let _ = writeln!(out, "  \"checksum\": {checksum}");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            command: "fl",
            clients: 2,
            rounds: vec![
                RoundRow {
                    round: 0,
                    accuracy: Some(0.25),
                    merged: 2,
                    lost: 0,
                    upstream_bytes: 100,
                    downstream_bytes: 200,
                    secs: 0.5,
                    checksum: None,
                    level_merge_nanos: Some(vec![810, 5230]),
                    eqn1: Some(vec![
                        Eqn1Decision {
                            leg: fedsz::timing::Eqn1Leg::Uplink,
                            node: 0,
                            compressed: true,
                            family: "lossy",
                            predicted_compressed_secs: None,
                            predicted_raw_secs: None,
                            measured_codec_secs: 0.002,
                        },
                        Eqn1Decision {
                            leg: fedsz::timing::Eqn1Leg::Downlink,
                            node: 0,
                            compressed: false,
                            family: "raw",
                            predicted_compressed_secs: Some(0.5),
                            predicted_raw_secs: Some(0.25),
                            measured_codec_secs: 0.0,
                        },
                    ]),
                    reconnects: None,
                    reparented: None,
                    dp_sigma: Some(0.05),
                    clipped_fraction: Some(0.25),
                },
                RoundRow {
                    round: 1,
                    accuracy: None,
                    merged: 1,
                    lost: 1,
                    upstream_bytes: 50,
                    downstream_bytes: 100,
                    secs: f64::INFINITY,
                    checksum: Some(0xdeadbeef),
                    level_merge_nanos: None,
                    eqn1: None,
                    reconnects: Some(2),
                    reparented: Some(1),
                    dp_sigma: None,
                    clipped_fraction: None,
                },
            ],
            checksum: Some(0x82c3c3f4),
        }
    }

    #[test]
    fn report_carries_schema_and_checksum() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"fedsz.run_report.v2\""), "{json}");
        assert!(json.contains("\"schema_version\": 2"), "{json}");
        assert!(json.contains("\"checksum\": \"0x82c3c3f4\""), "{json}");
        assert!(json.contains("\"checksum\": \"0xdeadbeef\""), "{json}");
        // Missing columns are null, never omitted (one schema).
        assert!(json.contains("\"accuracy\": null"), "{json}");
        assert!(json.contains("\"checksum\": null"), "{json}");
        // Non-finite values cannot leak into JSON.
        assert!(json.contains("\"secs\": null"), "{json}");
        assert!(!json.contains("inf"), "{json}");
        // A relay report (no global model) nulls the fingerprint
        // instead of printing a bogus 0x00000000.
        let relay = RunReport { checksum: None, ..sample() };
        assert!(relay.to_json().contains("\"checksum\": null"), "{}", relay.to_json());
        assert!(!relay.to_json().contains("0x00000000"));
    }

    #[test]
    fn v2_observability_columns_render_values_and_nulls() {
        let json = sample().to_json();
        // Round 0 carries the simulator's measurements...
        assert!(json.contains("\"level_merge_nanos\": [810, 5230]"), "{json}");
        assert!(json.contains("\"leg\": \"uplink\""), "{json}");
        assert!(json.contains("\"leg\": \"downlink\""), "{json}");
        // ...with unpriced decisions nulling both predictions, never
        // omitting the keys.
        assert!(
            json.contains("\"predicted_compressed_secs\": null, \"predicted_raw_secs\": null"),
            "{json}"
        );
        assert!(json.contains("\"predicted_raw_secs\": 0.250000"), "{json}");
        assert!(json.contains("\"measured_codec_secs\": 0.002000"), "{json}");
        // Every decision names its codec family.
        assert!(json.contains("\"family\": \"lossy\""), "{json}");
        assert!(json.contains("\"family\": \"raw\""), "{json}");
        // ...and round 1 nulls whole columns.
        assert!(json.contains("\"level_merge_nanos\": null"), "{json}");
        assert!(json.contains("\"eqn1\": null"), "{json}");
        // The elastic-membership columns follow the same rule: the
        // simulator's row nulls them, the socket row fills them.
        assert!(json.contains("\"reconnects\": null, \"reparented\": null"), "{json}");
        assert!(json.contains("\"reconnects\": 2, \"reparented\": 1"), "{json}");
        // The DP columns: filled on the DP round, nulled (never
        // omitted) on the DP-free one.
        assert!(json.contains("\"dp_sigma\": 0.050000, \"clipped_fraction\": 0.250000"), "{json}");
        assert!(json.contains("\"dp_sigma\": null, \"clipped_fraction\": null"), "{json}");
    }

    #[test]
    fn constructors_own_the_fills_vs_nulls_contract() {
        let net = NetRound {
            round: 3,
            downstream_bytes: 200,
            upstream_bytes: 100,
            merged: 4,
            evicted: 1,
            reconnects: 2,
            reparented: 1,
            wall_secs: 0.25,
            merge_nanos: 5230,
            checksum: 0xdeadbeef,
        };
        let row = RoundRow::socket(&net, false, Some(0.1));
        assert_eq!(row.round, 3);
        assert_eq!(row.checksum, Some(0xdeadbeef));
        assert_eq!(row.reconnects, Some(2));
        assert_eq!(row.dp_sigma, Some(0.1));
        // One level: this server's own fold.
        assert_eq!(row.level_merge_nanos, Some(vec![5230]));
        // The socket side can never observe these.
        assert_eq!(row.accuracy, None);
        assert_eq!(row.eqn1, None);
        assert_eq!(row.clipped_fraction, None);
        // A relay never holds the global model.
        assert_eq!(RoundRow::socket(&net, true, None).checksum, None);
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_is_structurally_valid_json() {
        // A tiny structural walk: balanced braces/brackets outside
        // strings — the full parse happens in the CI smoke with a real
        // JSON parser.
        let json = sample().to_json();
        let (mut depth, mut in_string, mut escaped) = (0i32, false, false);
        for c in json.chars() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '{' | '[' if !in_string => depth += 1,
                '}' | ']' if !in_string => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {json}");
        }
        assert_eq!(depth, 0, "unbalanced braces in {json}");
        assert!(!in_string, "unterminated string in {json}");
    }
}
